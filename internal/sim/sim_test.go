package sim

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"churnlb/internal/markov"
	"churnlb/internal/mc"
	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/xrand"
)

func baseOptions(rng *xrand.Rand) Options {
	return Options{
		Params:      model.PaperBaseline(),
		Policy:      policy.NoBalance{},
		InitialLoad: []int{100, 60},
		Rand:        rng,
	}
}

func TestRunValidation(t *testing.T) {
	rng := xrand.New(1)
	opt := baseOptions(rng)
	opt.InitialLoad = []int{1}
	if _, err := Run(opt); err == nil {
		t.Fatal("mismatched load length accepted")
	}
	opt = baseOptions(rng)
	opt.InitialLoad = []int{-1, 5}
	if _, err := Run(opt); err == nil {
		t.Fatal("negative load accepted")
	}
	opt = baseOptions(rng)
	opt.Rand = nil
	if _, err := Run(opt); err == nil {
		t.Fatal("missing RNG accepted")
	}
	opt = baseOptions(rng)
	opt.InitialUp = []bool{true}
	if _, err := Run(opt); err == nil {
		t.Fatal("mismatched InitialUp accepted")
	}
	opt = baseOptions(rng)
	opt.ArrivalRate = 1
	if _, err := Run(opt); err == nil {
		t.Fatal("arrivals without horizon accepted")
	}
}

// Task conservation: everything queued initially (plus injected work) is
// processed exactly once, regardless of policy or churn.
func TestTaskConservation(t *testing.T) {
	f := func(seed uint16, polRaw uint8) bool {
		rng := xrand.NewStream(uint64(seed), 31)
		var pol policy.Policy
		switch polRaw % 3 {
		case 0:
			pol = policy.NoBalance{}
		case 1:
			pol = policy.LBP1{K: 0.35, Sender: 0}
		default:
			pol = policy.LBP2{K: 1}
		}
		load := []int{rng.Intn(80), rng.Intn(80)}
		res, err := Run(Options{
			Params:      model.PaperBaseline(),
			Policy:      pol,
			InitialLoad: load,
			Rand:        rng,
		})
		if err != nil {
			return false
		}
		return res.Processed[0]+res.Processed[1] == load[0]+load[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicUnderSameSeed(t *testing.T) {
	run := func() *Result {
		rng := xrand.NewStream(42, 7)
		res, err := Run(Options{
			Params:      model.PaperBaseline(),
			Policy:      policy.LBP2{K: 1},
			InitialLoad: []int{100, 60},
			Rand:        rng,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.CompletionTime != b.CompletionTime || a.Failures != b.Failures ||
		a.TasksTransferred != b.TasksTransferred {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestEmptyWorkloadCompletesImmediately(t *testing.T) {
	rng := xrand.New(3)
	opt := baseOptions(rng)
	opt.InitialLoad = []int{0, 0}
	res, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionTime != 0 {
		t.Fatalf("empty workload took %v", res.CompletionTime)
	}
}

// Single node, no failures: completion is Erlang(m, λd); the MC mean must
// match m/λd.
func TestSingleNodeErlangMean(t *testing.T) {
	p := model.PaperBaseline().NoFailure()
	est, err := mc.Run(mc.Options{Reps: 4000, Seed: 5}, func(r *xrand.Rand, rep int) (float64, error) {
		res, err := Run(Options{Params: p, InitialLoad: []int{50, 0}, Rand: r})
		if err != nil {
			return 0, err
		}
		return res.CompletionTime, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 50 / p.ProcRate[0]
	if math.Abs(est.Mean-want) > 3*est.CI95 {
		t.Fatalf("MC mean %v ±%v vs Erlang mean %v", est.Mean, est.CI95, want)
	}
}

// The simulator must agree with the regenerative-process solver: the same
// stochastic model, two independent implementations.
func TestMCAgreesWithTheoryLBP1(t *testing.T) {
	p := model.PaperBaseline()
	ms, err := markov.NewMeanSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		m0, m1, sender int
		k              float64
	}{
		{100, 60, 0, 0.35},
		{100, 60, 0, 0},
		{50, 0, 0, 0.6},
		{30, 80, 1, 0.4},
	}
	for _, c := range cases {
		want := ms.MeanLBP1(c.m0, c.m1, c.sender, c.k)
		est, err := mc.Run(mc.Options{Reps: 3000, Seed: 17}, func(r *xrand.Rand, rep int) (float64, error) {
			res, err := Run(Options{
				Params:      p,
				Policy:      policy.LBP1{K: c.k, Sender: c.sender},
				InitialLoad: []int{c.m0, c.m1},
				Rand:        r,
			})
			if err != nil {
				return 0, err
			}
			return res.CompletionTime, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est.Mean-want) > 4*est.CI95 {
			t.Errorf("(%d,%d,K=%v): MC %v ±%v vs theory %v", c.m0, c.m1, c.k, est.Mean, est.CI95, want)
		}
	}
}

// A three-node run with transfers in flight agrees with the exact
// N-node solver: LBP1Multi{K: 1}'s t = 0 episode on (14, 2, 0) leaves 7
// tasks bound for node 1 and 2 for node 2, each bundle arriving at rate
// 1/(δ·L), and GeneralSolver prices exactly that state.
func TestMCAgreesWithGeneralSolverPendingTransfers(t *testing.T) {
	for _, delta := range []float64{0.5, 1} {
		p := model.Params{
			ProcRate:     []float64{1, 2, 0.7},
			FailRate:     []float64{0.05, 0.1, 0.08},
			RecRate:      []float64{0.2, 0.25, 0.1},
			DelayPerTask: delta,
		}
		load := []int{14, 2, 0}
		pol := policy.LBP1Multi{K: 1}
		up := []bool{true, true, true}
		episode := pol.Initial(model.SnapshotView{State: model.State{Queues: load, Up: up}}, p)
		want := []model.Transfer{{From: 0, To: 1, Tasks: 7}, {From: 0, To: 2, Tasks: 2}}
		if !reflect.DeepEqual(episode, want) {
			t.Fatalf("t = 0 episode %v, want %v", episode, want)
		}
		queues := append([]int(nil), load...)
		var pending []markov.PendingTransfer
		for _, tr := range episode {
			queues[tr.From] -= tr.Tasks
			pending = append(pending, markov.PendingTransfer{To: tr.To, Tasks: tr.Tasks, Rate: 1 / (delta * float64(tr.Tasks))})
		}
		gs, err := markov.NewGeneralSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := gs.Mean(queues, pending, up)
		if err != nil {
			t.Fatal(err)
		}
		const reps = 20000
		est, err := MonteCarlo(mc.Options{Reps: reps, Seed: 0xD2}, Options{Params: p, Policy: pol, InitialLoad: load})
		if err != nil {
			t.Fatal(err)
		}
		z := (est.Mean - exact) / (est.Std / math.Sqrt(reps))
		t.Logf("δ=%v: MC %.4f vs exact %.4f, z = %.2f", delta, est.Mean, exact, z)
		if math.Abs(z) > 4 {
			t.Errorf("δ=%v: MC mean %v is %.1f standard errors from the exact %v", delta, est.Mean, z, exact)
		}
	}
}

// Paper headline (Fig. 3 + text): at the baseline delay LBP-2 beats LBP-1's
// optimum; both beat no balancing.
func TestPolicyOrderingAtSmallDelay(t *testing.T) {
	p := model.PaperBaseline()
	means := map[string]float64{}
	for _, c := range []struct {
		name string
		pol  policy.Policy
	}{
		{"lbp1", policy.LBP1{K: 0.35, Sender: 0}},
		{"lbp2", policy.LBP2{K: 1}},
		{"none", policy.NoBalance{}},
	} {
		name, pol := c.name, c.pol
		est, err := mc.Run(mc.Options{Reps: 3000, Seed: 23}, func(r *xrand.Rand, rep int) (float64, error) {
			res, err := Run(Options{Params: p, Policy: pol, InitialLoad: []int{100, 60}, Rand: r})
			if err != nil {
				return 0, err
			}
			return res.CompletionTime, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		means[name] = est.Mean
	}
	if !(means["lbp2"] < means["lbp1"] && means["lbp1"] < means["none"]) {
		t.Fatalf("expected lbp2 < lbp1 < none, got %v", means)
	}
}

// Paper Table 3: at large per-task delay the ordering flips: LBP-1 beats
// LBP-2 because per-failure transfers become too expensive.
func TestPolicyOrderingFlipsAtLargeDelay(t *testing.T) {
	p := model.PaperBaseline().WithDelay(3)
	run := func(pol policy.Policy) float64 {
		est, err := mc.Run(mc.Options{Reps: 2000, Seed: 29}, func(r *xrand.Rand, rep int) (float64, error) {
			res, err := Run(Options{Params: p, Policy: pol, InitialLoad: []int{100, 60}, Rand: r})
			if err != nil {
				return 0, err
			}
			return res.CompletionTime, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return est.Mean
	}
	lbp1 := run(policy.LBP1{K: 0.12, Sender: 0}) // theory optimum at δ=3
	lbp2 := run(policy.LBP2{K: 0.24})            // no-failure optimum at δ=3
	if lbp1 >= lbp2 {
		t.Fatalf("at δ=3 LBP-1 (%v) should beat LBP-2 (%v)", lbp1, lbp2)
	}
}

func TestFailuresAreCountedAndTraceCoherent(t *testing.T) {
	rng := xrand.NewStream(77, 0)
	res, err := Run(Options{
		Params:      model.PaperBaseline(),
		Policy:      policy.LBP2{K: 1},
		InitialLoad: []int{100, 60},
		Rand:        rng,
		Trace:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("trace empty")
	}
	if res.Trace[0].Kind != EvStart || res.Trace[len(res.Trace)-1].Kind != EvDone {
		t.Fatal("trace must start with start and end with done")
	}
	prev := -1.0
	failures, recoveries := 0, 0
	for _, tp := range res.Trace {
		if tp.Time < prev {
			t.Fatalf("trace time went backwards at %v", tp.Time)
		}
		prev = tp.Time
		for _, q := range tp.Queues {
			if q < 0 {
				t.Fatalf("negative queue in trace: %+v", tp)
			}
		}
		switch tp.Kind {
		case EvFailure:
			failures++
		case EvRecovery:
			recoveries++
		}
	}
	if failures != res.Failures {
		t.Fatalf("trace failures %d vs result %d", failures, res.Failures)
	}
	if recoveries != res.Recoveries {
		t.Fatalf("trace recoveries %d vs result %d", recoveries, res.Recoveries)
	}
}

func TestInitialDownNodeDelaysCompletion(t *testing.T) {
	p := model.PaperBaseline()
	run := func(up []bool) float64 {
		est, err := mc.Run(mc.Options{Reps: 1500, Seed: 31}, func(r *xrand.Rand, rep int) (float64, error) {
			res, err := Run(Options{Params: p, InitialLoad: []int{40, 0}, InitialUp: up, Rand: r})
			if err != nil {
				return 0, err
			}
			return res.CompletionTime, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return est.Mean
	}
	allUp := run(nil)
	node0Down := run([]bool{false, true})
	if node0Down <= allUp {
		t.Fatalf("starting down (%v) should be slower than up (%v)", node0Down, allUp)
	}
}

func TestTransferPerTaskModeHasSameMeanDelay(t *testing.T) {
	// Both transfer modes share the mean; completion means must agree
	// within MC error.
	p := model.PaperBaseline()
	run := func(mode TransferMode) float64 {
		est, err := mc.Run(mc.Options{Reps: 2500, Seed: 37}, func(r *xrand.Rand, rep int) (float64, error) {
			res, err := Run(Options{
				Params: p, Policy: policy.LBP1{K: 0.35, Sender: 0},
				InitialLoad: []int{100, 60}, Rand: r, TransferMode: mode,
			})
			if err != nil {
				return 0, err
			}
			return res.CompletionTime, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return est.Mean
	}
	bundle := run(TransferBundle)
	perTask := run(TransferPerTask)
	if math.Abs(bundle-perTask) > 5 {
		t.Fatalf("transfer modes diverge: bundle %v vs per-task %v", bundle, perTask)
	}
}

func TestWeibullAndDeterministicChurnRun(t *testing.T) {
	for _, law := range []ChurnLaw{ChurnWeibull, ChurnDeterministic} {
		rng := xrand.NewStream(101, uint64(law))
		res, err := Run(Options{
			Params:      model.PaperBaseline(),
			Policy:      policy.LBP2{K: 1},
			InitialLoad: []int{60, 40},
			Rand:        rng,
			ChurnLaw:    law,
		})
		if err != nil {
			t.Fatalf("law %v: %v", law, err)
		}
		if res.Processed[0]+res.Processed[1] != 100 {
			t.Fatalf("law %v: conservation violated", law)
		}
	}
}

// Dynamic extension: external arrivals are all eventually processed and
// counted.
func TestExternalArrivalsProcessed(t *testing.T) {
	rng := xrand.NewStream(103, 2)
	res, err := Run(Options{
		Params:         model.PaperBaseline(),
		Policy:         policy.Dynamic{Base: policy.LBP2{K: 1}},
		InitialLoad:    []int{20, 0},
		Rand:           rng,
		ArrivalRate:    0.5,
		ArrivalBatch:   5,
		ArrivalHorizon: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 20 + res.ExternalArrivals
	if got := res.Processed[0] + res.Processed[1]; got != want {
		t.Fatalf("processed %d, want %d (20 initial + %d injected)", got, want, res.ExternalArrivals)
	}
	if res.ExternalArrivals == 0 {
		t.Fatal("no arrivals injected in 60 s at rate 0.5")
	}
}

// LBP-2's on-failure transfers shed load from the failed node: with
// paper-constant LF sizes, transferred task counts grow with failures.
func TestLBP2TransfersTrackFailures(t *testing.T) {
	rng := xrand.NewStream(107, 3)
	res, err := Run(Options{
		Params:      model.PaperBaseline(),
		Policy:      policy.LBP2{K: 1},
		InitialLoad: []int{200, 200},
		Rand:        rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures > 0 && res.TransfersSent < 2 {
		t.Fatalf("failures %d but only %d transfers", res.Failures, res.TransfersSent)
	}
}

func BenchmarkRunLBP2(b *testing.B) {
	p := model.PaperBaseline()
	for i := 0; i < b.N; i++ {
		rng := xrand.NewStream(1, uint64(i))
		if _, err := Run(Options{Params: p, Policy: policy.LBP2{K: 1}, InitialLoad: []int{100, 60}, Rand: rng}); err != nil {
			b.Fatal(err)
		}
	}
}
