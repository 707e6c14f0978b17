package serve

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"churnlb/internal/metrics"
	"churnlb/internal/obs"
	"churnlb/internal/policy"
	"churnlb/internal/scenario"
	"churnlb/internal/sim"
	"churnlb/internal/stats"
	"churnlb/internal/testkit"
	"churnlb/internal/xrand"
)

func testOptions(t *testing.T) Options {
	t.Helper()
	sc, err := scenario.Generate(scenario.Spec{Kind: scenario.Uniform, N: 8, TotalLoad: 0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		Sim: sim.Options{
			Params:         sc.Params,
			Policy:         policy.LBP2{K: 1},
			InitialLoad:    sc.InitialLoad,
			InitialUp:      sc.InitialUp,
			ArrivalRate:    6,
			ArrivalHorizon: 25,
		},
		NewRouter: func() policy.Router { return policy.LeastExpectedWork{} },
		Seed:      41,
	}
}

// TestRunManyMatchesSerialLoop pins the contract that made the parallel
// fan-out safe to adopt: RunManyPooled pools exactly the results of the
// serial loop it replaced — same xrand.MixSeed layout, folded in
// replication order.
func TestRunManyMatchesSerialLoop(t *testing.T) {
	opt := testOptions(t)
	const reps = 5
	var thr stats.Welford
	var fair metrics.Fairness
	sketches := make([]metrics.LatencySketch, reps)
	for rep := 0; rep < reps; rep++ {
		o := opt
		o.Seed = xrand.MixSeed(opt.Seed, rep)
		r, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		thr.Add(r.Summary.Throughput)
		fair.Merge(r.Fairness)
		sketches[rep] = r.Latency
	}
	got, err := RunManyPooled(opt, reps, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := PoolLatency(sketches)
	if g, w := fmt.Sprintf("%+v", got.Throughput), fmt.Sprintf("%+v", thr.Summary()); g != w {
		t.Errorf("pooled throughput %s, serial loop %s", g, w)
	}
	if *got.Latency.P50 != *want.P50 || *got.Latency.P99 != *want.P99 {
		t.Error("pooled latency sketches differ from the serial loop's")
	}
	if !slices.Equal(got.Fairness.Counts, fair.Counts) {
		t.Error("pooled fairness tally differs from the serial loop's")
	}
}

// pooledBits prints every bit of a Pooled aggregate.
func pooledBits(p *Pooled) string {
	return fmt.Sprintf("%d %d %+v %+v %+v %+v %+v %+v %+v %+v %v", p.Reps, p.N, p.P50, p.P99, p.Throughput, p.Availability, p.InFlight,
		*p.Latency.P50, *p.Latency.P90, *p.Latency.P99, p.Fairness.Counts)
}

// TestRunManyWorkerCountIndependent: any worker count, same bits.
func TestRunManyWorkerCountIndependent(t *testing.T) {
	opt := testOptions(t)
	const reps = 7
	collect := func(workers int) string {
		p, err := RunManyPooled(opt, reps, workers)
		if err != nil {
			t.Fatal(err)
		}
		return pooledBits(p)
	}
	base := collect(1)
	for _, workers := range []int{2, 4, reps + 3} {
		if got := collect(workers); got != base {
			t.Errorf("workers=%d diverged:\n got %s\nwant %s", workers, got, base)
		}
	}
}

// TestRunManyValidation rejects non-positive reps and the single-run
// hooks, naming the hook, rather than running without them.
func TestRunManyValidation(t *testing.T) {
	// A serve-many manifest recording reps -2 used to panic sizing the
	// per-replication table.
	for _, reps := range []int{0, -2} {
		if _, err := RunManyPooled(testOptions(t), reps, 0); err == nil || !strings.Contains(err.Error(), "reps") {
			t.Fatalf("RunManyPooled with %d reps: err = %v, want one naming reps", reps, err)
		}
	}
	withTracer := testOptions(t)
	withTracer.Tracer = obs.NewDecisionTracer(withTracer.Sim.Params, obs.TraceOptions{})
	withInterrupt := testOptions(t)
	withInterrupt.Sim.Interrupt = make(chan struct{})
	for _, c := range []struct {
		name string
		opt  Options
	}{{"Tracer", withTracer}, {"Interrupt", withInterrupt}} {
		if _, err := RunManyPooled(c.opt, 2, 0); err == nil || !strings.Contains(err.Error(), c.name) {
			t.Errorf("RunManyPooled with %s: err = %v, want one naming it", c.name, err)
		}
	}
}

// TestRunRefusesWhatItSupplies: Run fills the random stream, the router
// and the task observer of the simulator options itself, and an options
// value that sets one is refused by name instead of being overwritten.
func TestRunRefusesWhatItSupplies(t *testing.T) {
	for _, c := range []struct {
		name string
		mod  func(*sim.Options)
	}{
		{"Rand", func(o *sim.Options) { o.Rand = xrand.New(1) }},
		{"Router", func(o *sim.Options) { o.Router = policy.JSQ{} }},
		{"TaskObserver", func(o *sim.Options) {
			o.TaskObserver = sim.NewLedger(o.Params.N(), metrics.NewCollector(o.Params.N(), 1))
		}},
	} {
		opt := testOptions(t)
		c.mod(&opt.Sim)
		if _, err := Run(opt); err == nil || !strings.Contains(err.Error(), "Sim."+c.name) {
			t.Errorf("Sim.%s set: err = %v, want one naming it", c.name, err)
		}
	}
}

// TestRunExposesLatencySketches: the per-run sketches must agree with the
// summary percentiles (they are the same estimators).
func TestRunExposesLatencySketches(t *testing.T) {
	res, err := Run(testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Completed == 0 {
		t.Fatal("run completed nothing")
	}
	if res.Latency.P50 == nil || res.Latency.P99 == nil {
		t.Fatal("latency sketches missing")
	}
	if got := res.Latency.P99.Value(); math.Float64bits(got) != math.Float64bits(res.Summary.P99) {
		t.Fatalf("sketch p99 %v, summary %v", got, res.Summary.P99)
	}
	if res.Latency.P50.N() != res.Summary.Completed {
		t.Fatalf("sketch saw %d tasks, summary %d", res.Latency.P50.N(), res.Summary.Completed)
	}
}

// TestMixSeedSpreads is a light sanity check that the per-replication
// seeds differ (the scheme behind parallel determinism).
func TestMixSeedSpreads(t *testing.T) {
	seen := map[uint64]bool{}
	for rep := 0; rep < 100; rep++ {
		s := xrand.MixSeed(1, rep)
		if seen[s] {
			t.Fatalf("duplicate seed %d at rep %d", s, rep)
		}
		seen[s] = true
	}
}

// TestHostileArrivalParametersRejected: no arrival parameter reaches the
// event loop as a NaN, an infinity or a batch beyond the queue's int32 —
// each used to wedge or silently empty a serving run — and the error says
// which one it was. Each case runs under a deadline that cuts the arrival
// stream, so a value that slips through fails its case instead of hanging.
func TestHostileArrivalParametersRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name, names string
		mod         func(*Options)
	}{
		{"rate-nan", "Rate", func(o *Options) { o.Sim.ArrivalRate = nan }},
		{"rate-inf", "Rate", func(o *Options) { o.Sim.ArrivalRate = inf }},
		{"horizon-nan", "Horizon", func(o *Options) { o.Sim.ArrivalHorizon = nan }},
		{"horizon-inf", "Horizon", func(o *Options) { o.Sim.ArrivalHorizon = inf }},
		{"wave-amplitude-nan", "Amplitude", func(o *Options) { o.Sim.ArrivalWave = sim.Wave{Amplitude: nan, Period: 10} }},
		{"wave-period-nan", "Period", func(o *Options) { o.Sim.ArrivalWave = sim.Wave{Amplitude: 0.5, Period: nan} }},
		{"wave-period-inf", "Period", func(o *Options) { o.Sim.ArrivalWave = sim.Wave{Amplitude: 0.5, Period: inf} }},
		{"window-nan", "Window", func(o *Options) { o.Window = nan }},
		{"window-inf", "Window", func(o *Options) { o.Window = inf }},
		{"window-negative", "Window", func(o *Options) { o.Window = -1 }},
		{"batch-over-int32", "Batch", func(o *Options) { o.Sim.ArrivalBatch = 3_000_000_000 }},
		{"trace-rate-nan", "Rate", func(o *Options) {
			o.Sim.ArrivalRate, o.Sim.ArrivalHorizon = nan, 0
			o.Sim.ArrivalTrace = []sim.ArrivalAt{{Time: 0, Batch: 1}}
		}},
		{"trace-batch-over-int32", "ArrivalTrace[0].Batch", func(o *Options) {
			o.Sim.ArrivalRate, o.Sim.ArrivalHorizon = 0, 0
			o.Sim.ArrivalTrace = []sim.ArrivalAt{{Time: 0, Batch: 3_000_000_000}}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			opt := testOptions(t)
			c.mod(&opt)
			err := testkit.Deadline(t, 2*time.Second, func(stop <-chan struct{}) error {
				o := opt
				o.Sim.Interrupt = stop
				_, err := Run(o)
				return err
			})
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), c.names) {
				t.Fatalf("error %q does not name %s", err, c.names)
			}
		})
	}
}
