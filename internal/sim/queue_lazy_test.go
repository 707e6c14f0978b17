package sim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"

	"churnlb/internal/des"
	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/xrand"
)

// resultBits flattens a Result into comparable words: exact float bits
// for the completion time, every counter, every per-node total, and the
// trace hash. Two runs are "bit-identical" iff these match.
func resultBits(r *Result) []uint64 {
	out := []uint64{
		math.Float64bits(r.CompletionTime),
		uint64(r.Failures), uint64(r.Recoveries),
		uint64(r.TransfersSent), uint64(r.TasksTransferred),
		uint64(r.ExternalArrivals),
		traceHash(r.Trace), uint64(len(r.Trace)),
	}
	for _, p := range r.Processed {
		out = append(out, uint64(p))
	}
	return out
}

func sameResult(a, b *Result) bool {
	ab, bb := resultBits(a), resultBits(b)
	if len(ab) != len(bb) {
		return false
	}
	for i := range ab {
		if ab[i] != bb[i] {
			return false
		}
	}
	return true
}

// churnHeavyOptions builds one churn-heavy realisation: a hotspot-like
// initial load over n heterogeneous nodes with MTBF 20 s / MTTR 2 s, the
// regime where ~2n live timers dominate the scheduler.
func churnHeavyOptions(n, load int, pol policy.Policy, seed uint64) Options {
	gen := xrand.NewStream(seed, 0xC4A2)
	p := model.Params{
		ProcRate:     make([]float64, n),
		FailRate:     make([]float64, n),
		RecRate:      make([]float64, n),
		DelayPerTask: 0.02,
	}
	init := make([]int, n)
	for i := 0; i < n; i++ {
		p.ProcRate[i] = 0.8 + 1.4*gen.Float64()
		p.FailRate[i] = 1 / 20.0 * (0.5 + gen.Float64())
		p.RecRate[i] = 1 / 2.0 * (0.5 + gen.Float64())
	}
	// Load the first tenth of the nodes; the rest start idle (and stay
	// intermittently idle), so lazy churn has something to skip.
	hot := n / 10
	if hot < 1 {
		hot = 1
	}
	for i := 0; i < load; i++ {
		init[i%hot]++
	}
	return Options{Params: p, Policy: pol, InitialLoad: init, Rand: xrand.NewStream(seed, 1)}
}

// resultHash folds resultBits into one FNV-1a word, the form the
// differential references below are recorded in.
func resultHash(r *Result) uint64 {
	h := fnv.New64a()
	for _, v := range resultBits(r) {
		h.Write(binary.LittleEndian.AppendUint64(nil, v))
	}
	return h.Sum64()
}

// TestBackendDifferentialChurnRealisation runs whole churn-heavy
// realisations — LBP-2 with its failure plan, plus a routed open-system
// variant — and demands the Results the binary heap produced for them,
// recorded (as resultHash) at commit 2fcc187 where every run could still
// be put on either queue and both agreed. These clusters are big enough
// that the simulator now picks the calendar queue, so this is the
// sim-level half of the queue contract with the heap as the oracle (the
// des-level half replays raw schedules on both backends).
func TestBackendDifferentialChurnRealisation(t *testing.T) {
	cases := []struct {
		name string
		opt  func(seed uint64) Options
		heap [3]uint64 // seeds 1, 2, 3
	}{
		{"lbp2-closed", func(seed uint64) Options {
			return churnHeavyOptions(150, 3000, policy.LBP2{K: 1}, seed)
		}, [3]uint64{0xa23ec753f09546f2, 0xb8ff035bd84eeae9, 0x669928b345d09d23}},
		{"lbp2-traced", func(seed uint64) Options {
			o := churnHeavyOptions(60, 600, policy.LBP2{K: 1}, seed)
			o.Trace = true
			return o
		}, [3]uint64{0xa903450830ac82a2, 0xf913747ade3007e9, 0xd8565de1d5c7152f}},
		{"jsq-routed", func(seed uint64) Options {
			o := churnHeavyOptions(100, 500, policy.LBP2{K: 1}, seed)
			o.Router = policy.JSQ{}
			o.ArrivalRate, o.ArrivalBatch, o.ArrivalHorizon = 100, 2, 10
			return o
		}, [3]uint64{0x8863a2eed86b3b8f, 0x746d9403f1d6527e, 0x2fc3939ab33753be}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				opt := c.opt(seed)
				if q := queueFor(opt.Params.N()); q == des.QueueHeap {
					t.Fatalf("%d nodes run on the %v, the oracle itself", opt.Params.N(), q)
				}
				res, err := Run(opt)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := resultHash(res), c.heap[seed-1]; got != want {
					t.Fatalf("seed %d: result hash %#016x, the heap's was %#016x", seed, got, want)
				}
			}
		})
	}
}

// TestEventQueueValidated: an out-of-range law is an error on both
// engines, not a silent run under the default law (the hot-path switches
// fall through to it).
func TestEventQueueValidated(t *testing.T) {
	for _, c := range []struct {
		name string
		mod  func(*Options)
	}{
		{"ChurnLaw", func(o *Options) { o.ChurnLaw = ChurnLaw(7) }},
		{"ChurnLaw<0", func(o *Options) { o.ChurnLaw = ChurnLaw(-1) }},
		{"TransferMode", func(o *Options) { o.TransferMode = TransferMode(7) }},
	} {
		for _, shards := range []int{0, 2} {
			opt := churnHeavyOptions(4, 20, policy.NoBalance{}, 1)
			opt.Shards = shards
			c.mod(&opt)
			if _, err := Run(opt); err == nil {
				t.Fatalf("invalid %s accepted (shards %d)", c.name, shards)
			}
		}
	}
}

// TestLawSpellingsRoundTrip: every law parses back from its String.
func TestLawSpellingsRoundTrip(t *testing.T) {
	for _, m := range []TransferMode{TransferBundle, TransferPerTask} {
		if got, err := ParseTransferMode(m.String()); err != nil || got != m {
			t.Errorf("round trip %v -> %q -> %v, %v", m, m.String(), got, err)
		}
	}
	for _, c := range []ChurnLaw{ChurnExponential, ChurnWeibull, ChurnDeterministic} {
		if got, err := ParseChurnLaw(c.String()); err != nil || got != c {
			t.Errorf("round trip %v -> %q -> %v, %v", c, c.String(), got, err)
		}
	}
	if _, err := ParseTransferMode("lunar"); err == nil {
		t.Error("unknown transfer mode parsed")
	}
	if _, err := ParseChurnLaw(""); err == nil {
		t.Error("empty churn law parsed")
	}
}

// TestLazyChurnFallsBackWhenObservable: when the lazy request cannot be
// honoured (trace on, non-memoryless churn, observing router), the run
// must be bit-identical to an eager run — the flag silently degrades,
// never changes semantics.
func TestLazyChurnFallsBackWhenObservable(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Options)
	}{
		{"traced", func(o *Options) { o.Trace = true }},
		{"weibull", func(o *Options) { o.ChurnLaw = ChurnWeibull }},
		{"deterministic", func(o *Options) { o.ChurnLaw = ChurnDeterministic }},
		{"routed", func(o *Options) {
			o.Router = policy.JSQ{}
			o.ArrivalRate, o.ArrivalHorizon = 20, 5
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			eager := churnHeavyOptions(40, 400, policy.LBP2{K: 1}, 7)
			c.mod(&eager)
			ref, err := Run(eager)
			if err != nil {
				t.Fatal(err)
			}
			lazy := churnHeavyOptions(40, 400, policy.LBP2{K: 1}, 7)
			c.mod(&lazy)
			lazy.LazyChurn = true
			got, err := Run(lazy)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(ref, got) {
				t.Fatalf("lazy fallback diverged from eager run")
			}
		})
	}
}

// TestLazyChurnEngages: on an eligible run the lazy path must actually
// detach idle nodes — observable as a different (but still deterministic)
// consumption of the random stream. A run where this test fails is a run
// where the gate silently stopped granting laziness.
func TestLazyChurnEngages(t *testing.T) {
	eager := churnHeavyOptions(50, 300, policy.LBP2{K: 1}, 11)
	ref, err := Run(eager)
	if err != nil {
		t.Fatal(err)
	}
	lazy := churnHeavyOptions(50, 300, policy.LBP2{K: 1}, 11)
	lazy.LazyChurn = true
	got, err := Run(lazy)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(ref.CompletionTime) == math.Float64bits(got.CompletionTime) {
		t.Fatal("lazy run consumed the stream exactly like the eager run; is the gate granting laziness?")
	}
	// And it must be deterministic: same options, same bits.
	again, err := Run(func() Options {
		o := churnHeavyOptions(50, 300, policy.LBP2{K: 1}, 11)
		o.LazyChurn = true
		return o
	}())
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(got, again) {
		t.Fatal("lazy run is not deterministic for a fixed seed")
	}
}

// TestLazyChurnConservation: lazy realisations across random systems,
// policies with failure plans, transfer modes, arrivals and cluster sizes
// on both sides of the event-queue threshold conserve tasks exactly and
// complete.
func TestLazyChurnConservation(t *testing.T) {
	f := func(seed uint16, nRaw uint8, large bool) bool {
		rng := xrand.NewStream(uint64(seed), 31)
		n := 3 + int(nRaw)%8
		if large {
			n += calendarNodes
		}
		p := model.Params{
			ProcRate:     make([]float64, n),
			FailRate:     make([]float64, n),
			RecRate:      make([]float64, n),
			DelayPerTask: 0.05,
		}
		load := make([]int, n)
		for i := 0; i < n; i++ {
			p.ProcRate[i] = 0.5 + 2*rng.Float64()
			p.FailRate[i] = 0.2 * rng.Float64()
			p.RecRate[i] = 0.3 + 0.4*rng.Float64()
			if rng.Float64() < 0.5 { // many nodes start idle
				load[i] = rng.Intn(30)
			}
		}
		opt := Options{
			Params:      p,
			Policy:      policy.LBP2{K: 1},
			InitialLoad: load,
			Rand:        rng,
			LazyChurn:   true,
		}
		if seed%3 == 0 {
			opt.ArrivalRate, opt.ArrivalBatch, opt.ArrivalHorizon = 0.5, 2, 15
		}
		res, err := Run(opt)
		if err != nil {
			return false
		}
		total := 0
		for _, c := range res.Processed {
			total += c
		}
		want := res.ExternalArrivals
		for _, q := range load {
			want += q
		}
		return total == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestLazyChurnDistributionMatchesEager: lazy and eager runs realise the
// same stochastic process, so their completion-time and churn-counter
// means must agree statistically. Both arms use disjoint replication
// streams; the tolerance is five standard errors of the difference
// (~1e-6 false-failure odds), against means that would shift by many
// sigmas if lazy resolution mis-realised the churn law.
func TestLazyChurnDistributionMatchesEager(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical comparison")
	}
	const reps = 250
	run := func(lazy bool, rep int) *Result {
		o := churnHeavyOptions(16, 400, policy.LBP2{K: 1}, 1000+uint64(rep))
		o.LazyChurn = lazy
		if lazy {
			o.Rand = xrand.NewStream(9000+uint64(rep), 1)
		}
		res, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var sumE, sumL, sqE, sqL float64
	var failE, failL float64
	for rep := 0; rep < reps; rep++ {
		e := run(false, rep)
		l := run(true, rep)
		sumE += e.CompletionTime
		sumL += l.CompletionTime
		sqE += e.CompletionTime * e.CompletionTime
		sqL += l.CompletionTime * l.CompletionTime
		failE += float64(e.Failures)
		failL += float64(l.Failures)
	}
	meanE, meanL := sumE/reps, sumL/reps
	varE := sqE/reps - meanE*meanE
	varL := sqL/reps - meanL*meanL
	se := math.Sqrt(varE/reps + varL/reps)
	if diff := math.Abs(meanE - meanL); diff > 5*se {
		t.Fatalf("lazy completion-time mean %v vs eager %v: |diff| %v > 5·SE %v", meanL, meanE, diff, 5*se)
	}
	// Failure counts grow with the run length; compare per-second rates
	// so the comparison is about the churn law, not run length noise.
	rateE, rateL := failE/sumE, failL/sumL
	if rel := math.Abs(rateE-rateL) / rateE; rel > 0.05 {
		t.Fatalf("lazy failure rate %v/s vs eager %v/s: relative gap %v > 5%%", rateL, rateE, rel)
	}
}
