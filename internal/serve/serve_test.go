package serve

import (
	"math"
	"strings"
	"testing"
	"time"

	"churnlb/internal/policy"
	"churnlb/internal/scenario"
	"churnlb/internal/sim"
	"churnlb/internal/testkit"
)

func testOptions(t *testing.T) Options {
	t.Helper()
	sc, err := scenario.Generate(scenario.Spec{Kind: scenario.Uniform, N: 8, TotalLoad: 0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		Params:      sc.Params,
		Policy:      policy.LBP2{K: 1},
		NewRouter:   func() policy.Router { return policy.LeastExpectedWork{} },
		InitialLoad: sc.InitialLoad,
		InitialUp:   sc.InitialUp,
		Rate:        6,
		Horizon:     25,
		Seed:        41,
	}
}

// TestRunManyMatchesSerialLoop pins the contract that made the parallel
// fan-out safe to adopt: RunMany must produce exactly the results of the
// serial loop it replaced — same MixSeed layout, rep-indexed output.
func TestRunManyMatchesSerialLoop(t *testing.T) {
	opt := testOptions(t)
	const reps = 5
	want := make([]*Result, reps)
	for rep := 0; rep < reps; rep++ {
		o := opt
		o.Seed = MixSeed(opt.Seed, rep)
		r, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		want[rep] = r
	}
	got := make([]*Result, reps)
	if err := RunMany(opt, reps, 0, func(rep int, r *Result) { got[rep] = r }); err != nil {
		t.Fatal(err)
	}
	for rep := range want {
		w, g := want[rep].Summary, got[rep].Summary
		if w.Completed != g.Completed ||
			math.Float64bits(w.P99) != math.Float64bits(g.P99) ||
			math.Float64bits(w.Throughput) != math.Float64bits(g.Throughput) {
			t.Errorf("rep %d diverged: serial %+v, parallel %+v", rep, w, g)
		}
	}
}

// TestRunManyWorkerCountIndependent: any worker count, same bits.
func TestRunManyWorkerCountIndependent(t *testing.T) {
	opt := testOptions(t)
	const reps = 7
	collect := func(workers int) []*Result {
		out := make([]*Result, reps)
		if err := RunMany(opt, reps, workers, func(rep int, r *Result) { out[rep] = r }); err != nil {
			t.Fatal(err)
		}
		return out
	}
	base := collect(1)
	for _, workers := range []int{2, 4, reps + 3} {
		got := collect(workers)
		for rep := range base {
			b, g := base[rep].Summary, got[rep].Summary
			if math.Float64bits(b.P50) != math.Float64bits(g.P50) ||
				b.Arrived != g.Arrived || b.Completed != g.Completed {
				t.Errorf("workers=%d rep %d diverged: %+v vs %+v", workers, rep, b, g)
			}
		}
	}
}

// TestRunManyValidation rejects non-positive reps.
func TestRunManyValidation(t *testing.T) {
	if err := RunMany(testOptions(t), 0, 0, func(int, *Result) {}); err == nil {
		t.Fatal("zero reps accepted")
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
		s := MixSeed(1, rep)
		if seen[s] {
			t.Fatalf("duplicate seed %d at rep %d", s, rep)
		}
		seen[s] = true
	}
}

// TestRunShardCountInvariant: the full serving telemetry stack (window
// series, percentile sketches, fairness tally) must come out bit-for-bit
// identical for every positive Shards value — the sharded engine merges
// per-domain observer streams back into one monotone stream, and this
// pins that the collector cannot tell the shard counts apart.
func TestRunShardCountInvariant(t *testing.T) {
	collect := func(shards int) *Result {
		opt := testOptions(t)
		opt.Shards = shards
		r, err := Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	base := collect(1)
	if base.Summary.Completed == 0 {
		t.Fatal("sharded run completed nothing")
	}
	for _, shards := range []int{2, 4, 7} {
		got := collect(shards)
		b, g := base.Summary, got.Summary
		if b.Arrived != g.Arrived || b.Completed != g.Completed ||
			math.Float64bits(b.P50) != math.Float64bits(g.P50) ||
			math.Float64bits(b.P99) != math.Float64bits(g.P99) ||
			math.Float64bits(b.Throughput) != math.Float64bits(g.Throughput) ||
			math.Float64bits(b.Availability) != math.Float64bits(g.Availability) ||
			math.Float64bits(b.Fairness) != math.Float64bits(g.Fairness) {
			t.Errorf("shards=%d summary diverged: %+v vs %+v", shards, b, g)
		}
		if len(base.Windows) != len(got.Windows) {
			t.Fatalf("shards=%d: %d windows vs %d", shards, len(got.Windows), len(base.Windows))
		}
		for i := range base.Windows {
			if math.Float64bits(base.Windows[i].P99) != math.Float64bits(got.Windows[i].P99) ||
				math.Float64bits(base.Windows[i].QueueDepth) != math.Float64bits(got.Windows[i].QueueDepth) {
				t.Errorf("shards=%d window %d diverged", shards, i)
			}
		}
		bs, gs := base.Sim, got.Sim
		if math.Float64bits(bs.CompletionTime) != math.Float64bits(gs.CompletionTime) ||
			bs.Failures != gs.Failures || bs.Recoveries != gs.Recoveries ||
			bs.TransfersSent != gs.TransfersSent || bs.TasksTransferred != gs.TasksTransferred ||
			bs.ExternalArrivals != gs.ExternalArrivals {
			t.Errorf("shards=%d sim result diverged: %+v vs %+v", shards, bs, gs)
		}
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
		{"rate-nan", "Rate", func(o *Options) { o.Rate = nan }},
		{"rate-inf", "Rate", func(o *Options) { o.Rate = inf }},
		{"rate-nan-sharded", "Rate", func(o *Options) { o.Rate, o.Shards = nan, 2 }},
		{"horizon-nan", "Horizon", func(o *Options) { o.Horizon = nan }},
		{"horizon-inf", "Horizon", func(o *Options) { o.Horizon = inf }},
		{"wave-amplitude-nan", "Amplitude", func(o *Options) { o.WaveAmplitude, o.WavePeriod = nan, 10 }},
		{"wave-period-nan", "Period", func(o *Options) { o.WaveAmplitude, o.WavePeriod = 0.5, nan }},
		{"wave-period-inf", "Period", func(o *Options) { o.WaveAmplitude, o.WavePeriod = 0.5, inf }},
		{"window-nan", "Window", func(o *Options) { o.Window = nan }},
		{"batch-over-int32", "Batch", func(o *Options) { o.Batch = 3_000_000_000 }},
		{"trace-rate-nan", "Rate", func(o *Options) {
			o.Rate, o.Horizon = nan, 0
			o.ArrivalTrace = []sim.ArrivalAt{{Time: 0, Batch: 1}}
		}},
		{"trace-batch-over-int32", "ArrivalTrace[0].Batch", func(o *Options) {
			o.Rate, o.Horizon = 0, 0
			o.ArrivalTrace = []sim.ArrivalAt{{Time: 0, Batch: 3_000_000_000}}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			opt := testOptions(t)
			c.mod(&opt)
			err := testkit.Deadline(t, 2*time.Second, func(stop <-chan struct{}) error {
				o := opt
				if o.Shards == 0 { // the sharded engine refuses an Interrupt
					o.Interrupt = stop
				}
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
