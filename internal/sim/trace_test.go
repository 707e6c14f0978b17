package sim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/xrand"
)

// traceObserver records the time and batch of every external arrival.
type traceObserver struct {
	countingObserver
	times   []float64
	batches []int
}

func (o *traceObserver) TasksArrived(node, count int, t float64) {
	o.countingObserver.TasksArrived(node, count, t)
	o.times = append(o.times, t)
	o.batches = append(o.batches, count)
}

// TestArrivalTraceExactInjection replays an explicit schedule and checks
// the simulator injects exactly the recorded arrivals: same times, same
// batches, per-entry batch overriding the ArrivalBatch default, and the
// run terminating once the trace is exhausted and the work drains.
func TestArrivalTraceExactInjection(t *testing.T) {
	trace := []ArrivalAt{
		{Time: 0.5, Batch: 3},
		{Time: 0.5}, // simultaneous with the previous entry; defaults to ArrivalBatch
		{Time: 2.25, Batch: 1},
		{Time: 7, Batch: 2},
	}
	obs := &traceObserver{countingObserver: countingObserver{t: t}}
	res, err := Run(Options{
		Params:       model.PaperBaseline(),
		InitialLoad:  []int{0, 0},
		Rand:         xrand.New(11),
		Router:       policy.JSQ{},
		ArrivalBatch: 4,
		ArrivalTrace: trace,
		TaskObserver: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantBatches := []int{3, 4, 1, 2}
	wantTotal := 0
	for _, b := range wantBatches {
		wantTotal += b
	}
	if res.ExternalArrivals != wantTotal {
		t.Fatalf("ExternalArrivals = %d, want %d", res.ExternalArrivals, wantTotal)
	}
	if len(obs.times) != len(trace) {
		t.Fatalf("observer saw %d arrival events, want %d", len(obs.times), len(trace))
	}
	for i := range trace {
		if obs.times[i] != trace[i].Time {
			t.Errorf("arrival %d at t=%v, want %v", i, obs.times[i], trace[i].Time)
		}
		if obs.batches[i] != wantBatches[i] {
			t.Errorf("arrival %d batch %d, want %d", i, obs.batches[i], wantBatches[i])
		}
	}
	processed := 0
	for _, c := range res.Processed {
		processed += c
	}
	if processed != wantTotal {
		t.Fatalf("processed %d, want %d", processed, wantTotal)
	}
}

// TestArrivalTraceConservation is the open-system conservation property
// under recorded schedules: every injected task is eventually processed,
// across randomized systems, policies and routers.
func TestArrivalTraceConservation(t *testing.T) {
	f := func(seed uint16, nRaw, kRaw uint8) bool {
		rng := xrand.NewStream(uint64(seed), 91)
		n := 2 + int(nRaw)%5
		p, load := randomParams(rng, n)
		trace := make([]ArrivalAt, 1+int(kRaw)%40)
		tt := 0.0
		want := 0
		for i := range trace {
			tt += rng.ExpMean(0.7)
			b := 1 + rng.Intn(3)
			trace[i] = ArrivalAt{Time: tt, Batch: b}
			want += b
		}
		res, err := Run(Options{
			Params:       p,
			Policy:       policy.LBP2{K: 1},
			InitialLoad:  load,
			Rand:         rng,
			Router:       policy.LeastExpectedWork{D: 2},
			ArrivalTrace: trace,
		})
		if err != nil {
			t.Log(err)
			return false
		}
		for _, q := range load {
			want += q
		}
		processed := 0
		for _, c := range res.Processed {
			processed += c
		}
		if processed != want {
			t.Logf("processed %d, want initial+trace %d", processed, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestArrivalTraceValidation exercises every rejection path of the
// recorded-schedule options.
func TestArrivalTraceValidation(t *testing.T) {
	base := func() Options {
		return Options{
			Params:      model.PaperBaseline(),
			InitialLoad: []int{0, 0},
			Rand:        xrand.New(1),
		}
	}
	cases := []struct {
		name string
		mut  func(*Options)
		want string
	}{
		{"with-rate", func(o *Options) {
			o.ArrivalTrace = []ArrivalAt{{Time: 1}}
			o.ArrivalRate = 1
			o.ArrivalHorizon = 10
		}, "mutually exclusive"},
		{"with-wave", func(o *Options) {
			o.ArrivalTrace = []ArrivalAt{{Time: 1}}
			o.ArrivalWave = Wave{Amplitude: 0.5, Period: 5}
		}, "mutually exclusive"},
		{"negative-time", func(o *Options) {
			o.ArrivalTrace = []ArrivalAt{{Time: -0.5}}
		}, "non-negative"},
		{"nan-time", func(o *Options) {
			o.ArrivalTrace = []ArrivalAt{{Time: math.NaN()}}
		}, "finite"},
		{"decreasing", func(o *Options) {
			o.ArrivalTrace = []ArrivalAt{{Time: 3}, {Time: 2}}
		}, "precedes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := base()
			tc.mut(&opt)
			_, err := Run(opt)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestArrivalTraceShardedRejected pins the engine gate: recorded
// schedules have no per-domain decomposition, so the sharded engine must
// refuse them rather than silently ignore the trace.
func TestArrivalTraceShardedRejected(t *testing.T) {
	_, err := StartSharded(Options{
		Params:       model.PaperBaseline(),
		InitialLoad:  []int{5, 5},
		Rand:         xrand.New(1),
		Shards:       2,
		ArrivalTrace: []ArrivalAt{{Time: 1}},
	})
	if err == nil || !strings.Contains(err.Error(), "ArrivalTrace") {
		t.Fatalf("err = %v, want ArrivalTrace rejection", err)
	}
}

// TestArrivalTraceRateRunsUnchanged proves the trace seam is inert for
// rate-driven runs: a Poisson run before and after the feature must be
// bit-identical, which the golden suite also pins; here the cheap local
// check is that an empty trace behaves exactly like no trace.
func TestArrivalTraceRateRunsUnchanged(t *testing.T) {
	run := func(tr []ArrivalAt) *Result {
		res, err := Run(Options{
			Params:         model.PaperBaseline(),
			Policy:         policy.LBP2{K: 1},
			InitialLoad:    []int{20, 5},
			Rand:           xrand.New(42),
			Router:         policy.PowerOfD{D: 2},
			ArrivalRate:    0.8,
			ArrivalHorizon: 25,
			ArrivalTrace:   tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(nil), run([]ArrivalAt{})
	if a.ExternalArrivals != b.ExternalArrivals || a.CompletionTime != b.CompletionTime {
		t.Fatalf("empty trace perturbed a rate-driven run: %+v vs %+v", a, b)
	}
}
