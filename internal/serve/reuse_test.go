package serve

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"churnlb/internal/model"
	"churnlb/internal/obs"
	"churnlb/internal/policy"
	"churnlb/internal/scenario"
	"churnlb/internal/sim"
	"churnlb/internal/xrand"
)

// dropIdleMemory empties the simulator's idle lists of realisation arenas
// and ledgers, and the pipe's of chunks, so the next run builds its memory
// from nothing. The simulator's go through its public API: a run that
// panics (its router picks a node that does not exist) and a ledger nobody
// releases each take one idle entry and let it be collected, and a list
// holds at most GOMAXPROCS entries.
func dropIdleMemory(t *testing.T) {
	t.Helper()
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "invalid node") {
					t.Fatalf("recovered %v, want the invalid-node panic", r)
				}
			}()
			sim.Run(sim.Options{Params: model.PaperBaseline(), InitialLoad: []int{0, 0}, Rand: xrand.New(1),
				ArrivalRate: 1, ArrivalHorizon: 1000, Router: badRouter{}})
		}()
		sim.NewLedger(0, nil)
	}
	for len(idleChunks) > 0 {
		<-idleChunks
	}
}

// TestLaterRunsAllocateATenth is the allocation regression test of the
// memory a serving run reuses — the realisation's arena, the ledger's
// per-node task deques and the pipe's chunks, most of an observed run's
// memory: after one run of a 1000-node pod2 workload on fresh memory, the
// second and the third allocate at most a tenth of the bytes the first did.
func TestLaterRunsAllocateATenth(t *testing.T) {
	sc, err := scenario.Generate(scenario.Spec{Kind: scenario.Hotspot, N: 1000, TotalLoad: 20000, Seed: 1, MTBF: 20, MTTR: 2})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{
		Sim: sim.Options{
			Params: sc.Params, InitialLoad: sc.InitialLoad, InitialUp: sc.InitialUp,
			ArrivalRate: 5000, ArrivalHorizon: 4,
		},
		NewRouter: func() policy.Router { return policy.PowerOfD{D: 2} },
		Window:    1,
		Seed:      1,
	}
	allocated := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(opt); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	dropIdleMemory(t)
	first := allocated()
	for run := 2; run <= 3; run++ {
		if later := allocated(); later > first/10 {
			t.Errorf("run %d allocated %d B, the first %d B: want at most a tenth", run, later, first)
		}
	}
}

// TestRealisationReuseIsInvisibleToServing: a serving realisation starts on
// whatever memory the simulator's last finished run left behind (see
// sim.Run), and none of it may show. The same observed, routed,
// balanced run is repeated after histories that leave different arenas — a
// cluster ten times its size, one small enough for the simulator to run on
// the other event queue (the heap), itself — and every output must come
// out the same each time: summary, windows, the simulator's result and the
// decision stream.
func TestRealisationReuseIsInvisibleToServing(t *testing.T) {
	options := func(nodes int, seed uint64) Options {
		sc, err := scenario.Generate(scenario.Spec{Kind: scenario.Hotspot, N: nodes, TotalLoad: 20 * nodes, Seed: 5, MTBF: 20, MTTR: 2})
		if err != nil {
			t.Fatal(err)
		}
		return Options{
			Sim: sim.Options{
				Params:         sc.Params,
				Policy:         policy.LBP2{K: 1},
				InitialLoad:    sc.InitialLoad,
				InitialUp:      sc.InitialUp,
				ArrivalRate:    float64(4 * nodes),
				ArrivalHorizon: 5,
			},
			NewRouter: func() policy.Router { return policy.JSQ{} },
			Seed:      seed,
		}
	}
	outputs := func(opt Options) string {
		opt.Tracer = obs.NewDecisionTracer(opt.Sim.Params, obs.TraceOptions{})
		res, err := Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v|%+v|%+v|%+v", res.Summary, res.Windows, *res.Sim, opt.Tracer.Stats())
	}
	subject := options(60, 11)
	want := outputs(subject)
	for _, history := range []struct {
		name string
		runs []Options
	}{
		{"after itself", []Options{subject}},
		{"after a larger cluster", []Options{options(600, 12)}},
		{"after a smaller cluster on the heap, twice", []Options{options(7, 13), options(7, 14)}},
	} {
		for _, opt := range history.runs {
			outputs(opt)
		}
		if got := outputs(subject); got != want {
			t.Errorf("%s: the run's outputs changed\n got %.200s…\nwant %.200s…", history.name, got, want)
		}
	}
}
