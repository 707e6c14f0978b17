package serve

import (
	"fmt"
	"hash/fnv"
	"testing"

	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/scenario"
	"churnlb/internal/sim"
)

// decisionFold is a DecisionSink hashing every routing decision.
type decisionFold struct{ sum uint64 }

func (d *decisionFold) Decision(v model.StateView, chosen, batch, considered int) {
	h := fnv.New64a()
	fmt.Fprint(h, d.sum, v.Time(), v.InFlight(), v.Queue(chosen), chosen, batch, considered)
	d.sum = h.Sum64()
}

// TestRealisationReuseIsInvisibleToServing: a serving realisation starts on
// whatever memory the simulator's last finished run left behind (see
// sim.Start), and none of it may show. The same observed, routed,
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
			Params:      sc.Params,
			Policy:      policy.LBP2{K: 1},
			NewRouter:   func() policy.Router { return policy.JSQ{} },
			InitialLoad: sc.InitialLoad,
			InitialUp:   sc.InitialUp,
			Rate:        float64(4 * nodes),
			Horizon:     5,
			Seed:        seed,
		}
	}
	outputs := func(opt Options) string {
		sink := &decisionFold{}
		opt.Instrument = func(inner sim.TaskObserver) (sim.TaskObserver, sim.DecisionSink) { return inner, sink }
		res, err := Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v|%+v|%+v|%x", res.Summary, res.Windows, *res.Sim, sink.sum)
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
