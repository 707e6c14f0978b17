package sim

import (
	"runtime"
	"testing"

	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/xrand"
)

// probeParams builds the standard memory-probe workload: 10 tasks/node
// with 80% of the load concentrated on the hottest 5% of nodes, moderate
// churn — the hotspot shape the serving experiments use, and the source
// of the README memory-layout table.
func probeParams(n int) (model.Params, []int) {
	p := model.Params{
		ProcRate:     make([]float64, n),
		FailRate:     make([]float64, n),
		RecRate:      make([]float64, n),
		DelayPerTask: 0.02,
	}
	load := make([]int, n)
	hot := n / 20
	if hot < 1 {
		hot = 1
	}
	total := 10 * n
	for i := 0; i < n; i++ {
		p.ProcRate[i] = 1.5
		p.FailRate[i] = 1.0 / 200
		p.RecRate[i] = 1.0 / 30
	}
	for i := 0; i < hot; i++ {
		load[i] = (total * 8 / 10) / hot
	}
	rest := total - (total*8/10/hot)*hot
	for i := hot; i < n; i++ {
		load[i] = rest / (n - hot)
	}
	return p, load
}

// TestMemProbe measures total allocation per node for one fresh
// realisation of the probe workload — the idle arenas are dropped ahead of
// each, so the figure is what a run costs when nothing is left over from
// another — at N = 10³/10⁴/10⁵, with eager churn timers and with lazy
// ones, each on the event queue its node count selects (the calendar at
// every size here). It is the generator of the README "Memory layout"
// table (run with -v and copy the B/node figures) and holds every row to
// the budget below; TestMillionNodeSmoke does the same at N = 10⁶.
func TestMemProbe(t *testing.T) {
	// budget is the B/node ceiling of every row: the rows measure 315–385
	// (README), and the ceiling leaves a quarter for GC timing.
	const budget = 480
	for _, tc := range []struct {
		name string
		lazy bool
	}{
		{"eager", false},
		{"lazy", true},
	} {
		for _, n := range []int{1000, 10000, 100000} {
			p, load := probeParams(n)
			var before, after runtime.MemStats
			dropIdleArenas()
			runtime.GC()
			runtime.ReadMemStats(&before)
			res, err := Run(Options{
				Params: p, Policy: policy.LBP2{K: 1}, InitialLoad: load,
				Rand: xrand.NewStream(1, 1), LazyChurn: tc.lazy,
			})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			alloc := after.TotalAlloc - before.TotalAlloc
			perNode := float64(alloc) / float64(n)
			t.Logf("%s on the %v, N=%d: totalAlloc=%d bytes (%.1f B/node), completion=%.2f",
				tc.name, queueFor(n), n, alloc, perNode, res.CompletionTime)
			if perNode > budget {
				t.Errorf("%s N=%d: %.1f B/node over the %d B/node budget", tc.name, n, perNode, budget)
			}
		}
	}
	dropIdleArenas()
}
