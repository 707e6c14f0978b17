package policy

import (
	"testing"

	"churnlb/internal/model"
	"churnlb/internal/xrand"
)

// benchChurnSystem draws a realistic churning cluster (heterogeneous
// speeds, ~20 s mean up time, ~2 s mean recovery) with random queues —
// the state a failure episode sees mid-run. At these rates the eq.-(8)
// sizes floor to zero for every receiver beyond a few dozen nodes, so
// the planned episode is the O(1) empty walk while the naive scan still
// touches all n receivers.
func benchChurnSystem(n int) (model.Params, []int, model.SnapshotView) {
	rng := xrand.NewStream(1, uint64(n))
	p := model.Params{
		ProcRate:     make([]float64, n),
		FailRate:     make([]float64, n),
		RecRate:      make([]float64, n),
		DelayPerTask: 0.02,
	}
	queues := make([]int, n)
	up := make([]bool, n)
	for i := 0; i < n; i++ {
		p.ProcRate[i] = 0.5 + 2*rng.Float64()
		p.FailRate[i] = (0.5 + rng.Float64()) / 20
		p.RecRate[i] = (0.5 + rng.Float64()) / 2
		queues[i] = rng.Intn(200)
		up[i] = rng.Float64() < 0.9
	}
	return p, queues, model.SnapshotView{State: model.State{Queues: queues, Up: up}}
}

// benchOnFailureScan times one naive eq.-(8) failure episode: the O(n)
// per-receiver scan the Policy interface serves when no plan exists —
// the pre-plan cost of every failure instant.
func benchOnFailureScan(b *testing.B, n int) {
	p, _, v := benchChurnSystem(n)
	l := LBP2{K: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.OnFailure(i%n, v, p)
	}
}

// benchFailurePlanEpisode times one planned failure episode: the
// capped walk of the precomputed receiver row into a reused buffer —
// what the simulator pays per failure instant after the plan refactor.
func benchFailurePlanEpisode(b *testing.B, n int) {
	p, queues, _ := benchChurnSystem(n)
	fp := (LBP2{K: 1}).FailurePlan(p)
	var buf []model.Transfer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = fp.Transfers(buf[:0], i%n, queues[i%n])
	}
}

// BenchmarkOnFailureScan is the reference-scan row of the README's
// failure-episode cost table; per-op cost grows linearly in N.
func BenchmarkOnFailureScan(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(sizeLabel(n), func(b *testing.B) { benchOnFailureScan(b, n) })
	}
}

// BenchmarkFailurePlanEpisode is the planned-walk row: per-op cost must stay
// flat (and allocation-free) as N grows 100 -> 10000.
func BenchmarkFailurePlanEpisode(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(sizeLabel(n), func(b *testing.B) { benchFailurePlanEpisode(b, n) })
	}
}

// BenchmarkProportionalRebalance times LBP1Multi's arrival-path episode
// (Dynamic replays it at every external arrival); the pooled scratch
// keeps the per-call working arrays out of the allocator.
func BenchmarkProportionalRebalance(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(sizeLabel(n), func(b *testing.B) {
			p, _, v := benchChurnSystem(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = proportionalRebalance(v, p, 0.5, true)
			}
		})
	}
}

func sizeLabel(n int) string {
	switch n {
	case 100:
		return "N100"
	case 1000:
		return "N1000"
	default:
		return "N10000"
	}
}
