package sim_test

import (
	"runtime"
	"testing"

	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/scenario"
	"churnlb/internal/sim"
	"churnlb/internal/xrand"
)

// BenchmarkInitialEpisode times the t = 0 balancing episode from booking
// to landing, by hand and gated nowhere: sim.Start — LBP-2's initial
// balance, every transfer sent, every per-node process armed — on the
// churn workload's cluster (10³ hotspot nodes, 10⁵ tasks, MTBF 20 s,
// MTTR 2 s, lazy churn), then every event up to the one that lands the
// last batch in flight, then Finish, which parks the arena for the next
// iteration. ns/transfer and B/transfer divide the whole iteration by the
// episode's transfer count.
//
//	go test -run NONE -bench BenchmarkInitialEpisode -benchtime 20x ./internal/sim/
func BenchmarkInitialEpisode(b *testing.B) {
	sc, err := scenario.Generate(scenario.Spec{Kind: scenario.Hotspot, N: 1000, TotalLoad: 100_000, Seed: 1, MTBF: 20, MTTR: 2})
	if err != nil {
		b.Fatal(err)
	}
	pol := policy.LBP2{K: 1}
	view := model.SnapshotView{State: model.State{Queues: sc.InitialLoad, Up: sc.InitialUp}}
	transfers := len(pol.Initial(view, sc.Params))
	if transfers == 0 {
		b.Fatal("the cluster has no initial episode")
	}
	realisation := func(k uint64) {
		opt := sc.Options(pol, xrand.NewStream(1, k))
		opt.LazyChurn = true
		r, err := sim.Start(opt)
		if err != nil {
			b.Fatal(err)
		}
		for sim.InFlight(r) > 0 {
			r.ProcessNext()
		}
		if _, err := r.Finish(); err != nil {
			b.Fatal(err)
		}
	}
	realisation(0) // the arena every iteration reuses
	b.ResetTimer()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		realisation(uint64(i) + 1)
	}
	elapsed := b.Elapsed()
	runtime.ReadMemStats(&after)
	per := float64(b.N) * float64(transfers)
	b.ReportMetric(float64(elapsed.Nanoseconds())/per, "ns/transfer")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per, "B/transfer")
	b.ReportMetric(float64(transfers), "transfers/op")
}
