package sim_test

// An external test package: the scenario generator imports sim, so the
// engine's own package cannot build the hotspot cluster it is timed on.

import (
	"fmt"
	"testing"

	"churnlb/internal/policy"
	"churnlb/internal/scenario"
	"churnlb/internal/sim"
	"churnlb/internal/xrand"
)

// BenchmarkSharded is the one timing ROADMAP item 5 (one engine or two)
// still needs, run by hand and gated nowhere: a hotspot realisation with a
// five-node hot core under LBP-2 on the sequential engine (calendar queue,
// lazy churn — the fastest sequential configuration) and on the
// domain-sharded engine (calendar queue; domains always run eager timers)
// at 1, 2 and 4 workers. Results are bit-identical across the shard rows
// (TestShardedShardCountInvariance); these rows only time them. The README's
// "Parallel realisation" table is this benchmark's output.
//
//	go test -run NONE -bench BenchmarkSharded -benchtime 3x ./internal/sim/
func BenchmarkSharded(b *testing.B) {
	for _, size := range []struct {
		label    string
		n, tasks int
	}{
		{"n=1e4", 10_000, 1_000_000},
		{"n=1e5", 100_000, 5_000_000},
	} {
		sc, err := scenario.Generate(scenario.Spec{Kind: scenario.Hotspot, N: size.n, TotalLoad: size.tasks, Seed: 1, HotspotNodes: 5})
		if err != nil {
			b.Fatal(err)
		}
		for _, shards := range []int{0, 1, 2, 4} {
			name := fmt.Sprintf("%s/shards=%d", size.label, shards)
			if shards == 0 {
				name = size.label + "/seq"
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					opt := sc.Options(policy.LBP2{K: 1}, xrand.NewStream(1, uint64(i)))
					opt.LazyChurn = shards == 0
					opt.Shards = shards
					res, err := sim.Run(opt)
					if err != nil {
						b.Fatal(err)
					}
					if res.CompletionTime <= 0 {
						b.Fatal("realisation did not run")
					}
				}
				b.ReportMetric(float64(size.tasks), "tasks/op")
			})
		}
	}
}
