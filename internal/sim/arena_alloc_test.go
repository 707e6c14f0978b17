package sim_test

import (
	"runtime"
	"testing"

	"churnlb/internal/policy"
	"churnlb/internal/scenario"
	"churnlb/internal/sim"
	"churnlb/internal/xrand"
)

// churnRealisation returns the options of realisation k of a churn block
// shaped like the benchmark's `closed-churn-1e3`: hotspot cluster, MTBF
// 20 s, MTTR 2 s, LBP-2 at K = 1, calendar queue, lazy churn.
func churnRealisation(tb testing.TB, nodes, tasks int) func(k uint64) sim.Options {
	sc, err := scenario.Generate(scenario.Spec{Kind: scenario.Hotspot, N: nodes, TotalLoad: tasks, Seed: 1, MTBF: 20, MTTR: 2})
	if err != nil {
		tb.Fatal(err)
	}
	return func(k uint64) sim.Options {
		opt := sc.Options(policy.LBP2{K: 1}, xrand.NewStream(1, k))
		opt.LazyChurn = true
		return opt
	}
}

// TestArenaLaterRunsAllocateATenth is the allocation regression test of
// the realisation arena: after one realisation of the benchmark's toy
// churn block (100 nodes, 2 000 tasks) the second and the third allocate
// at most a tenth of the bytes the first did. (The serving layer's twin,
// which covers the ledger's task deques, is in internal/serve.)
func TestArenaLaterRunsAllocateATenth(t *testing.T) {
	churn := churnRealisation(t, 100, 2000)
	allocated := func(k uint64) uint64 {
		opt := churn(k)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := sim.Run(opt); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	sim.DropIdleArenas()
	first := allocated(0)
	for k := uint64(1); k <= 2; k++ {
		if later := allocated(k); later > first/10 {
			t.Errorf("realisation %d allocated %d B, the first %d B: want at most a tenth", k, later, first)
		}
	}
	sim.DropIdleArenas()
}

// BenchmarkRealisationReuse times one realisation of the `closed-churn-1e3`
// block shape (10³ hotspot nodes, 10⁵ tasks) on a fresh arena — the idle
// list emptied before every iteration — and on the arena the previous
// iteration left, by hand and gated nowhere; B/op is the number the
// benchmark's alloc_bytes_per_task multiplies by 10⁵.
//
//	go test -run NONE -bench BenchmarkRealisationReuse -benchtime 20x ./internal/sim/
func BenchmarkRealisationReuse(b *testing.B) {
	realisation := churnRealisation(b, 1000, 100_000)
	for _, reused := range []bool{false, true} {
		name := "fresh"
		if reused {
			name = "reused"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			sim.DropIdleArenas()
			if reused { // warm the arena outside the timer
				if _, err := sim.Run(realisation(0)); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
			}
			for i := 0; i < b.N; i++ {
				if !reused {
					sim.DropIdleArenas()
				}
				if _, err := sim.Run(realisation(uint64(i) + 1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	sim.DropIdleArenas()
}
