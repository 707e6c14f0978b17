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

// TestColdStartBytesPerTransfer bounds what one cold sim.Start allocates
// (the idle arenas dropped first) per transfer of its t = 0 episode, on
// a cluster where that episode dwarfs the rest of the state: 10⁴ nodes,
// 5·10⁵ tasks on 5 hot nodes, LBP-2, so 49 995 transfers, each hot node
// shipping to every other node. The bytes cover all of Start — the hot
// array, the scheduler's records and queue, the policy's transfer list,
// the flight table, the open batch and the radix sort's scratch array —
// divided by the transfer count. The episode retains a 24-byte transfer,
// two 16-byte run events (the batch and the sort's scratch) and an 8-byte
// flight row per transfer, and the batch and the flight table are
// reserved to exactly the episode; the measured 125 B per transfer, with
// the per-node state, sits well under the bound, which an episode that
// grows its batch by append (about 260 B per transfer with 24-byte run
// events) breaks.
func TestColdStartBytesPerTransfer(t *testing.T) {
	const bound = 170
	sc, err := scenario.Generate(scenario.Spec{Kind: scenario.Hotspot, N: 10_000, TotalLoad: 500_000, Seed: 1, HotspotNodes: 5})
	if err != nil {
		t.Fatal(err)
	}
	pol := policy.LBP2{K: 1}
	view := model.SnapshotView{State: model.State{Queues: sc.InitialLoad, Up: sc.InitialUp}}
	transfers := len(pol.AppendInitial(nil, view, sc.Params))
	opt := sc.Options(pol, xrand.NewStream(1, 1))
	sim.DropIdleArenas()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := sim.Start(opt)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	sim.DropIdleArenas()
	per := float64(after.TotalAlloc-before.TotalAlloc) / float64(transfers)
	t.Logf("cold Start: %d transfers, %.1f B per transfer", transfers, per)
	if transfers < 49_000 || per > bound {
		t.Errorf("cold Start allocated %.1f B per transfer of a %d-transfer episode, want at most %d", per, transfers, bound)
	}
}
