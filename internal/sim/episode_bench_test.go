package sim

import (
	"runtime"
	"testing"

	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/xrand"
)

// hotspotOptions rebuilds the shape of internal/scenario's hotspot family,
// which this package's own tests cannot import: n nodes with processing
// rates spread ±30 % around 1.5 tasks/s and churn rates ±50 % around
// 1/mtbf and 1/mttr, the first hot of them holding 80 % of the tasks and
// the rest the remainder, each share spread evenly; LBP-2 at K = 1.
func hotspotOptions(n, hot, tasks int, mtbf, mttr float64, seed uint64) Options {
	gen := xrand.NewStream(seed, 0x4070)
	p := model.Params{
		ProcRate:     make([]float64, n),
		FailRate:     make([]float64, n),
		RecRate:      make([]float64, n),
		DelayPerTask: 0.02,
	}
	for i := 0; i < n; i++ {
		p.ProcRate[i] = 1.5 * (0.7 + 0.6*gen.Float64())
		p.FailRate[i] = (0.5 + gen.Float64()) / mtbf
		p.RecRate[i] = (0.5 + gen.Float64()) / mttr
	}
	load := make([]int, n)
	spread := func(dst []int, total int) {
		for i := range dst {
			dst[i] = total / len(dst)
			if i < total%len(dst) {
				dst[i]++
			}
		}
	}
	spread(load[:hot], tasks*8/10)
	spread(load[hot:], tasks-tasks*8/10)
	return Options{Params: p, Policy: policy.LBP2{K: 1}, InitialLoad: load, Rand: xrand.NewStream(seed, 1)}
}

// initialTransfers counts the transfers of opt's t = 0 episode.
func initialTransfers(opt Options) int {
	view := model.SnapshotView{State: model.State{Queues: opt.InitialLoad}}
	return len(policy.CollectInitial(opt.Policy, view, opt.Params))
}

// TestColdStartBytesPerTransfer bounds what one cold start of a
// realisation allocates (the idle arenas dropped first) per transfer of
// its t = 0 episode, on a cluster where that episode dwarfs the rest of
// the state: 2·10⁴ hotspot nodes, 10⁶ tasks on 5 hot nodes, LBP-2, so
// 99 995 transfers, each hot node shipping to every other node. The bytes
// cover all of start — the hot array, the scheduler's records and queue,
// the flight table, the open batch and the radix sort's scratch array —
// divided by the transfer count. The episode streams from the policy into
// the scheduler, so it keeps no transfer record: it retains a 16-byte run
// event, the sort's scratch (more than 2¹⁶ events, the episode sorts as
// two sub-runs, so 8 B) and an 8-byte flight row per transfer, and the
// batch and the flight table are reserved to exactly the episode by a
// counting pass; the measured 79.6 B per transfer (92.6 with 64-byte
// event records, 100.6 with those and a scratch of the whole batch), with
// the per-node state, sits well under the
// bound, which an episode that grows its batch by append (about 260 B
// per transfer with 24-byte run events, on half this cluster) breaks.
func TestColdStartBytesPerTransfer(t *testing.T) {
	const bound = 170
	opt := hotspotOptions(20_000, 5, 1_000_000, 200, 30, 1)
	transfers := initialTransfers(opt)
	dropIdleArenas()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := start(opt)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	s.finish()
	dropIdleArenas()
	per := float64(after.TotalAlloc-before.TotalAlloc) / float64(transfers)
	t.Logf("cold start: %d transfers, %.1f B per transfer", transfers, per)
	if transfers < 99_000 || per > bound {
		t.Errorf("cold start allocated %.1f B per transfer of a %d-transfer episode, want at most %d", per, transfers, bound)
	}
}

// TestIdleArenaBytesPerTransfer bounds what a parked arena keeps alive
// per transfer of the t = 0 episode that sized it, on
// TestColdStartBytesPerTransfer's cluster: the live heap after one
// realisation, its arena parked, less the live heap once the idle list is
// dropped. The episode streams into the scheduler, so of the episode the
// arena holds only the batch's 16-byte run events, the sort's scratch —
// the episode sorts as two sub-runs over a scratch of one, 8 B a transfer
// — and the 8-byte flight row, 32 B per transfer; the per-node state (the
// hot array, the scheduler's 40-byte records and calendar) brings the
// reading to 69.5 B. 64-byte records in 18 KiB slabs read 82.4, which the
// bound, midway, fails, as does a scratch of the whole batch (90.4 with
// those records) and an arena that also kept the episode's 24-byte
// transfer list (117.0, on half this cluster).
func TestIdleArenaBytesPerTransfer(t *testing.T) {
	const bound = 76
	opt := hotspotOptions(20_000, 5, 1_000_000, 200, 30, 1)
	transfers := initialTransfers(opt)
	liveHeap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	dropIdleArenas()
	if _, err := Run(opt); err != nil {
		t.Fatal(err)
	}
	parked := liveHeap()
	dropIdleArenas()
	dropped := liveHeap()
	runtime.KeepAlive(opt)
	per := (float64(parked) - float64(dropped)) / float64(transfers)
	t.Logf("idle arena: %d transfers, %.1f B per transfer", transfers, per)
	if transfers < 99_000 || per > bound {
		t.Errorf("a parked arena holds %.1f B per transfer of a %d-transfer episode, want at most %d", per, transfers, bound)
	}
}

// BenchmarkInitialEpisode times the t = 0 balancing episode from booking
// to landing, by hand and gated nowhere: a realisation's start — LBP-2's
// initial balance, every transfer sent, every per-node process armed — on
// the churn workload's cluster shape (10³ hotspot nodes, 10⁵ tasks, MTBF
// 20 s, MTTR 2 s, lazy churn), then every event up to the one that lands
// the last batch in flight, then finish, which parks the arena for the
// next iteration. ns/transfer and B/transfer divide the whole iteration by
// the episode's transfer count.
//
//	go test -run NONE -bench BenchmarkInitialEpisode -benchtime 20x ./internal/sim/
func BenchmarkInitialEpisode(b *testing.B) {
	base := hotspotOptions(1000, 50, 100_000, 20, 2, 1)
	transfers := initialTransfers(base)
	if transfers == 0 {
		b.Fatal("the cluster has no initial episode")
	}
	realisation := func(k uint64) {
		opt := base
		opt.Rand = xrand.NewStream(1, k)
		opt.LazyChurn = true
		s, err := start(opt)
		if err != nil {
			b.Fatal(err)
		}
		for s.inFlight > 0 {
			s.sched.ProcessNext()
		}
		s.finish()
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
