package des

import (
	"fmt"
	"testing"

	"churnlb/internal/xrand"
)

// benchPending measures steady-state per-event cost with a standing
// population of ~2n pending exponential timers — the shape of a
// churn-heavy realisation, where every node holds a completion and a
// churn timer. Each iteration fires the minimum event and schedules a
// replacement, so the population stays fixed and ns/op is the cost of
// one schedule+fire cycle at that depth.
func benchPending(b *testing.B, kind QueueKind, n int) {
	s := NewWithQueue(kind)
	rng := xrand.New(1)
	pending := 2 * n
	s.SetDispatcher(func(kind, arg int32) { s.AfterIndexed(rng.ExpMean(1), kind, arg) })
	for i := 0; i < pending; i++ {
		s.AfterIndexed(rng.ExpMean(1), 0, int32(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ProcessNext()
	}
}

// benchMix is benchPending on the shape of the closed workloads: n near
// timers (mean 1) and n far ones (mean 200), each re-armed with its own
// mean when it fires. The far timers are what stretch the gap between
// pops now and then, so these rows show what the calendar's width rule
// costs.
func benchMix(b *testing.B, kind QueueKind, n int) {
	s := NewWithQueue(kind)
	rng := xrand.New(1)
	rearm := func(kind, arg int32) {
		mean := 1.0
		if kind == 1 {
			mean = 200
		}
		s.AfterIndexed(rng.ExpMean(mean), kind, arg)
	}
	s.SetDispatcher(rearm)
	for i := 0; i < n; i++ {
		rearm(0, 0)
		rearm(1, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ProcessNext()
	}
}

// BenchmarkSchedulerPending's HeapN* / WheelN* rows time one
// schedule+fire cycle against a standing 2N-timer population on each
// backend — the numbers behind the scheduler-cost table CHANGES.md
// records (moved there from README). A flat
// Wheel line against a growing Heap line is the point of the calendar
// queue; the N = 2…32 rows are the small populations where the heap
// still wins, which is why the simulator keeps it below 16 nodes. The
// HeapMixN* / WheelMixN* rows do the same on N near plus N far timers
// (benchMix).
func BenchmarkSchedulerPending(b *testing.B) {
	for _, kind := range QueueKinds() {
		name := "Heap"
		if kind == QueueCalendar {
			name = "Wheel"
		}
		for _, n := range []int{2, 4, 8, 16, 32, 100, 1000, 10000} {
			b.Run(fmt.Sprintf("%sN%d", name, n), func(b *testing.B) {
				benchPending(b, kind, n)
			})
		}
		for _, n := range []int{1000, 10000, 100000} {
			b.Run(fmt.Sprintf("%sMixN%d", name, n), func(b *testing.B) {
				benchMix(b, kind, n)
			})
		}
	}
}

// BenchmarkCommitBatch books a batch with BatchIndexed and commits it —
// the radix sort into a run — on a warm scheduler, at the sizes of the
// t = 0 balancing episodes of the benchmark's closed workloads (45 083
// transfers on `closed-churn-1e3`, about 4.88·10⁵ on `closed-scale-1e5`).
// Times follow the t = 0 delay law: a bundle of L tasks lands after an
// exponential delay of mean δ·L, here δ = 0.02 s and L uniform on 1…19.
// ns/event divides an iteration by the batch size; Reset, which keeps the
// arrays, empties the scheduler between iterations.
//
//	go test -run NONE -bench BenchmarkCommitBatch -benchtime 20x ./internal/des/
func BenchmarkCommitBatch(b *testing.B) {
	for _, n := range []int{45_083, 488_000} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			rng := xrand.New(1)
			times := make([]float64, n)
			for i := range times {
				times[i] = rng.ExpMean(0.02 * float64(1+rng.Intn(19)))
			}
			s := NewWithQueue(QueueCalendar)
			commit := func() {
				for i, t := range times {
					s.BatchIndexed(t, 0, int32(i))
				}
				s.CommitBatch()
				s.Reset()
			}
			commit() // the arrays every iteration reuses
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				commit()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
		})
	}
}
