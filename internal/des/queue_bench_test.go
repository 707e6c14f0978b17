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
	var fn func()
	fn = func() { s.After(rng.ExpMean(1), fn) }
	for i := 0; i < pending; i++ {
		s.After(rng.ExpMean(1), fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkSchedulerPending's HeapN* / WheelN* rows time one
// schedule+fire cycle against a standing 2N-timer population on each
// backend — the numbers behind the README scheduler-cost table. A flat
// Wheel line against a growing Heap line is the point of the calendar
// queue; the N = 2…32 rows are the small populations where the heap
// still wins, which is why the simulator keeps it below 16 nodes.
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
	}
}
