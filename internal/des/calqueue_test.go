package des

import (
	"math"
	"testing"
	"unsafe"

	"churnlb/internal/xrand"
)

// TestEventLayout pins the record size the event doc comment promises: 64
// bytes, one cache line, so a slab of eventSlabSize records is a whole
// number of lines and, starting on a line boundary (eventSlab's pad),
// puts every record on exactly one. Growing the record is not forbidden —
// but it must be a conscious decision, because every chain walk of the
// calendar queue touches one record per hop and a 10⁵-node realisation
// holds ~2·10⁵ of them. The twin of sim's TestNodeHotLayout.
func TestEventLayout(t *testing.T) {
	const line = 64
	if got := unsafe.Sizeof(event{}); got != line {
		t.Fatalf("event is %d bytes, want %d — update the layout docs if this growth is intentional", got, line)
	}
	if got := eventSlabSize * unsafe.Sizeof(event{}); got%line != 0 {
		t.Fatalf("a slab is %d bytes, not a whole number of %d-byte lines", got, line)
	}
	s := New()
	s.At(0, func() {})
	if addr := uintptr(unsafe.Pointer(&s.slabs[0][0])); addr%line != 0 {
		t.Errorf("a slab starts at %#x, off a %d-byte line boundary", addr, line)
	}
}

// TestCalendarHoldRebuilds is the hold model of the closed workloads: 2·10⁴
// near timers (mean 1) and 2·10⁴ far ones (mean 200), each re-armed when
// it fires, for 10⁶ steps, at 20 seeds. The width must settle: at most 5
// same-size width rebuilds per seed, where the 8-pop average the width
// rule replaced took up to 12. Grows and shrinks follow the population
// alone: the fill grows the array ⌈log₂⌉ of the population over the
// smallest array's capacity times, the hold neither grows nor shrinks it,
// and a drain with no re-arms shrinks it back to the smallest array as
// many times.
func TestCalendarHoldRebuilds(t *testing.T) {
	const (
		near, far = 20_000, 20_000
		nearMean  = 1.0
		farMean   = 200.0
		steps     = 1_000_000
		maxWidth  = 5
	)
	swing := int(math.Ceil(math.Log2(float64(near+far) / (2 * calMinBuckets))))
	for seed := uint64(0); seed < 20; seed++ {
		s := NewWithQueue(QueueCalendar)
		q := s.q.(*calQueue)
		rng := xrand.NewStream(seed, 0x401D)
		rearm := func(kind, arg int32) {
			mean := nearMean
			if kind == 1 {
				mean = farMean
			}
			s.AfterIndexed(rng.ExpMean(mean), kind, arg)
		}
		for i := 0; i < near; i++ {
			rearm(0, 0)
		}
		for i := 0; i < far; i++ {
			rearm(1, 0)
		}
		s.SetDispatcher(rearm)
		for i := 0; i < steps; i++ {
			s.ProcessNext()
		}
		hold, rethreaded := q.widthRebuilds, q.rethreaded
		if hold > maxWidth {
			t.Errorf("seed %d: %d width rebuilds over %d steps (%d records rethreaded), want at most %d",
				seed, hold, steps, rethreaded, maxWidth)
		}
		if q.grows != swing || q.shrinks != 0 {
			t.Errorf("seed %d: %d grows and %d shrinks by the end of the hold, want %d and 0", seed, q.grows, q.shrinks, swing)
		}
		s.SetDispatcher(func(int32, int32) {})
		for s.ProcessNext() {
		}
		if q.shrinks != swing || len(q.buckets) != calMinBuckets {
			t.Errorf("seed %d: the drain shrank %d times to %d buckets, want %d times to %d",
				seed, q.shrinks, len(q.buckets), swing, calMinBuckets)
		}
		t.Logf("seed %d: fill and hold: %d width rebuilds, %d grows, %d records rethreaded; with the drain: %d width rebuilds, %d shrinks, %d rethreaded, %d fallbacks",
			seed, hold, q.grows, rethreaded, q.widthRebuilds, q.shrinks, q.rethreaded, q.fallbacks)
	}
}
