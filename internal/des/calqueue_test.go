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
	s.AtIndexed(0, 0, 0)
	if addr := uintptr(unsafe.Pointer(&s.slabs[0][0])); addr%line != 0 {
		t.Errorf("a slab starts at %#x, off a %d-byte line boundary", addr, line)
	}
}

// TestRunEventLayout pins the run event at 16 bytes: a t = 0 balancing
// episode books one per transfer into the open batch and the radix sort
// keeps a second array of them, so each byte here is two per transfer of
// the largest episode, and the sort moves every one of them per pass.
func TestRunEventLayout(t *testing.T) {
	if got := unsafe.Sizeof(runEvent{}); got != 16 {
		t.Fatalf("runEvent is %d bytes, want 16 — update the layout docs if this growth is intentional", got)
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
		t.Logf("seed %d: fill and hold: %d width rebuilds, %d grows, %d records rethreaded; with the drain: %d width rebuilds, %d shrinks, %d rethreaded, %d jumps",
			seed, hold, q.grows, rethreaded, q.widthRebuilds, q.shrinks, q.rethreaded, q.jumps)
	}
}

// TestCalendarFarTier runs TestCalendarHoldRebuilds' hold model at 5
// seeds and watches the far tier. After every pop the near tier must span
// between half a year and a year (vcur + nbuckets/2 ≤ farBound ≤ vcur +
// nbuckets), and the chain the scan sits on must hold only records in
// [vcur, farBound), so of one year; every 4096th pop checkTiers walks
// every chain and the far array the same way. The far tier must take the mean-200
// timers without making the sweeps carry the mean-1 ones: at most
// maxMigrated of the pushes may reach the chains through a sweep. The
// hold reads 0.045–0.151, as the width settles between 0.78 and 1.37
// times its target and the year between 2.6 and 4.5 s; a width at the
// band's lower edge would make the year 1.6 s and send e^-1.6 ≈ 0.2 of
// the mean-1 timers far. Then a drain without re-arms, once the mean-1
// timers are gone, leaves only mean-200 timers, and must reach them by
// jumping over the empty near tier: every pop that finds the near tier
// empty takes exactly one jump, no other pop takes one, and the drain
// takes at least one.
func TestCalendarFarTier(t *testing.T) {
	const (
		near, far   = 20_000, 20_000
		nearMean    = 1.0
		farMean     = 200.0
		steps       = 1_000_000
		walkEvery   = 4096
		maxMigrated = 0.2
	)
	for seed := uint64(0); seed < 5; seed++ {
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
		window := func(step int) {
			if nb := int64(len(q.buckets)); 2*(q.farBound-q.vcur) < nb || q.farBound-q.vcur > nb {
				t.Fatalf("seed %d, pop %d: farBound %d is %d buckets past the scan position, want between %d and %d",
					seed, step, q.farBound, q.farBound-q.vcur, nb/2, nb)
			}
			for e := q.buckets[int(q.vcur&q.mask)]; e != nil; e = e.next {
				if e.vb < q.vcur || e.vb >= q.farBound {
					t.Fatalf("seed %d, pop %d: the scan slot's chain holds vb %d, outside [%d, %d)",
						seed, step, e.vb, q.vcur, q.farBound)
				}
			}
			if step%walkEvery == 0 {
				checkTiers(t, q)
			}
		}
		for i := 0; i < steps; i++ {
			s.ProcessNext()
			window(i)
		}
		pushes := near + far + steps
		if m := float64(q.migrated) / float64(pushes); m > maxMigrated {
			t.Errorf("seed %d: sweeps linked %d far entries over %d pushes (%.3f per push), want at most %v",
				seed, q.migrated, pushes, m, maxMigrated)
		}
		t.Logf("seed %d: %d pushes, %d far (%.3f), %d sweeps linking %d (%.3f per push), resizes linked %d and sent %d far",
			seed, pushes, q.farPushes, float64(q.farPushes)/float64(pushes), q.sweeps, q.migrated,
			float64(q.migrated)/float64(pushes), q.toNear, q.toFar)

		s.SetDispatcher(func(int32, int32) {})
		jumps := q.jumps
		for i := steps; s.HasPending(); i++ {
			nearEmpty, j := q.count == q.far.n, q.jumps
			s.ProcessNext()
			if took := q.jumps - j; nearEmpty && took != 1 || !nearEmpty && took != 0 {
				t.Fatalf("seed %d, pop %d: %d jumps with the near tier empty: %v", seed, i, took, nearEmpty)
			}
			if s.HasPending() {
				window(i)
			}
		}
		if q.jumps == jumps {
			t.Errorf("seed %d: the drain reached the mean-200 timers without a jump", seed)
		}
		t.Logf("seed %d: the drain took %d jumps", seed, q.jumps-jumps)
	}
}
