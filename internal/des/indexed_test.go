package des

import (
	"testing"

	"churnlb/internal/xrand"
)

// TestIndexedDispatch proves events fire through the dispatcher with
// their (kind, arg) intact, in the exact (time, seq) order, on every
// backend.
func TestIndexedDispatch(t *testing.T) {
	forEachKind(t, func(t *testing.T, s *Scheduler) {
		type fired struct {
			kind, arg int32
			at        float64
		}
		var got []fired
		s.SetDispatcher(func(kind, arg int32) {
			got = append(got, fired{kind, arg, s.Now()})
		})
		s.AtIndexed(3, 1, 10)
		s.AtIndexed(2, 4, 40)
		s.AtIndexed(2, 2, 20) // same time as the event before: later seq
		s.AtIndexed(1, 3, 30)
		for s.ProcessNext() {
		}
		want := []fired{{3, 30, 1}, {4, 40, 2}, {2, 20, 2}, {1, 10, 3}}
		if len(got) != len(want) {
			t.Fatalf("fired %d events, want %d", len(got), len(want))
		}
		for i, w := range want {
			if got[i] != w {
				t.Fatalf("event %d = %+v, want %+v", i, got[i], w)
			}
		}
	})
}

// TestIndexedCancelAndReuse drives cancellation and pooled-record reuse:
// a cancelled event never reaches the dispatcher, a stale handle stays
// inert after its record is reused, and a reused record fires with the
// (kind, arg) of its new event, not its old one's.
func TestIndexedCancelAndReuse(t *testing.T) {
	forEachKind(t, func(t *testing.T, s *Scheduler) {
		var got []int32
		s.SetDispatcher(func(kind, arg int32) { got = append(got, kind, arg) })
		h := s.AfterIndexed(1, 7, 7)
		h.Cancel()
		if h.Active() {
			t.Fatal("cancelled handle still active")
		}
		// The freed record is reused by the next event; the stale handle
		// must not cancel it.
		h2 := s.AfterIndexed(2, 8, 8)
		h.Cancel()
		if !h2.Active() {
			t.Fatal("stale handle cancelled the reused record")
		}
		for s.ProcessNext() {
		}
		if len(got) != 2 || got[0] != 8 || got[1] != 8 {
			t.Fatalf("fired %v, want only (8, 8)", got)
		}
		// A fired record reused by another event fires as that event.
		s.AfterIndexed(1, 9, 9)
		h2.Cancel() // stale: fired
		for s.ProcessNext() {
		}
		if len(got) != 4 || got[2] != 9 || got[3] != 9 {
			t.Fatalf("after reuse fired %v, want (8, 8) then (9, 9)", got)
		}
	})
}

// TestStepPrimitives checks the shared-clock decomposition directly:
// PeekNextTime agrees with the time ProcessNext then advances to, never
// advancing the clock itself, and HasPending tracks the live count —
// under a randomized mix of events and cancellations on both backends.
func TestStepPrimitives(t *testing.T) {
	forEachKind(t, func(t *testing.T, s *Scheduler) {
		rng := xrand.New(7)
		s.SetDispatcher(func(kind, arg int32) {})
		var handles []Handle
		for i := 0; i < 300; i++ {
			handles = append(handles, s.AtIndexed(rng.Float64()*50, int32(i%2), int32(i)))
		}
		for i, h := range handles {
			if i%5 == 0 {
				h.Cancel()
			}
		}
		fired := 0
		for s.HasPending() {
			peek, ok := s.PeekNextTime()
			if !ok {
				t.Fatal("HasPending true but PeekNextTime not ok")
			}
			if now := s.Now(); now > peek {
				t.Fatalf("peeked time %v precedes clock %v", peek, now)
			}
			if s.Now() != 0 && fired == 0 {
				t.Fatal("peek advanced the clock")
			}
			if !s.ProcessNext() {
				t.Fatal("HasPending true but ProcessNext found nothing")
			}
			if s.Now() != peek {
				t.Fatalf("ProcessNext advanced to %v, peek said %v", s.Now(), peek)
			}
			fired++
		}
		if _, ok := s.PeekNextTime(); ok {
			t.Fatal("PeekNextTime ok on drained queue")
		}
		if s.ProcessNext() {
			t.Fatal("ProcessNext fired on drained queue")
		}
		if want := 300 - 300/5; fired != want {
			t.Fatalf("fired %d events, want %d", fired, want)
		}
	})
}

// TestSharedClockTwoSchedulers drives two schedulers the way a sharded
// realisation would: repeatedly peek both, process one event on the
// scheduler owning the earlier time (ties to the first), and require the
// merged fire sequence to be globally time-ordered and complete.
func TestSharedClockTwoSchedulers(t *testing.T) {
	a, b := NewWithQueue(QueueHeap), NewWithQueue(QueueHeap)
	var merged []float64
	ra, rb := record(a), record(b)
	rng := xrand.New(21)
	total := 0
	for i := 0; i < 100; i++ {
		tt := rng.Float64() * 30
		src := ra
		if i%2 == 1 {
			src = rb
		}
		src.at(tt, func() { merged = append(merged, tt) })
		total++
	}
	for {
		ta, oka := a.PeekNextTime()
		tb, okb := b.PeekNextTime()
		switch {
		case !oka && !okb:
		case oka && (!okb || ta <= tb):
			a.ProcessNext()
			continue
		default:
			b.ProcessNext()
			continue
		}
		break
	}
	if len(merged) != total {
		t.Fatalf("merged %d events, want %d", len(merged), total)
	}
	for i := 1; i < len(merged); i++ {
		if merged[i] < merged[i-1] {
			t.Fatalf("merged order regressed at %d: %v < %v", i, merged[i], merged[i-1])
		}
	}
}
