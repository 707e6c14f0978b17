package des

import (
	"sort"
	"testing"
	"testing/quick"

	"churnlb/internal/xrand"
)

// recorder is the tests' dispatcher. Every event is booked through
// AtIndexed — the only way to book one — under an arg naming what the
// test wants done when it fires; the recorder logs each firing (arg and
// clock) and then runs that action, if the test gave one.
type recorder struct {
	s     *Scheduler
	fired []firing
	acts  []func()
}

// firing is one logged event: the arg it was booked under and the clock
// when it fired.
type firing struct {
	arg int32
	at  float64
}

// record installs a recorder as s's dispatcher.
func record(s *Scheduler) *recorder {
	r := &recorder{s: s}
	s.SetDispatcher(func(_, arg int32) {
		r.fired = append(r.fired, firing{arg, s.Now()})
		if act := r.acts[arg]; act != nil {
			act()
		}
	})
	return r
}

// at books an event at absolute time t that runs act (nil: only log).
func (r *recorder) at(t float64, act func()) Handle {
	r.acts = append(r.acts, act)
	return r.s.AtIndexed(t, 0, int32(len(r.acts)-1))
}

// after books an event after delay d that runs act (nil: only log).
func (r *recorder) after(d float64, act func()) Handle {
	r.acts = append(r.acts, act)
	return r.s.AfterIndexed(d, 0, int32(len(r.acts)-1))
}

// QueueKinds lists every backend in declaration order.
func QueueKinds() []QueueKind { return []QueueKind{QueueHeap, QueueCalendar} }

// forEachKind runs a scheduler test once per queue backend: the Scheduler
// contract (ordering, cancellation, stale handles, horizons) must hold
// identically on every EventQueue.
func forEachKind(t *testing.T, f func(t *testing.T, s *Scheduler)) {
	for _, kind := range QueueKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) { f(t, NewWithQueue(kind)) })
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	forEachKind(t, func(t *testing.T, s *Scheduler) {
		r := record(s)
		rng := xrand.New(1)
		times := make([]float64, 200)
		for i := range times {
			times[i] = rng.Float64() * 100
			r.at(times[i], nil)
		}
		for s.ProcessNext() {
		}
		var order []float64
		for _, f := range r.fired {
			order = append(order, f.at)
		}
		if len(order) != len(times) {
			t.Fatalf("fired %d of %d", len(order), len(times))
		}
		if !sort.Float64sAreSorted(order) {
			t.Fatal("events fired out of order")
		}
		sort.Float64s(times)
		for i := range times {
			if times[i] != order[i] {
				t.Fatal("event set mismatch")
			}
		}
	})
}

func TestTieBreakByInsertion(t *testing.T) {
	forEachKind(t, func(t *testing.T, s *Scheduler) {
		r := record(s)
		for i := 0; i < 10; i++ {
			r.at(5.0, nil)
		}
		for s.ProcessNext() {
		}
		for i, f := range r.fired {
			if f.arg != int32(i) {
				t.Fatalf("same-time events reordered: %v", r.fired)
			}
		}
	})
}

func TestCancel(t *testing.T) {
	forEachKind(t, func(t *testing.T, s *Scheduler) {
		r := record(s)
		fired := false
		h := r.at(1, func() { fired = true })
		ran := false
		r.at(2, func() { ran = true })
		h.Cancel()
		for s.ProcessNext() {
		}
		if fired {
			t.Fatal("cancelled event fired")
		}
		if !ran {
			t.Fatal("surviving event did not fire")
		}
	})
}

func TestCancelIsIdempotentAndZeroSafe(t *testing.T) {
	forEachKind(t, func(t *testing.T, s *Scheduler) {
		r := record(s)
		h := r.at(1, nil)
		h.Cancel()
		h.Cancel()
		var zero Handle
		zero.Cancel() // must not panic
		if zero.Active() {
			t.Fatal("zero handle reports active")
		}
		for s.ProcessNext() {
		}
	})
}

// Cancellation removes the event from the queue immediately instead of
// leaving a tombstone: the live-event count drops at Cancel time.
func TestCancelRemovesEagerly(t *testing.T) {
	forEachKind(t, func(t *testing.T, s *Scheduler) {
		r := record(s)
		h := r.at(1, nil)
		r.at(2, nil)
		if s.Len() != 2 {
			t.Fatalf("Len = %d, want 2", s.Len())
		}
		h.Cancel()
		if s.Len() != 1 {
			t.Fatalf("Len after cancel = %d, want 1 (eager removal)", s.Len())
		}
		if h.Active() {
			t.Fatal("cancelled handle reports active")
		}
	})
}

// A stale handle must never affect the event that reuses its pooled
// record: cancelling after the event fired (and the record was recycled
// into a new event) is a no-op — on every queue backend, which each
// manage the recycled record's position fields their own way.
func TestStaleHandleCannotCancelReusedRecord(t *testing.T) {
	forEachKind(t, func(t *testing.T, s *Scheduler) {
		r := record(s)
		old := r.at(1, nil)
		s.ProcessNext() // fires and recycles old's record
		fired := false
		fresh := r.at(2, func() { fired = true })
		old.Cancel() // stale: must not touch the reused record
		if !fresh.Active() {
			t.Fatal("stale cancel killed the reused event")
		}
		if old.Active() {
			t.Fatal("stale handle reports active after its record was reused")
		}
		for s.ProcessNext() {
		}
		if !fired {
			t.Fatal("reused event did not fire")
		}
	})
}

// A cancelled event's record, once reused, must equally be immune to the
// original handle — the cancel-then-recycle path, distinct from the
// fire-then-recycle path above.
func TestStaleHandleAfterCancelAndReuse(t *testing.T) {
	forEachKind(t, func(t *testing.T, s *Scheduler) {
		r := record(s)
		old := r.at(5, nil)
		old.Cancel() // recycles the record without firing
		fired := false
		fresh := r.at(2, func() { fired = true })
		old.Cancel() // stale: the record now belongs to fresh
		if old.Active() {
			t.Fatal("cancelled handle reports active after reuse")
		}
		if !fresh.Active() {
			t.Fatal("stale cancel killed the event that reused the record")
		}
		for s.ProcessNext() {
		}
		if !fired {
			t.Fatal("reused event did not fire")
		}
	})
}

func TestClockAdvances(t *testing.T) {
	forEachKind(t, func(t *testing.T, s *Scheduler) {
		r := record(s)
		r.at(3.5, func() {
			if s.Now() != 3.5 {
				t.Fatalf("clock %v inside event at 3.5", s.Now())
			}
		})
		s.ProcessNext()
		if s.Now() != 3.5 {
			t.Fatalf("clock %v after event", s.Now())
		}
	})
}

func TestSchedulingFromWithinEvents(t *testing.T) {
	forEachKind(t, func(t *testing.T, s *Scheduler) {
		r := record(s)
		var seq []string
		r.at(1, func() {
			seq = append(seq, "a")
			r.after(1, func() { seq = append(seq, "c") })
			r.after(0.5, func() { seq = append(seq, "b") })
		})
		for s.ProcessNext() {
		}
		want := "abc"
		got := ""
		for _, v := range seq {
			got += v
		}
		if got != want {
			t.Fatalf("sequence %q, want %q", got, want)
		}
	})
}

func TestAfterClampsNegativeDelay(t *testing.T) {
	forEachKind(t, func(t *testing.T, s *Scheduler) {
		r := record(s)
		r.at(2, func() {
			r.after(-5, nil)
		})
		s.ProcessNext()
		if !s.ProcessNext() {
			t.Fatal("clamped event not scheduled")
		}
		if s.Now() != 2 {
			t.Fatalf("clamped event fired at %v, want 2", s.Now())
		}
	})
}

func TestPastSchedulingPanics(t *testing.T) {
	forEachKind(t, func(t *testing.T, s *Scheduler) {
		r := record(s)
		r.at(5, nil)
		s.ProcessNext()
		defer func() {
			if recover() == nil {
				t.Fatal("scheduling into the past did not panic")
			}
		}()
		r.at(1, nil)
	})
}

func TestRunUpToHorizon(t *testing.T) {
	forEachKind(t, func(t *testing.T, s *Scheduler) {
		r := record(s)
		var fired []float64
		for _, tt := range []float64{1, 2, 3, 7, 9} {
			tt := tt
			r.at(tt, func() { fired = append(fired, tt) })
		}
		s.Run(5)
		if len(fired) != 3 {
			t.Fatalf("fired %v, want events <= 5", fired)
		}
		if s.Now() != 5 {
			t.Fatalf("clock %v, want horizon 5", s.Now())
		}
		s.Run(20)
		if len(fired) != 5 {
			t.Fatalf("remaining events not fired: %v", fired)
		}
	})
}

// Run must fire events scheduled at exactly tMax by other firing events —
// including by an event itself firing at tMax — within the same call: the
// horizon check re-reads the queue minimum after every fired event, so a
// chain landing on the horizon cannot be stranded for a later Run.
func TestRunFiresEventsScheduledAtHorizon(t *testing.T) {
	forEachKind(t, func(t *testing.T, s *Scheduler) {
		r := record(s)
		const tMax = 10.0
		var fired []string
		r.at(5, func() {
			fired = append(fired, "a")
			r.at(tMax, func() { // lands exactly on the horizon
				fired = append(fired, "b")
				r.at(tMax, func() { // scheduled BY an event firing at tMax
					fired = append(fired, "c")
					r.at(tMax+1e-9, func() { fired = append(fired, "d") }) // beyond
				})
			})
		})
		s.Run(tMax)
		got := ""
		for _, v := range fired {
			got += v
		}
		if got != "abc" {
			t.Fatalf("Run(%v) fired %q, want \"abc\" (d is past the horizon)", tMax, got)
		}
		if s.Now() != tMax {
			t.Fatalf("clock %v after Run, want %v", s.Now(), tMax)
		}
		if s.Len() != 1 {
			t.Fatalf("%d events left, want 1 (the one beyond the horizon)", s.Len())
		}
		s.Run(tMax + 1)
		if len(fired) != 4 {
			t.Fatalf("event beyond the horizon never fired: %v", fired)
		}
	})
}

func TestFiredCounter(t *testing.T) {
	forEachKind(t, func(t *testing.T, s *Scheduler) {
		r := record(s)
		for i := 0; i < 5; i++ {
			r.at(float64(i), nil)
		}
		r.at(10, nil).Cancel()
		for s.ProcessNext() {
		}
		if s.Fired() != 5 {
			t.Fatalf("Fired = %d, want 5 (cancelled events excluded)", s.Fired())
		}
	})
}

// Property: with random schedules and random cancellations, surviving
// events fire exactly once, in order — on every backend.
func TestHeapProperty(t *testing.T) {
	for _, kind := range QueueKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			f := func(seed uint16) bool {
				rng := xrand.NewStream(uint64(seed), 9)
				s := NewWithQueue(kind)
				r := record(s)
				n := 50 + rng.Intn(200)
				handles := make([]Handle, n)
				firedAt := make([]float64, 0, n)
				for i := 0; i < n; i++ {
					tt := rng.Float64() * 1000
					handles[i] = r.at(tt, func() { firedAt = append(firedAt, tt) })
				}
				cancelled := 0
				for i := 0; i < n; i++ {
					if rng.Float64() < 0.3 {
						handles[i].Cancel()
						cancelled++
					}
				}
				for s.ProcessNext() {
				}
				if len(firedAt) != n-cancelled {
					return false
				}
				return sort.Float64sAreSorted(firedAt)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	for _, kind := range QueueKinds() {
		b.Run(kind.String(), func(b *testing.B) {
			s := NewWithQueue(kind)
			s.SetDispatcher(func(_, _ int32) {})
			rng := xrand.New(1)
			for i := 0; i < b.N; i++ {
				s.AfterIndexed(rng.Float64(), 0, 0)
				s.ProcessNext()
			}
		})
	}
}
