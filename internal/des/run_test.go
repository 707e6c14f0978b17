package des

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// TestTimeKeyOrdersLikeFloats: the radix key's unsigned order is the
// float order — negatives, zeros of both signs, subnormals, the largest
// finite values and the infinities — and −0 and +0, which compare equal,
// share one key, so a batch booking both at t = 0 fires them in seq
// order, as the queue would.
func TestTimeKeyOrdersLikeFloats(t *testing.T) {
	xs := []float64{
		math.Inf(-1), -math.MaxFloat64, -1e300, -2, -1, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1e-300, 0.5, 1, 1 + 1e-16, 2,
		1e300, math.MaxFloat64, math.Inf(1),
	}
	for i, a := range xs {
		for _, b := range xs[i:] {
			ka, kb := timeKey(a), timeKey(b)
			if (a < b) != (ka < kb) || (a == b) != (ka == kb) {
				t.Errorf("timeKey(%v) = %#x, timeKey(%v) = %#x: not in float order", a, ka, b, kb)
			}
		}
	}

	for _, kind := range QueueKinds() {
		s := NewWithQueue(kind)
		var got []int32
		s.SetDispatcher(func(_, arg int32) { got = append(got, arg) })
		for i := int32(0); i < 6; i++ {
			s.BatchIndexed(math.Copysign(0, float64(i%2)-0.5), 0, i) // −0, +0, −0, …
		}
		s.CommitBatch()
		for s.ProcessNext() {
		}
		for i, arg := range got {
			if arg != int32(i) {
				t.Fatalf("%v: events booked at ±0 fired in order %v, want seq order", kind, got)
			}
		}
	}
}

// TestBatchKeepsEachEventsKind: a batch stores its kind once, so the kind
// must come back on every path an event can fire by — from the run, and
// from the queue for a batch committed behind a pending run — beside
// plain queue events of other kinds, in the (time, seq) order AtIndexed
// would have given them all.
func TestBatchKeepsEachEventsKind(t *testing.T) {
	for _, kind := range QueueKinds() {
		s := NewWithQueue(kind)
		type fired struct{ kind, arg int32 }
		var got []fired
		s.SetDispatcher(func(kind, arg int32) { got = append(got, fired{kind, arg}) })
		s.BatchIndexed(1, 3, 0)
		s.AtIndexed(1, 1, 1)
		s.BatchIndexed(1, 3, 2)
		s.CommitBatch() // the run
		s.BatchIndexed(1, 5, 3)
		s.BatchIndexed(0.5, 5, 4)
		s.CommitBatch() // behind the pending run: onto the queue
		s.AtIndexed(1, 1, 5)
		for s.ProcessNext() {
		}
		want := []fired{{5, 4}, {3, 0}, {1, 1}, {3, 2}, {5, 3}, {1, 5}}
		if !slices.Equal(got, want) {
			t.Errorf("%v: fired (kind, arg) %v, want %v", kind, got, want)
		}
	}
}

// TestBatchPanics: a second kind in one open batch, and a batch whose
// sequence offsets would pass 2³², panic instead of firing an event as
// the wrong kind or out of order; the largest offset, 2³² − 1, books.
func TestBatchPanics(t *testing.T) {
	for _, tc := range []struct {
		want string
		book func(s *Scheduler)
	}{
		{"kind", func(s *Scheduler) {
			s.BatchIndexed(1, 0, 0)
			s.BatchIndexed(1, 1, 1)
		}},
		{"2³²", func(s *Scheduler) {
			s.BatchIndexed(1, 0, 0)
			s.seq += math.MaxUint32 - 2 // as if that many events were booked on the queue meanwhile
			s.BatchIndexed(1, 0, 1)     // offset 2³² − 1
			if off := s.batch[1].seq; off != math.MaxUint32 {
				t.Fatalf("second event booked at offset %d, want 2³² − 1", off)
			}
			s.BatchIndexed(1, 0, 2)
		}},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, tc.want) {
					t.Errorf("booking panicked with %q, want a panic naming %q", msg, tc.want)
				}
			}()
			tc.book(New())
		}()
	}
}
