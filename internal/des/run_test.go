package des

import (
	"math"
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
