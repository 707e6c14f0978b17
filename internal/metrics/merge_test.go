package metrics

import (
	"math"
	"testing"

	"churnlb/internal/xrand"
)

// TestP2MergeSmallIsExact merges sketches that still hold raw samples:
// the combined sketch must agree exactly with feeding every observation
// into one sketch.
func TestP2MergeSmallIsExact(t *testing.T) {
	a, b := NewP2(0.5), NewP2(0.5)
	for _, x := range []float64{3, 1} {
		a.Add(x)
	}
	for _, x := range []float64{2, 5, 4} {
		b.Add(x)
	}
	a.Merge(b)
	if a.N() != 5 {
		t.Fatalf("merged N = %d, want 5", a.N())
	}
	want := exactQuantile([]float64{3, 1, 2, 5, 4}, 0.5)
	if got := a.Value(); got != want {
		t.Fatalf("merged median %v, want exact %v", got, want)
	}
	// The empty-merge direction must be a no-op in both roles.
	e := NewP2(0.5)
	e.Merge(a)
	if e.Value() != a.Value() || e.N() != a.N() {
		t.Fatalf("empty.Merge(a) = (%v, %d), want a's (%v, %d)", e.Value(), e.N(), a.Value(), a.N())
	}
	a.Merge(NewP2(0.5))
	if a.N() != 5 {
		t.Fatalf("merging an empty sketch changed N to %d", a.N())
	}
}

// TestP2MergeApproximatesPooledQuantile pools two sketches built over
// clearly different distributions and checks the merged estimate against
// the exact quantile of the concatenated samples.
func TestP2MergeApproximatesPooledQuantile(t *testing.T) {
	rng := xrand.NewStream(5, 9)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		a, b := NewP2(q), NewP2(q)
		var all []float64
		for i := 0; i < 2000; i++ {
			x := rng.Float64() // uniform [0,1)
			a.Add(x)
			all = append(all, x)
		}
		for i := 0; i < 1000; i++ {
			x := 2 + 3*rng.Float64() // uniform [2,5)
			b.Add(x)
			all = append(all, x)
		}
		a.Merge(b)
		if a.N() != 3000 {
			t.Fatalf("q=%v: merged N = %d, want 3000", q, a.N())
		}
		got, want := a.Value(), exactQuantile(all, q)
		// The pooled distribution spans [0,5); a merged five-marker sketch
		// is approximate, so allow a coarse absolute tolerance.
		if math.Abs(got-want) > 0.5 {
			t.Errorf("q=%v: merged estimate %v, exact pooled %v", q, got, want)
		}
		// The sketch must stay usable: adding more observations after a
		// merge keeps markers ordered and the estimate finite.
		for i := 0; i < 100; i++ {
			a.Add(5 * rng.Float64())
		}
		if v := a.Value(); math.IsNaN(v) || v < 0 || v > 5 {
			t.Errorf("q=%v: post-merge estimate degenerated to %v", q, v)
		}
	}
}

// TestP2MergeDeterministic re-runs the same merge and requires
// bit-identical output — the property the parallel replication
// aggregator's fixed fold order relies on.
func TestP2MergeDeterministic(t *testing.T) {
	build := func() (*P2, *P2) {
		rng := xrand.NewStream(7, 2)
		a, b := NewP2(0.99), NewP2(0.99)
		for i := 0; i < 500; i++ {
			a.Add(rng.Float64())
			b.Add(10 * rng.Float64())
		}
		return a, b
	}
	a1, b1 := build()
	a2, b2 := build()
	a1.Merge(b1)
	a2.Merge(b2)
	if math.Float64bits(a1.Value()) != math.Float64bits(a2.Value()) {
		t.Fatalf("same merge diverged: %v vs %v", a1.Value(), a2.Value())
	}
}

// TestP2MergeQuantileMismatchPanics guards the misuse.
func TestP2MergeQuantileMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging sketches of different quantiles did not panic")
		}
	}()
	a, b := NewP2(0.5), NewP2(0.99)
	for i := 0; i < 10; i++ {
		a.Add(float64(i))
		b.Add(float64(i))
	}
	a.Merge(b)
}
