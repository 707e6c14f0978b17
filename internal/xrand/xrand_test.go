package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds produced %d identical words in 1000", same)
	}
}

func TestStreamsIndependentOfEachOther(t *testing.T) {
	// Streams for consecutive indices must not be shifted copies.
	s0 := NewStream(7, 0)
	s1 := NewStream(7, 1)
	var w0, w1 [64]uint64
	for i := range w0 {
		w0[i] = s0.Uint64()
		w1[i] = s1.Uint64()
	}
	for lag := 0; lag < 8; lag++ {
		matches := 0
		for i := 0; i+lag < len(w0); i++ {
			if w0[i+lag] == w1[i] {
				matches++
			}
		}
		if matches > 0 {
			t.Fatalf("streams overlap at lag %d (%d matches)", lag, matches)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestExpMoments(t *testing.T) {
	r := New(5)
	const rate = 1.86
	const n = 400000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := r.Exp(rate)
		if x < 0 {
			t.Fatalf("negative exponential variate %v", x)
		}
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-1/rate) > 0.01/rate {
		t.Fatalf("Exp mean = %v, want %v", mean, 1/rate)
	}
	if math.Abs(variance-1/(rate*rate)) > 0.05/(rate*rate) {
		t.Fatalf("Exp variance = %v, want %v", variance, 1/(rate*rate))
	}
}

func TestExpMeanMatchesExp(t *testing.T) {
	a, b := New(9), New(9)
	for i := 0; i < 1000; i++ {
		x, y := a.Exp(2.5), b.ExpMean(0.4)
		if math.Abs(x-y) > 1e-12 {
			t.Fatalf("Exp(2.5) and ExpMean(0.4) diverged: %v vs %v", x, y)
		}
	}
}

func TestExpMemorylessQuantiles(t *testing.T) {
	// P(X > median) should be 1/2 with median = ln2/rate.
	r := New(6)
	const rate = 0.05
	med := math.Ln2 / rate
	over := 0
	const n = 200000
	for i := 0; i < n; i++ {
		if r.Exp(rate) > med {
			over++
		}
	}
	frac := float64(over) / n
	if math.Abs(frac-0.5) > 0.005 {
		t.Fatalf("P(X>median) = %v, want ~0.5", frac)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(7)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < n/10-n/50 || c > n/10+n/50 {
			t.Fatalf("Intn(10) unbalanced: count[%d] = %d", v, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpPanicsOnNonPositiveRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestNormalMoments(t *testing.T) {
	r := New(8)
	const n = 400000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := r.Normal()
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("Normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("Normal variance = %v, want ~1", variance)
	}
}

func TestWeibullShapeOneIsExponential(t *testing.T) {
	a, b := New(13), New(13)
	for i := 0; i < 1000; i++ {
		w := a.Weibull(1, 2.0)
		e := b.ExpMean(2.0)
		if math.Abs(w-e) > 1e-9 {
			t.Fatalf("Weibull(1,2) != ExpMean(2): %v vs %v", w, e)
		}
	}
}

func TestMul64AgainstBig(t *testing.T) {
	cases := []struct{ a, b uint64 }{
		{0, 0}, {1, 1}, {math.MaxUint64, math.MaxUint64},
		{0xdeadbeefcafebabe, 0x123456789abcdef0},
		{1 << 63, 2},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		// Verify via decomposition: a*b mod 2^64 must equal lo.
		if lo != c.a*c.b {
			t.Fatalf("mul64(%x,%x) lo = %x, want %x", c.a, c.b, lo, c.a*c.b)
		}
		// hi checked against 128-bit schoolbook recomputation.
		const mask = 1<<32 - 1
		a0, a1 := c.a&mask, c.a>>32
		b0, b1 := c.b&mask, c.b>>32
		w0 := a0 * b0
		tt := a1*b0 + w0>>32
		w1 := tt&mask + a0*b1
		wantHi := a1*b1 + tt>>32 + w1>>32
		if hi != wantHi {
			t.Fatalf("mul64(%x,%x) hi = %x, want %x", c.a, c.b, hi, wantHi)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkExp(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Exp(1.08)
	}
	_ = sink
}
