package stats

import (
	"math"
	"testing"
	"testing/quick"

	"churnlb/internal/xrand"
)

func TestWelfordAgainstDirect(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if w.N() != len(xs) {
		t.Fatalf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", w.Mean())
	}
	// Unbiased variance of this classic dataset is 32/7.
	if math.Abs(w.Var()-32.0/7.0) > 1e-12 {
		t.Fatalf("var = %v, want %v", w.Var(), 32.0/7.0)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("min/max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordMatchesTwoPassProperty(t *testing.T) {
	f := func(seed uint16, nRaw uint8) bool {
		n := int(nRaw%100) + 2
		rng := xrand.NewStream(uint64(seed), 3)
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = rng.Float64()*1000 - 500
			w.Add(xs[i])
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		varSum := 0.0
		for _, x := range xs {
			varSum += (x - mean) * (x - mean)
		}
		variance := varSum / float64(n-1)
		return math.Abs(w.Mean()-mean) < 1e-9 && math.Abs(w.Var()-variance) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCI95KnownTValues(t *testing.T) {
	// df=1 -> 12.706, df=30+ -> approx z.
	if v := tQuantile975(1); math.Abs(v-12.706) > 1e-9 {
		t.Fatalf("t(1) = %v", v)
	}
	if v := tQuantile975(1000); math.Abs(v-1.9623) > 0.001 {
		t.Fatalf("t(1000) = %v, want ~1.962", v)
	}
	if v := tQuantile975(40); math.Abs(v-2.0211) > 0.002 {
		t.Fatalf("t(40) = %v, want ~2.021", v)
	}
}

func TestSummaryCoversTrueMean(t *testing.T) {
	// CI95 from n=10000 exponential samples should cover the true mean.
	rng := xrand.New(21)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = rng.ExpMean(7.5)
	}
	s := Summarize(xs)
	if math.Abs(s.Mean-7.5) > 3*s.CI95 {
		t.Fatalf("summary %v does not cover mean 7.5", s)
	}
}

func TestHistogramDensityIntegratesToOne(t *testing.T) {
	rng := xrand.New(22)
	h := NewHistogram(0, 10, 50)
	const n = 100000
	for i := 0; i < n; i++ {
		h.Add(rng.Float64() * 10)
	}
	sum := 0.0
	for _, d := range h.Density() {
		sum += d * h.BinWidth()
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("density integral = %v", sum)
	}
	if h.Underflow != 0 || h.Overflow != 0 {
		t.Fatalf("unexpected out-of-range counts %d/%d", h.Underflow, h.Overflow)
	}
}

func TestHistogramOutOfRange(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Add(-0.5)
	h.Add(1.5)
	h.Add(0.5)
	if h.Underflow != 1 || h.Overflow != 1 || h.N != 3 {
		t.Fatalf("under=%d over=%d n=%d", h.Underflow, h.Overflow, h.N)
	}
}

func TestHistogramBinCenters(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	if h.BinCenter(0) != 0.5 || h.BinCenter(9) != 9.5 {
		t.Fatalf("bin centers wrong: %v %v", h.BinCenter(0), h.BinCenter(9))
	}
}

func TestFitExponentialRecoversRate(t *testing.T) {
	rng := xrand.New(23)
	const rate = 1.86
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = rng.Exp(rate)
	}
	fit, err := FitExponential(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Rate-rate) > 0.03 {
		t.Fatalf("fitted rate %v, want %v", fit.Rate, rate)
	}
	if fit.KS > 0.01 {
		t.Fatalf("KS distance %v too large for a true exponential", fit.KS)
	}
}

func TestFitExponentialRejectsBadFit(t *testing.T) {
	// Uniform data is not exponential: KS should be clearly larger than
	// for genuine exponential data.
	rng := xrand.New(24)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.Float64() // uniform [0,1)
	}
	fit, err := FitExponential(xs)
	if err != nil {
		t.Fatal(err)
	}
	if fit.KS < 0.05 {
		t.Fatalf("KS = %v: uniform data should not look exponential", fit.KS)
	}
}

func TestFitExponentialErrors(t *testing.T) {
	if _, err := FitExponential(nil); err == nil {
		t.Fatal("empty fit should error")
	}
	if _, err := FitExponential([]float64{-1, 2}); err == nil {
		t.Fatal("negative samples should error")
	}
	if _, err := FitExponential([]float64{0, 0}); err == nil {
		t.Fatal("zero-mean samples should error")
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 2x + 1
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-12 || math.Abs(fit.Intercept-1) > 1e-12 {
		t.Fatalf("fit = %+v, want slope 2 intercept 1", fit)
	}
	if math.Abs(fit.R2-1) > 1e-12 {
		t.Fatalf("R2 = %v, want 1", fit.R2)
	}
}

func TestFitLinearNoisy(t *testing.T) {
	rng := xrand.New(25)
	n := 2000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i%100) + 1
		ys[i] = 0.02*xs[i] + 0.1*rng.Normal()
	}
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-0.02) > 0.002 {
		t.Fatalf("slope = %v, want ~0.02", fit.Slope)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1}); err == nil {
		t.Fatal("length-1 fit should error")
	}
	if _, err := FitLinear([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Fatal("constant-x fit should error")
	}
}

func TestMeanHelper(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean([1 2 3]) != 2")
	}
}

func TestPearson(t *testing.T) {
	if r := Pearson([]float64{1, 2, 3}, []float64{2, 4, 6}); math.Abs(r-1) > 1e-12 {
		t.Fatalf("perfect positive correlation: r = %v", r)
	}
	if r := Pearson([]float64{1, 2, 3}, []float64{6, 4, 2}); math.Abs(r+1) > 1e-12 {
		t.Fatalf("perfect negative correlation: r = %v", r)
	}
	if r := Pearson([]float64{1, 2, 3}, []float64{5, 5, 5}); !math.IsNaN(r) {
		t.Fatalf("constant series must be NaN, got %v", r)
	}
	if r := Pearson([]float64{1, 2}, []float64{1}); !math.IsNaN(r) {
		t.Fatalf("length mismatch must be NaN, got %v", r)
	}
	// Noisy but correlated.
	rng := xrand.New(7)
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = float64(i) + 10*rng.Float64()
	}
	if r := Pearson(xs, ys); r < 0.99 {
		t.Fatalf("strongly correlated series scored r = %v", r)
	}
}

func TestMAPE(t *testing.T) {
	if m := MAPE([]float64{10, 20}, []float64{11, 18}); math.Abs(m-0.1) > 1e-12 {
		t.Fatalf("MAPE = %v, want 0.1", m)
	}
	if m := MAPE([]float64{10, 0, 20}, []float64{11, 99, 18}); math.Abs(m-0.1) > 1e-12 {
		t.Fatalf("zero reference point not skipped: MAPE = %v", m)
	}
	if m := MAPE([]float64{0, 0}, []float64{1, 2}); !math.IsNaN(m) {
		t.Fatalf("all-zero reference must be NaN, got %v", m)
	}
	if m := MAPE([]float64{1}, []float64{1, 2}); !math.IsNaN(m) {
		t.Fatalf("length mismatch must be NaN, got %v", m)
	}
	if m := MAPE([]float64{5, 5}, []float64{5, 5}); m != 0 {
		t.Fatalf("identical series must be 0, got %v", m)
	}
}
