// Package stats provides the statistical estimation toolkit used across
// the reproduction: streaming moments (Welford), confidence intervals,
// histograms / empirical densities, empirical CDFs, maximum-likelihood
// exponential fits with Kolmogorov–Smirnov goodness measures, and ordinary
// least-squares linear fits (Fig. 2's mean-delay-versus-load line).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Welford accumulates count, mean and variance in a numerically stable
// single pass. The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds a sample into the accumulator.
func (w *Welford) Add(x float64) {
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of samples seen.
func (w *Welford) N() int { return w.n }

// Mean returns the sample mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance.
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n == 0 {
		return 0
	}
	return w.Std() / math.Sqrt(float64(w.n))
}

// Min and Max return the extremes (0 for empty accumulators).
func (w *Welford) Min() float64 { return w.min }
func (w *Welford) Max() float64 { return w.max }

// CI95 returns the half-width of the 95% confidence interval of the mean
// using Student's t for small n and the normal quantile for n >= 30.
func (w *Welford) CI95() float64 {
	if w.n < 2 {
		return math.Inf(1)
	}
	return tQuantile975(w.n-1) * w.StdErr()
}

// tQuantile975 approximates the 0.975 quantile of Student's t with df
// degrees of freedom. Exact table entries for small df, Cornish–Fisher
// style correction beyond, converging to z = 1.959964.
func tQuantile975(df int) float64 {
	table := []float64{
		math.Inf(1), 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365,
		2.306, 2.262, 2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
		2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060,
		2.056, 2.052, 2.048, 2.045, 2.042,
	}
	if df < len(table) {
		return table[df]
	}
	z := 1.9599639845400545
	d := float64(df)
	// Asymptotic expansion of t quantile around z.
	return z + (z*z*z+z)/(4*d) + (5*z*z*z*z*z+16*z*z*z+3*z)/(96*d*d)
}

// Summary is a value snapshot of a Welford accumulator.
type Summary struct {
	N    int
	Mean float64
	Std  float64
	CI95 float64
	Min  float64
	Max  float64
}

// Summary freezes the accumulator into a Summary.
func (w *Welford) Summary() Summary {
	return Summary{N: w.N(), Mean: w.Mean(), Std: w.Std(), CI95: w.CI95(), Min: w.Min(), Max: w.Max()}
}

// Summarize computes a Summary from raw samples.
func Summarize(xs []float64) Summary {
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return w.Summary()
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g ±%.3g (std %.3g)", s.N, s.Mean, s.CI95, s.Std)
}

// Histogram is a fixed-bin histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	N      int
	// Underflow/Overflow count samples outside [Lo, Hi).
	Underflow, Overflow int
}

// NewHistogram builds a histogram with the given bounds and bin count.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if !(hi > lo) || bins <= 0 {
		panic("stats: invalid histogram bounds")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records a sample.
func (h *Histogram) Add(x float64) {
	h.N++
	if x < h.Lo {
		h.Underflow++
		return
	}
	if x >= h.Hi {
		h.Overflow++
		return
	}
	i := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
	if i == len(h.Counts) { // guard FP edge at x == Hi-ulp
		i--
	}
	h.Counts[i]++
}

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 { return (h.Hi - h.Lo) / float64(len(h.Counts)) }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.BinWidth()
}

// Density returns the empirical pdf estimate: count/(N·binWidth) per bin.
// The integral of the returned step function over [Lo, Hi) equals the
// in-range fraction of samples.
func (h *Histogram) Density() []float64 {
	d := make([]float64, len(h.Counts))
	if h.N == 0 {
		return d
	}
	norm := 1.0 / (float64(h.N) * h.BinWidth())
	for i, c := range h.Counts {
		d[i] = float64(c) * norm
	}
	return d
}

// ExpFit is a maximum-likelihood exponential fit.
type ExpFit struct {
	Rate float64 // λ = 1/mean
	Mean float64
	N    int
	// KS is the Kolmogorov–Smirnov distance between the empirical CDF and
	// the fitted exponential CDF; small values indicate a good fit.
	KS float64
}

// FitExponential fits Exp(λ) to positive samples by MLE and computes the
// KS goodness-of-fit distance.
func FitExponential(samples []float64) (ExpFit, error) {
	if len(samples) == 0 {
		return ExpFit{}, fmt.Errorf("stats: FitExponential needs samples")
	}
	sum := 0.0
	for _, x := range samples {
		if x < 0 {
			return ExpFit{}, fmt.Errorf("stats: FitExponential with negative sample %v", x)
		}
		sum += x
	}
	mean := sum / float64(len(samples))
	if mean <= 0 {
		return ExpFit{}, fmt.Errorf("stats: FitExponential with zero mean")
	}
	rate := 1 / mean
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	ks := 0.0
	n := float64(len(sorted))
	for i, x := range sorted {
		f := 1 - math.Exp(-rate*x)
		lo := float64(i) / n
		hi := float64(i+1) / n
		if d := math.Abs(f - lo); d > ks {
			ks = d
		}
		if d := math.Abs(f - hi); d > ks {
			ks = d
		}
	}
	return ExpFit{Rate: rate, Mean: mean, N: len(samples), KS: ks}, nil
}

// LinearFit is an ordinary least-squares fit y = Slope·x + Intercept.
type LinearFit struct {
	Slope, Intercept float64
	R2               float64
	N                int
}

// FitLinear computes the OLS line through (x, y) pairs.
func FitLinear(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return LinearFit{}, fmt.Errorf("stats: FitLinear needs >= 2 equal-length slices")
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, fmt.Errorf("stats: FitLinear with constant x")
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx, N: len(xs)}
	if syy > 0 {
		fit.R2 = sxy * sxy / (sxx * syy)
	} else {
		fit.R2 = 1
	}
	return fit, nil
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Pearson computes the Pearson correlation coefficient between two
// equal-length series. Returns NaN when the lengths differ, fewer than
// two points are given, or either series is constant (zero variance).
// The calibration harness uses it to score how well the simulator
// tracks the live daemon's window-by-window shape.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// MAPE computes the mean absolute percentage error of got against ref,
// as a fraction (0.07 = 7%). Reference points too close to zero are
// skipped — a percentage error against ~0 is unbounded noise, not
// signal. Returns NaN when no usable points remain or lengths differ.
func MAPE(ref, got []float64) float64 {
	if len(ref) != len(got) {
		return math.NaN()
	}
	const eps = 1e-12
	sum, n := 0.0, 0
	for i := range ref {
		if math.Abs(ref[i]) < eps {
			continue
		}
		sum += math.Abs(got[i]-ref[i]) / math.Abs(ref[i])
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
