package markov

import (
	"math"
	"testing"

	"churnlb/internal/model"
)

func TestCDFIsDistributionFunction(t *testing.T) {
	cs, _ := NewCDFSolver(model.PaperBaseline())
	r, err := cs.CDFLBP1(25, 15, 0, 0.4, BothUp, 200, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for i, f := range r.F {
		if f < 0 || f > 1 {
			t.Fatalf("F[%d] = %v out of [0,1]", i, f)
		}
		if f < prev-1e-9 {
			t.Fatalf("F not monotone at step %d: %v < %v", i, f, prev)
		}
		prev = f
	}
	if r.F[0] > 1e-12 {
		t.Fatalf("F(0) = %v, want 0 (work pending at t=0)", r.F[0])
	}
	if last := r.F[len(r.F)-1]; last < 0.99 {
		t.Fatalf("F(tMax) = %v, want ≈1", last)
	}
}

// The mean recovered from ∫(1−F)dt must agree with the eq.-4 solver.
func TestCDFMeanMatchesMeanSolver(t *testing.T) {
	p := model.PaperBaseline()
	ms, _ := NewMeanSolver(p)
	cs, _ := NewCDFSolver(p)
	cases := []struct {
		m0, m1, sender int
		k              float64
	}{
		{30, 0, 0, 0.5},
		{25, 15, 0, 0.35},
		{10, 20, 1, 0.25},
		{12, 12, 0, 0},
	}
	for _, c := range cases {
		want := must(ms.MeanLBP1(c.m0, c.m1, c.sender, c.k))
		r, err := cs.CDFLBP1(c.m0, c.m1, c.sender, c.k, BothUp, want*5, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		got := r.Mean()
		if rel := math.Abs(got-want) / want; rel > 0.01 {
			t.Errorf("(%d,%d,K=%v): CDF mean %v vs solver %v (rel %.4f)", c.m0, c.m1, c.k, got, want, rel)
		}
	}
}

// Paper Fig. 5 claim: the failure CDF is stochastically dominated by the
// no-failure CDF (F_fail(t) ≤ F_nofail(t) for all t).
func TestCDFFailureDominatedByNoFailure(t *testing.T) {
	p := model.PaperBaseline()
	cs, _ := NewCDFSolver(p)
	csNF, _ := NewCDFSolver(p.NoFailure())
	for _, w := range [][2]int{{50, 0}, {25, 50}} {
		ms, _ := NewMeanSolver(p)
		opt := must(ms.OptimizeLBP1(w[0], w[1]))
		fail, err := cs.CDFLBP1(w[0], w[1], opt.Sender, opt.K, BothUp, 250, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		noFail, err := csNF.CDFLBP1(w[0], w[1], opt.Sender, opt.K, BothUp, 250, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fail.F {
			if fail.F[i] > noFail.F[i]+1e-6 {
				t.Fatalf("workload %v: F_fail(%v)=%v exceeds F_nofail=%v",
					w, float64(i)*fail.Step, fail.F[i], noFail.F[i])
			}
		}
	}
}

// Exact closed form: one task at one node, no failure, no transfer:
// F(t) = 1 − e^{−λd·t}.
func TestCDFSingleTaskExponential(t *testing.T) {
	p := model.PaperBaseline().NoFailure()
	cs, _ := NewCDFSolver(p)
	r, err := cs.CDFWithTransfer(1, 0, Transfer{}, BothUp, 10, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(r.F); i += 100 {
		tt := float64(i) * r.Step
		want := 1 - math.Exp(-p.ProcRate[0]*tt)
		if math.Abs(r.F[i]-want) > 1e-6 {
			t.Fatalf("F(%v) = %v, want %v", tt, r.F[i], want)
		}
	}
}

// Two tasks at one node: Erlang-2 CDF = 1 − e^{−λt}(1+λt).
func TestCDFErlangTwo(t *testing.T) {
	p := model.PaperBaseline().NoFailure()
	cs, _ := NewCDFSolver(p)
	r, err := cs.CDFWithTransfer(0, 2, Transfer{}, BothUp, 10, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	lam := p.ProcRate[1]
	for i := 0; i < len(r.F); i += 50 {
		tt := float64(i) * r.Step
		want := 1 - math.Exp(-lam*tt)*(1+lam*tt)
		if math.Abs(r.F[i]-want) > 1e-6 {
			t.Fatalf("F(%v) = %v, want %v", tt, r.F[i], want)
		}
	}
}

// With a pure in-flight load (nothing queued) and no failures, completion
// is the transfer delay plus an Erlang service: mean = δL + L/λd. Checks
// the transfer-arrival coupling into the hat block.
func TestCDFTransferCouplingMean(t *testing.T) {
	p := model.PaperBaseline().NoFailure()
	cs, _ := NewCDFSolver(p)
	const l = 10
	r, err := cs.CDFWithTransfer(0, 0, Transfer{To: 1, Tasks: l}, BothUp, 60, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	want := p.DelayPerTask*float64(l) + float64(l)/p.ProcRate[1]
	if got := r.Mean(); math.Abs(got-want) > 0.01*want {
		t.Fatalf("mean %v, want %v", got, want)
	}
}

func TestCDFInstantaneousTransfer(t *testing.T) {
	p := model.PaperBaseline().NoFailure().WithDelay(0)
	cs, _ := NewCDFSolver(p)
	r, err := cs.CDFWithTransfer(0, 0, Transfer{To: 0, Tasks: 1}, BothUp, 10, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// Equivalent to one task already queued at node 0.
	want := 1 / p.ProcRate[0]
	if got := r.Mean(); math.Abs(got-want) > 0.01*want {
		t.Fatalf("mean %v, want %v", got, want)
	}
}

func TestCDFStartStateMatters(t *testing.T) {
	p := model.PaperBaseline()
	cs, _ := NewCDFSolver(p)
	up, err := cs.CDFWithTransfer(5, 5, Transfer{}, BothUp, 120, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	down, err := cs.CDFWithTransfer(5, 5, Transfer{}, BothDown, 120, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Starting dead can never be stochastically faster.
	for i := range up.F {
		if down.F[i] > up.F[i]+1e-6 {
			t.Fatalf("down-start dominates up-start at step %d", i)
		}
	}
	if down.Mean() <= up.Mean() {
		t.Fatalf("down-start mean %v should exceed up-start %v", down.Mean(), up.Mean())
	}
}

func TestCDFArgumentValidation(t *testing.T) {
	cs, _ := NewCDFSolver(model.PaperBaseline())
	if _, err := cs.CDFWithTransfer(-1, 0, Transfer{}, BothUp, 10, 0.1); err == nil {
		t.Fatal("negative queue accepted")
	}
	if _, err := cs.CDFWithTransfer(1, 0, Transfer{}, BothUp, 0, 0.1); err == nil {
		t.Fatal("zero tMax accepted")
	}
	if _, err := cs.CDFWithTransfer(1, 0, Transfer{To: 5, Tasks: 2}, BothUp, 10, 0.1); err == nil {
		t.Fatal("invalid receiver accepted")
	}
	if _, err := cs.CDFLBP1(1, 0, 7, 0.5, BothUp, 10, 0.1); err == nil {
		t.Fatal("invalid sender accepted")
	}
}

func TestCDFAtInterpolates(t *testing.T) {
	r := &CDFResult{Step: 1, F: []float64{0, 0.5, 1}}
	if v := r.At(0.5); math.Abs(v-0.25) > 1e-12 {
		t.Fatalf("At(0.5) = %v", v)
	}
	if v := r.At(-1); v != 0 {
		t.Fatalf("At(-1) = %v", v)
	}
	if v := r.At(10); v != 1 {
		t.Fatalf("At(10) = %v", v)
	}
}

func TestCDFQuantile(t *testing.T) {
	r := &CDFResult{Step: 2, F: []float64{0, 0.4, 0.9, 1}}
	if q := r.Quantile(0.5); q != 4 {
		t.Fatalf("Quantile(0.5) = %v, want 4", q)
	}
	if q := r.Quantile(0.99999); q != 6 {
		t.Fatalf("Quantile(~1) = %v, want 6", q)
	}
}

func TestCDFTimes(t *testing.T) {
	r := &CDFResult{Step: 0.5, F: []float64{0, 0, 0}}
	ts := r.Times()
	if len(ts) != 3 || ts[2] != 1.0 {
		t.Fatalf("Times = %v", ts)
	}
}

// Stiff case: tiny transfers make λ_transfer huge; the solver must remain
// stable by subdividing the step.
func TestCDFStiffTransferStable(t *testing.T) {
	p := model.PaperBaseline().WithDelay(0.01) // L=1 -> rate 100/s
	cs, _ := NewCDFSolver(p)
	r, err := cs.CDFWithTransfer(3, 2, Transfer{To: 1, Tasks: 1}, BothUp, 60, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range r.F {
		if math.IsNaN(f) || f < 0 || f > 1 {
			t.Fatalf("instability at step %d: %v", i, f)
		}
	}
	if r.F[len(r.F)-1] < 0.95 {
		t.Fatalf("F(60) = %v, want near 1", r.F[len(r.F)-1])
	}
}

// Failures add variance: the completion law of the baseline scenario is
// wider than its no-failure counterpart's. The moments come from the
// CDF's increments, F(t_i) − F(t_{i−1}) at the cell midpoint.
func TestFailureInflatesVariance(t *testing.T) {
	variance := func(p model.Params) float64 {
		cs, _ := NewCDFSolver(p)
		r, err := cs.CDFLBP1(20, 10, 0, 0.35, BothUp, 200, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if f := r.F[len(r.F)-1]; f < 0.999 {
			t.Fatalf("F(200) = %v: the grid truncates the law", f)
		}
		var m1, m2 float64
		for i := 1; i < len(r.F); i++ {
			tm := (float64(i) - 0.5) * r.Step
			d := r.F[i] - r.F[i-1]
			m1 += tm * d
			m2 += tm * tm * d
		}
		return m2 - m1*m1
	}
	withF, noF := variance(model.PaperBaseline()), variance(model.PaperBaseline().NoFailure())
	if !(noF > 0 && withF > noF) {
		t.Fatalf("failure variance %v not above no-failure %v", withF, noF)
	}
}

func BenchmarkCDF50Tasks(b *testing.B) {
	cs, _ := NewCDFSolver(model.PaperBaseline())
	for i := 0; i < b.N; i++ {
		if _, err := cs.CDFLBP1(50, 0, 0, 0.6, BothUp, 200, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}
