package markov

import (
	"math"
	"testing"
	"testing/quick"

	"churnlb/internal/model"
	"churnlb/internal/policy"
)

func TestWorkStateBits(t *testing.T) {
	if !BothUp.Up(0) || !BothUp.Up(1) {
		t.Fatal("BothUp must have both nodes up")
	}
	if BothDown.Up(0) || BothDown.Up(1) {
		t.Fatal("BothDown must have both nodes down")
	}
	if !Node0Up.Up(0) || Node0Up.Up(1) {
		t.Fatal("Node0Up wrong")
	}
	if Node1Up.Up(0) || !Node1Up.Up(1) {
		t.Fatal("Node1Up wrong")
	}
	if BothUp.WithDown(0) != Node1Up || BothUp.WithDown(1) != Node0Up {
		t.Fatal("WithDown wrong")
	}
	if BothDown.WithUp(0) != Node0Up || BothDown.WithUp(1) != Node1Up {
		t.Fatal("WithUp wrong")
	}
	if BothUp.String() != "(1,1)" || Node0Up.String() != "(1,0)" {
		t.Fatalf("String wrong: %v %v", BothUp, Node0Up)
	}
}

// The solvers take the simulator's model.Params: a well-posed system
// (model.Params.Validate) of exactly two nodes.
func TestValidate(t *testing.T) {
	if err := checkTwoNode(model.PaperBaseline()); err != nil {
		t.Fatalf("baseline params invalid: %v", err)
	}
	bad := model.PaperBaseline()
	bad.ProcRate[0] = 0
	if checkTwoNode(bad) == nil {
		t.Fatal("zero processing rate accepted")
	}
	bad = model.PaperBaseline()
	bad.FailRate[1] = 0.1
	bad.RecRate[1] = 0
	if checkTwoNode(bad) == nil {
		t.Fatal("failing node without recovery accepted")
	}
	bad = model.PaperBaseline()
	bad.DelayPerTask = -1
	if checkTwoNode(bad) == nil {
		t.Fatal("negative delay accepted")
	}
	bad = model.PaperBaseline()
	bad.FailRate[0] = math.NaN()
	if checkTwoNode(bad) == nil {
		t.Fatal("NaN rate accepted")
	}
	three := model.Params{
		ProcRate: []float64{1, 1, 1}, FailRate: []float64{0, 0, 0}, RecRate: []float64{0, 0, 0},
	}
	if checkTwoNode(three) == nil {
		t.Fatal("3-node params accepted")
	}
	for _, p := range []model.Params{bad, three} {
		if _, err := NewMeanSolver(p); err == nil {
			t.Fatal("NewMeanSolver accepted invalid params")
		}
		if _, err := NewCDFSolver(p); err == nil {
			t.Fatal("NewCDFSolver accepted invalid params")
		}
		if _, _, _, err := LBP2InitialGain(p, 10, 0); err == nil {
			t.Fatal("LBP2InitialGain accepted invalid params")
		}
	}
}

// A solver copies its parameters: changing the caller's slices afterwards
// leaves its answers alone, including ones on lattice points it has not
// solved yet.
func TestSolverOwnsItsParams(t *testing.T) {
	p := model.PaperBaseline()
	ms, _ := NewMeanSolver(p)
	cs, _ := NewCDFSolver(p)
	ms.MeanLBP1(10, 5, 0, 0.4)
	p.ProcRate[0], p.FailRate[1] = 100, 1
	fresh, _ := NewMeanSolver(model.PaperBaseline())
	if got, want := ms.MeanLBP1(12, 5, 0, 0.4), fresh.MeanLBP1(12, 5, 0, 0.4); got != want {
		t.Fatalf("mean solver follows the caller's slices: %v, want %v", got, want)
	}
	freshCDF, _ := NewCDFSolver(model.PaperBaseline())
	got, _ := cs.CDFLBP1(10, 5, 0, 0.4, BothUp, 20, 0.5)
	want, _ := freshCDF.CDFLBP1(10, 5, 0, 0.4, BothUp, 20, 0.5)
	for i := range want.F {
		if got.F[i] != want.F[i] {
			t.Fatalf("CDF solver follows the caller's slices at step %d", i)
		}
	}
}

// A lone node drains at the long-run rate the shared description gives
// it: E[T] = m / model.Params.EffectiveRate, i.e. m/λd stretched by the
// down time 1/availability brings.
func TestAvailability(t *testing.T) {
	p := model.PaperBaseline()
	ms, _ := NewMeanSolver(p)
	const m = 25
	for i, got := range []float64{ms.Hat(m, 0, BothUp), ms.Hat(0, m, BothUp)} {
		if want := m / p.EffectiveRate(i); math.Abs(got-want) > 1e-9*want {
			t.Fatalf("node %d alone: mean %v, want m/EffectiveRate = %v", i, got, want)
		}
	}
}

func TestTransferRate(t *testing.T) {
	p := model.PaperBaseline()
	if z := transferRate(p, 1); math.Abs(z-50) > 1e-9 {
		t.Fatalf("rate for 1 task = %v, want 50", z)
	}
	if z := transferRate(p, 100); math.Abs(z-0.5) > 1e-9 {
		t.Fatalf("rate for 100 tasks = %v, want 0.5", z)
	}
	if z := transferRate(p.WithDelay(0), 5); !math.IsInf(z, 1) {
		t.Fatalf("zero-delay rate = %v, want +Inf", z)
	}
}

// The solvers price the transfer LBP-1 makes: L = policy.RoundGain(K, m)
// tasks in flight from the sender, for every gain, hostile ones included.
func TestRoundGain(t *testing.T) {
	ms, _ := NewMeanSolver(model.PaperBaseline())
	for _, k := range []float64{0, 1, 0.35, 0.349, 0.5, 2, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		lbp1 := policy.LBP1{K: k, Sender: 0}.Initial(upView(20, 3), model.PaperBaseline())
		want := ms.Hat(20, 3, BothUp)
		if len(lbp1) == 1 {
			l := lbp1[0].Tasks
			want = ms.MeanWithTransfer(20-l, 3, Transfer{To: 1, Tasks: l})[BothUp]
		}
		if got := ms.MeanLBP1(20, 3, 0, k); got != want {
			t.Fatalf("K=%v: MeanLBP1 %v, LBP-1's transfer %v prices at %v", k, got, lbp1, want)
		}
	}
}

func upView(queues ...int) model.SnapshotView {
	return model.SnapshotView{State: model.State{Queues: queues, Up: []bool{true, true}}}
}

// Closed form: a single node that never fails drains m tasks in m/λd.
func TestMeanSingleNodeNoFailure(t *testing.T) {
	p := model.PaperBaseline().NoFailure()
	ms, err := NewMeanSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 5, 50, 200} {
		want := float64(m) / p.ProcRate[0]
		got := ms.Hat(m, 0, BothUp)
		if math.Abs(got-want) > 1e-9*want {
			t.Fatalf("Hat(%d,0) = %v, want %v", m, got, want)
		}
	}
}

// Closed form: one failing node alone completes m tasks in expectation
// m·(1+λf/λr)/λd (each unit of work is stretched by expected repair time).
func TestMeanSingleNodeWithFailure(t *testing.T) {
	p := model.PaperBaseline()
	ms, err := NewMeanSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 10, 100} {
		want := float64(m) * (1 + p.FailRate[0]/p.RecRate[0]) / p.ProcRate[0]
		got := ms.Hat(m, 0, BothUp)
		if math.Abs(got-want) > 1e-9*want {
			t.Fatalf("Hat(%d,0) with failure = %v, want %v", m, got, want)
		}
	}
	// Same check for node 1 alone.
	for _, m := range []int{1, 25} {
		want := float64(m) * (1 + p.FailRate[1]/p.RecRate[1]) / p.ProcRate[1]
		got := ms.Hat(0, m, BothUp)
		if math.Abs(got-want) > 1e-9*want {
			t.Fatalf("Hat(0,%d) with failure = %v, want %v", m, got, want)
		}
	}
}

// Closed form: starting from the dead state, the time to finish one task
// is 1/λr (recover) + (1+λf/λr)/λd.
func TestMeanStartsDown(t *testing.T) {
	p := model.PaperBaseline()
	ms, _ := NewMeanSolver(p)
	want := 1/p.RecRate[0] + (1+p.FailRate[0]/p.RecRate[0])/p.ProcRate[0]
	got := ms.Hat(1, 0, Node1Up) // node 0 down holding the task
	if math.Abs(got-want) > 1e-9*want {
		t.Fatalf("Hat(1,0) from down state = %v, want %v", got, want)
	}
}

func TestMeanEmptySystemIsZero(t *testing.T) {
	ms, _ := NewMeanSolver(model.PaperBaseline())
	for s := WorkState(0); s < 4; s++ {
		if v := ms.Hat(0, 0, s); v != 0 {
			t.Fatalf("Hat(0,0,%v) = %v, want 0", s, v)
		}
	}
}

// Monotonicity: adding a task anywhere cannot reduce the expected
// completion time.
func TestMeanMonotoneInWorkload(t *testing.T) {
	ms, _ := NewMeanSolver(model.PaperBaseline())
	for a := 0; a <= 20; a++ {
		for b := 0; b <= 20; b++ {
			v := ms.Hat(a, b, BothUp)
			if a > 0 && ms.Hat(a-1, b, BothUp) > v+1e-9 {
				t.Fatalf("mean not monotone at (%d,%d)", a, b)
			}
			if b > 0 && ms.Hat(a, b-1, BothUp) > v+1e-9 {
				t.Fatalf("mean not monotone at (%d,%d)", a, b)
			}
		}
	}
}

// Starting with a node down can only increase the expected completion time
// relative to both-up.
func TestMeanWorkStateOrdering(t *testing.T) {
	ms, _ := NewMeanSolver(model.PaperBaseline())
	for a := 1; a <= 15; a += 7 {
		for b := 1; b <= 15; b += 7 {
			up := ms.Hat(a, b, BothUp)
			for _, s := range []WorkState{Node0Up, Node1Up, BothDown} {
				if ms.Hat(a, b, s) < up-1e-9 {
					t.Fatalf("state %v faster than both-up at (%d,%d)", s, a, b)
				}
			}
		}
	}
}

// Paper Fig. 3: workload (100,60), the with-failure optimum is near
// K = 0.35 with mean ≈ 117 s, and the no-failure optimum is near K = 0.45;
// the failure optimum uses a strictly smaller gain.
func TestFig3OptimaMatchPaper(t *testing.T) {
	p := model.PaperBaseline()
	ms, _ := NewMeanSolver(p)
	opt := ms.OptimizeLBP1(100, 60)
	if opt.Sender != 0 {
		t.Fatalf("sender = %d, want node 0 (the loaded node)", opt.Sender)
	}
	if math.Abs(opt.K-0.35) > 0.05 {
		t.Fatalf("optimal K = %v, paper reports 0.35", opt.K)
	}
	if math.Abs(opt.Mean-117) > 3 {
		t.Fatalf("optimal mean = %v, paper reports ≈117 s", opt.Mean)
	}
	nf, _ := NewMeanSolver(p.NoFailure())
	optNF := nf.OptimizeLBP1(100, 60)
	if math.Abs(optNF.K-0.45) > 0.05 {
		t.Fatalf("no-failure optimal K = %v, paper reports 0.45", optNF.K)
	}
	if opt.K >= optNF.K {
		t.Fatalf("failure optimum K=%v must be below no-failure K=%v", opt.K, optNF.K)
	}
}

// Paper Table 1: theory values for the five workloads (±1%), including the
// near-equality of the symmetric pairs.
func TestTable1TheoryMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("lattice sweep is slow in -short mode")
	}
	p := model.PaperBaseline()
	ms, _ := NewMeanSolver(p)
	nf, _ := NewMeanSolver(p.NoFailure())
	cases := []struct {
		m0, m1    int
		wantMean  float64 // paper "Theo. Pred." column
		wantNoF   float64 // paper "Without Node Failure" column
		tolerance float64
	}{
		{200, 200, 274.95, 141.94, 0.01},
		{200, 100, 210.13, 106.93, 0.01},
		{100, 200, 210.13, 106.93, 0.01},
		{200, 50, 177.09, 89.32, 0.01},
		{50, 200, 177.09, 89.32, 0.01},
	}
	for _, c := range cases {
		opt := ms.OptimizeLBP1(c.m0, c.m1)
		if rel := math.Abs(opt.Mean-c.wantMean) / c.wantMean; rel > c.tolerance {
			t.Errorf("(%d,%d): mean %v vs paper %v (rel %.3f)", c.m0, c.m1, opt.Mean, c.wantMean, rel)
		}
		optNF := nf.OptimizeLBP1(c.m0, c.m1)
		if rel := math.Abs(optNF.Mean-c.wantNoF) / c.wantNoF; rel > c.tolerance {
			t.Errorf("(%d,%d): no-failure mean %v vs paper %v (rel %.3f)", c.m0, c.m1, optNF.Mean, c.wantNoF, rel)
		}
		// Sender is the heavier-loaded node (paper's observed rule).
		wantSender := 0
		if c.m1 > c.m0 {
			wantSender = 1
		}
		if c.m0 != c.m1 && opt.Sender != wantSender {
			t.Errorf("(%d,%d): sender %d, want %d", c.m0, c.m1, opt.Sender, wantSender)
		}
	}
}

func TestGainSweepShape(t *testing.T) {
	ms, _ := NewMeanSolver(model.PaperBaseline())
	ks, means := ms.GainSweep(100, 60, 0, 20)
	if len(ks) != 21 || len(means) != 21 {
		t.Fatalf("sweep sizes %d/%d", len(ks), len(means))
	}
	if ks[0] != 0 || ks[20] != 1 {
		t.Fatalf("grid endpoints %v..%v", ks[0], ks[20])
	}
	// The curve is unimodal-ish: endpoints exceed the interior minimum.
	minv := math.Inf(1)
	for _, m := range means {
		if m < minv {
			minv = m
		}
	}
	if !(means[0] > minv && means[20] > minv) {
		t.Fatalf("sweep endpoints do not dominate the minimum: %v ... %v (min %v)", means[0], means[20], minv)
	}
}

func TestMeanWithTransferAllStates(t *testing.T) {
	ms, _ := NewMeanSolver(model.PaperBaseline())
	v := ms.MeanWithTransfer(10, 5, Transfer{To: 1, Tasks: 8})
	// All four entries positive and both-up is fastest.
	for s, mu := range v {
		if mu <= 0 {
			t.Fatalf("state %d mean %v", s, mu)
		}
	}
	if v[BothUp] > v[BothDown] {
		t.Fatal("both-up must not be slower than both-down")
	}
}

func TestMeanWithTransferZeroTasksEqualsHat(t *testing.T) {
	ms, _ := NewMeanSolver(model.PaperBaseline())
	v := ms.MeanWithTransfer(12, 7, Transfer{})
	if v[BothUp] != ms.Hat(12, 7, BothUp) {
		t.Fatal("empty transfer must reduce to hat system")
	}
}

func TestZeroDelayTransferInstantaneous(t *testing.T) {
	p := model.PaperBaseline().WithDelay(0)
	ms, _ := NewMeanSolver(p)
	v := ms.MeanWithTransfer(10, 5, Transfer{To: 1, Tasks: 4})
	if want := ms.Hat(10, 9, BothUp); math.Abs(v[BothUp]-want) > 1e-12 {
		t.Fatalf("instantaneous transfer %v, want hat %v", v[BothUp], want)
	}
}

// With zero transfer delay and no failures, LBP-1's value at gain K equals
// draining queues (m0−L, m1+L): moving work to the faster node up to the
// balance point can only help.
func TestLBP1NoDelayNoFailureBalancePoint(t *testing.T) {
	p := model.PaperBaseline().NoFailure().WithDelay(0)
	ms, _ := NewMeanSolver(p)
	base := ms.MeanLBP1(100, 60, 0, 0)
	better := ms.MeanLBP1(100, 60, 0, 0.3)
	if better >= base {
		t.Fatalf("transferring toward the fast idle node must help: %v !< %v", better, base)
	}
}

// As the transfer delay grows, the optimal gain shrinks.
func TestOptimalGainShrinksWithDelay(t *testing.T) {
	prevK := 1.1
	for _, delta := range []float64{0.01, 0.5, 2.0} {
		ms, _ := NewMeanSolver(model.PaperBaseline().WithDelay(delta))
		opt := ms.OptimizeLBP1(100, 60)
		if opt.K > prevK+1e-9 {
			t.Fatalf("optimal K grew from %v to %v as delay rose to %v", prevK, opt.K, delta)
		}
		prevK = opt.K
	}
}

// Property: the reported optimum is indeed no worse than a random sample
// of alternative (sender, L) choices.
func TestOptimumDominatesRandomChoices(t *testing.T) {
	ms, _ := NewMeanSolver(model.PaperBaseline())
	opt := ms.OptimizeLBP1(40, 25)
	f := func(senderRaw bool, lRaw uint8) bool {
		sender := 0
		mSender := 40
		if senderRaw {
			sender = 1
			mSender = 25
		}
		l := int(lRaw) % (mSender + 1)
		k := float64(l) / float64(mSender)
		return ms.MeanLBP1(40, 25, sender, k) >= opt.Mean-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNewMeanSolverRejectsBadParams(t *testing.T) {
	bad := model.PaperBaseline()
	bad.ProcRate[1] = -1
	if _, err := NewMeanSolver(bad); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func BenchmarkMeanLattice100x60(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ms, _ := NewMeanSolver(model.PaperBaseline())
		_ = ms.MeanLBP1(100, 60, 0, 0.35)
	}
}

func BenchmarkOptimizeLBP1_100x60(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ms, _ := NewMeanSolver(model.PaperBaseline())
		_ = ms.OptimizeLBP1(100, 60)
	}
}
