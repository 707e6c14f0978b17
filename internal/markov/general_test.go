package markov

import (
	"math"
	"testing"

	"churnlb/internal/model"
)

func TestGeneralSolverMatchesTwoNodeSolver(t *testing.T) {
	mp := model.PaperBaseline()
	gs, err := NewGeneralSolver(mp)
	if err != nil {
		t.Fatal(err)
	}
	ms, _ := NewMeanSolver(model.PaperBaseline())
	cases := []struct {
		m0, m1, l, to int
	}{
		{10, 5, 0, 0},
		{8, 12, 6, 1},
		{15, 0, 5, 1},
		{0, 0, 7, 0},
		{20, 20, 10, 0},
	}
	for _, c := range cases {
		var pending []PendingTransfer
		tr := Transfer{To: c.to, Tasks: c.l}
		if c.l > 0 {
			pending = []PendingTransfer{{To: c.to, Tasks: c.l, Rate: 1 / (mp.DelayPerTask * float64(c.l))}}
		}
		for s := WorkState(0); s < 4; s++ {
			up := []bool{s.Up(0), s.Up(1)}
			got, err := gs.Mean([]int{c.m0, c.m1}, pending, up)
			if err != nil {
				t.Fatal(err)
			}
			var want float64
			if c.l > 0 {
				want = ms.MeanWithTransfer(c.m0, c.m1, tr)[s]
			} else {
				want = ms.Hat(c.m0, c.m1, s)
			}
			if math.Abs(got-want) > 1e-8*(1+want) {
				t.Fatalf("(%d,%d,L=%d,s=%v): general %v vs specialised %v", c.m0, c.m1, c.l, s, got, want)
			}
		}
	}
}

func TestGeneralSolverMultiplePendingTransfers(t *testing.T) {
	mp := model.PaperBaseline()
	gs, _ := NewGeneralSolver(mp)
	// Two simultaneous in-flight transfers — beyond the two-node paper
	// model; verify basic sanity: longer than the no-pending system.
	pending := []PendingTransfer{
		{To: 0, Tasks: 5, Rate: 10},
		{To: 1, Tasks: 3, Rate: 20},
	}
	withPending, err := gs.Mean([]int{4, 4}, pending, []bool{true, true})
	if err != nil {
		t.Fatal(err)
	}
	without, err := gs.Mean([]int{4, 4}, nil, []bool{true, true})
	if err != nil {
		t.Fatal(err)
	}
	if withPending <= without {
		t.Fatalf("pending load cannot shorten completion: %v vs %v", withPending, without)
	}
}

func TestGeneralSolverThreeNodeClosedForm(t *testing.T) {
	// Three never-failing nodes, all work on node 2: mean = m/λd2.
	p := model.Params{
		ProcRate:     []float64{1, 2, 4},
		FailRate:     []float64{0, 0, 0},
		RecRate:      []float64{0, 0, 0},
		DelayPerTask: 0.02,
	}
	gs, err := NewGeneralSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := gs.Mean([]int{0, 0, 12}, nil, []bool{true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	want := 12.0 / 4.0
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("three-node single-queue mean %v, want %v", got, want)
	}
}

func TestGeneralSolverThreeNodeFailureClosedForm(t *testing.T) {
	// One flaky node alone: m·(1+λf/λr)/λd, embedded in a 3-node system
	// whose other nodes are idle.
	p := model.Params{
		ProcRate:     []float64{1.5, 1, 1},
		FailRate:     []float64{0.2, 0, 0},
		RecRate:      []float64{0.4, 0, 0},
		DelayPerTask: 0.02,
	}
	gs, _ := NewGeneralSolver(p)
	got, err := gs.Mean([]int{9, 0, 0}, nil, []bool{true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	want := 9 * (1 + 0.2/0.4) / 1.5
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("flaky-node mean %v, want %v", got, want)
	}
}

func TestGeneralSolverValidation(t *testing.T) {
	mp := model.PaperBaseline()
	gs, _ := NewGeneralSolver(mp)
	if _, err := gs.Mean([]int{1}, nil, []bool{true, true}); err == nil {
		t.Fatal("ragged queues accepted")
	}
	if _, err := gs.Mean([]int{-1, 0}, nil, []bool{true, true}); err == nil {
		t.Fatal("negative queue accepted")
	}
	if _, err := gs.Mean([]int{1, 1}, []PendingTransfer{{To: 9, Tasks: 1, Rate: 1}}, []bool{true, true}); err == nil {
		t.Fatal("invalid pending transfer accepted")
	}
	big := model.Params{
		ProcRate: make([]float64, 7), FailRate: make([]float64, 7), RecRate: make([]float64, 7),
	}
	for i := range big.ProcRate {
		big.ProcRate[i] = 1
	}
	if _, err := NewGeneralSolver(big); err == nil {
		t.Fatal("7-node system accepted")
	}
}

// The two-node solvers take model.Params as they are, with no conversion
// in between: the rates a solver holds are the caller's, bit for bit, and a
// system of any other size is refused.
func TestFromModelToModelRoundTrip(t *testing.T) {
	mp := model.PaperBaseline()
	ms, err := NewMeanSolver(mp)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewCDFSolver(mp)
	if err != nil {
		t.Fatal(err)
	}
	for _, back := range []model.Params{ms.p, cs.p} {
		for i := 0; i < 2; i++ {
			if back.ProcRate[i] != mp.ProcRate[i] || back.FailRate[i] != mp.FailRate[i] || back.RecRate[i] != mp.RecRate[i] {
				t.Fatal("round trip lost rates")
			}
		}
		if back.DelayPerTask != mp.DelayPerTask {
			t.Fatal("round trip lost the transfer delay")
		}
	}
	three := model.Params{
		ProcRate: []float64{1, 1, 1}, FailRate: []float64{0, 0, 0}, RecRate: []float64{0, 0, 0},
	}
	if _, err := NewMeanSolver(three); err == nil {
		t.Fatal("3-node params accepted by NewMeanSolver")
	}
	if _, err := NewCDFSolver(three); err == nil {
		t.Fatal("3-node params accepted by NewCDFSolver")
	}
}

// Paper Table 2 gains: the no-failure optimal LBP-2 gain is 1.0 for
// (200,200) and high (≥0.6) for the other workloads at δ=0.02.
func TestLBP2InitialGainMatchesPaperQualitatively(t *testing.T) {
	p := model.PaperBaseline()
	cases := []struct {
		m0, m1     int
		wantSender int
		minK       float64
	}{
		{200, 200, 0, 0.95}, // paper: K=1.00
		{200, 100, 0, 0.95}, // paper: K=1.00
		{200, 50, 0, 0.95},  // paper: K=1.00
		{100, 200, 1, 0.6},  // paper: K=0.80
		{50, 200, 1, 0.85},  // paper: K=0.95
	}
	for _, c := range cases {
		k, sender, excess, err := LBP2InitialGain(p, c.m0, c.m1)
		if err != nil {
			t.Fatal(err)
		}
		if sender != c.wantSender {
			t.Errorf("(%d,%d): sender %d, want %d", c.m0, c.m1, sender, c.wantSender)
		}
		if excess <= 0 {
			t.Errorf("(%d,%d): zero excess", c.m0, c.m1)
		}
		if k < c.minK {
			t.Errorf("(%d,%d): gain %v below %v", c.m0, c.m1, k, c.minK)
		}
	}
	// A perfectly balanced workload has no excess.
	k, _, excess, err := LBP2InitialGain(p, 54, 93)
	if err != nil {
		t.Fatal(err)
	}
	if k != 0 || excess != 0 {
		t.Fatalf("balanced workload: k=%v excess=%d", k, excess)
	}
}

// The gain optimised for LBP-1 by OptimizeTransferGain must agree with
// the dedicated OptimizeLBP1 search when given the full queue.
func TestOptimizeTransferGainAgreesWithOptimizeLBP1(t *testing.T) {
	ms, _ := NewMeanSolver(model.PaperBaseline())
	opt := must(ms.OptimizeLBP1(60, 25))
	ms2, _ := NewMeanSolver(model.PaperBaseline())
	k, mean, err := OptimizeTransferGain(ms2, 60, 25, opt.Sender, []int{60, 25}[opt.Sender])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-opt.Mean) > 1e-9 {
		t.Fatalf("means differ: %v vs %v", mean, opt.Mean)
	}
	if math.Abs(k-opt.K) > 1e-9 {
		t.Fatalf("gains differ: %v vs %v", k, opt.K)
	}
}

func BenchmarkGeneralSolver3Node(b *testing.B) {
	p := model.Params{
		ProcRate:     []float64{1, 1.5, 2},
		FailRate:     []float64{0.05, 0.05, 0.05},
		RecRate:      []float64{0.1, 0.1, 0.1},
		DelayPerTask: 0.02,
	}
	for i := 0; i < b.N; i++ {
		gs, _ := NewGeneralSolver(p)
		if _, err := gs.Mean([]int{8, 8, 8}, nil, []bool{true, true, true}); err != nil {
			b.Fatal(err)
		}
	}
}
