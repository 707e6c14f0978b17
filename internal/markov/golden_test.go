package markov

import (
	"math"
	"testing"

	"churnlb/internal/model"
)

// The golden values below were produced at commit 083022c, when the
// solvers still took a two-node copy of the system description of their
// own and restated the gain rounding and eq. (6)'s excess. Analysing the
// shared model.Params with the policies' own rules must leave every value
// bit-identical: floats are compared as exact float64 bit patterns. Each
// value a caller's solver computes is computed twice, on a fresh solver and
// on one that already answered a larger workload, and both must match
// (LBP2InitialGain builds its own solver).

// goldenOptimum is OptimizeLBP1's answer for one workload.
type goldenOptimum struct {
	m0, m1, sender, l int
	kBits, meanBits   uint64
}

var goldenOptima = []goldenOptimum{
	{100, 60, 0, 35, 0x3fd6666666666666, 0x405d2ff0c6b80c1e},
	{200, 200, 0, 32, 0x3fc47ae147ae147b, 0x40712bd5e4894b0d},
	{200, 100, 0, 75, 0x3fd8000000000000, 0x406a33613b62f1f8},
	{100, 200, 1, 25, 0x3fc0000000000000, 0x406a33613b62f1f5},
	{200, 50, 0, 97, 0x3fdf0a3d70a3d70a, 0x406617a163e2a430},
	{50, 200, 1, 53, 0x3fd0f5c28f5c28f6, 0x406617a15df6d616},
}

// goldenSweep is GainSweep(100, 60, 0, 20)'s means, K = 0, 0.05, ..., 1.
var goldenSweep = []uint64{
	0x4061a6e698791aa9, 0x4060f04f3b462ffc, 0x406049e5291b24b8, 0x405f701063bcdeaa,
	0x405e7ec50a2e3240, 0x405dc924c42d1997, 0x405d57717da1e378, 0x405d2ff0c6b80c1e,
	0x405d55c87f599a8e, 0x405dc7850641bc20, 0x405e7de198dc5df6, 0x405f6c8ce55698dd,
	0x406042866c408acf, 0x4060dce405d46b01, 0x40617fec7241919e, 0x406227ca6f727eb2,
	0x4062d21882895cea, 0x40637d8088fbddfa, 0x40642958d24b0b0a, 0x4064d55757981d92,
	0x40658160599dd7d5,
}

// goldenLBP2 is LBP2InitialGain's answer for one workload and delay.
type goldenLBP2 struct {
	delta          float64
	m0, m1         int
	kBits          uint64
	sender, excess int
}

var goldenLBP2Gains = []goldenLBP2{
	{0.02, 200, 200, 0x3ff0000000000000, 0, 53},
	{0.02, 200, 100, 0x3ff0000000000000, 0, 89},
	{0.02, 100, 200, 0x3fe6666666666666, 1, 10},
	{0.02, 200, 50, 0x3ff0000000000000, 0, 108},
	{0.02, 50, 200, 0x3fee7063e7063e70, 1, 41},
	{3, 200, 200, 0x3fd826a439f656f2, 0, 53},
	{3, 200, 100, 0x3fccc398730e61cc, 0, 89},
	{3, 100, 200, 0x3fe3333333333333, 1, 10},
	{3, 200, 50, 0x3fc7b425ed097b42, 0, 108},
	{3, 50, 200, 0x3fcc18f9c18f9c19, 1, 41},
}

// warmMeanSolver returns a baseline solver whose hat table already covers
// every lattice point the golden cases visit.
func warmMeanSolver(t *testing.T) *MeanSolver {
	ms, err := NewMeanSolver(model.PaperBaseline())
	if err != nil {
		t.Fatal(err)
	}
	ms.Hat(401, 401, BothUp)
	return ms
}

func freshMeanSolver(t *testing.T) *MeanSolver {
	ms, err := NewMeanSolver(model.PaperBaseline())
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func checkBits(t *testing.T, what string, got float64, want uint64) {
	t.Helper()
	if math.Float64bits(got) != want {
		t.Errorf("%s = %v (%#x), want %v (%#x)", what, got, math.Float64bits(got), math.Float64frombits(want), want)
	}
}

func TestGoldenOptimizeLBP1(t *testing.T) {
	if testing.Short() {
		t.Skip("Table-1 lattices are slow in -short mode")
	}
	warm := warmMeanSolver(t)
	for _, g := range goldenOptima {
		for _, ms := range []*MeanSolver{freshMeanSolver(t), warm} {
			o := must(ms.OptimizeLBP1(g.m0, g.m1))
			if o.Sender != g.sender || o.L != g.l {
				t.Errorf("(%d,%d): sender %d, L %d; want %d, %d", g.m0, g.m1, o.Sender, o.L, g.sender, g.l)
			}
			checkBits(t, "K", o.K, g.kBits)
			checkBits(t, "mean", o.Mean, g.meanBits)
		}
	}
}

func TestGoldenMeanLBP1AndGainSweep(t *testing.T) {
	warm := warmMeanSolver(t)
	for _, ms := range []*MeanSolver{freshMeanSolver(t), warm} {
		checkBits(t, "MeanLBP1(100,60,0,0.35)", must(ms.MeanLBP1(100, 60, 0, 0.35)), 0x405d2ff0c6b80c1e)
		// 0.355·100 rounds up to 36 tasks: the half-way case of the rule.
		checkBits(t, "MeanLBP1(100,60,0,0.355)", must(ms.MeanLBP1(100, 60, 0, 0.355)), 0x405d314a852b2af4)
	}
	for _, ms := range []*MeanSolver{freshMeanSolver(t), warm} {
		ks, means, err := ms.GainSweep(100, 60, 0, 20)
		if err != nil {
			t.Fatal(err)
		}
		if len(means) != len(goldenSweep) {
			t.Fatalf("sweep has %d points, want %d", len(means), len(goldenSweep))
		}
		for i, want := range goldenSweep {
			checkBits(t, "GainSweep mean", means[i], want)
			if ks[i] != float64(i)/20 {
				t.Errorf("ks[%d] = %v", i, ks[i])
			}
		}
	}
}

func TestGoldenLBP2InitialGain(t *testing.T) {
	for _, g := range goldenLBP2Gains {
		k, sender, excess, err := LBP2InitialGain(model.PaperBaseline().WithDelay(g.delta), g.m0, g.m1)
		if err != nil {
			t.Fatal(err)
		}
		if sender != g.sender || excess != g.excess {
			t.Errorf("δ=%v (%d,%d): sender %d, excess %d; want %d, %d", g.delta, g.m0, g.m1, sender, excess, g.sender, g.excess)
		}
		checkBits(t, "LBP-2 initial K", k, g.kBits)
	}
}

func TestGoldenCDFLBP1(t *testing.T) {
	fresh, err := NewCDFSolver(model.PaperBaseline())
	if err != nil {
		t.Fatal(err)
	}
	warm, _ := NewCDFSolver(model.PaperBaseline())
	if _, err := warm.CDFLBP1(60, 20, 1, 0.5, BothUp, 50, 0.5); err != nil {
		t.Fatal(err)
	}
	want := map[float64]uint64{10: 0x3ef0d8d5fae7c034, 50: 0x3fe7ad614375b192, 100: 0x3feedcf38d1eab03}
	for _, cs := range []*CDFSolver{fresh, warm} {
		r, err := cs.CDFLBP1(50, 0, 0, 0.6, BothUp, 200, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		for at, bits := range want {
			checkBits(t, "F", r.F[int(at/r.Step)], bits)
		}
	}
}

func TestGoldenGeneralSolverThreeNodes(t *testing.T) {
	up := []bool{true, true, true}
	small := model.Params{
		ProcRate:     []float64{1.0, 1.5, 2.0},
		FailRate:     []float64{0.05, 0.05, 0},
		RecRate:      []float64{0.1, 0.1, 1},
		DelayPerTask: 0.02,
	}
	// LBP1Multi{K: 1}'s t = 0 episode on (14, 2, 0), δ = 0.5: 7 tasks to
	// node 1 and 2 to node 2 in flight.
	pending := model.Params{
		ProcRate:     []float64{1, 2, 0.7},
		FailRate:     []float64{0.05, 0.1, 0.08},
		RecRate:      []float64{0.2, 0.25, 0.1},
		DelayPerTask: 0.5,
	}
	inFlight := []PendingTransfer{{To: 1, Tasks: 7, Rate: 1 / (0.5 * 7)}, {To: 2, Tasks: 2, Rate: 1 / (0.5 * 2)}}
	for _, c := range []struct {
		p       model.Params
		queues  []int
		pending []PendingTransfer
		want    uint64
	}{
		{small, []int{6, 6, 6}, nil, 0x4025c8b2bd774e3c},
		{pending, []int{5, 2, 0}, inFlight, 0x402989cefdb16ad4},
	} {
		fresh, err := NewGeneralSolver(c.p)
		if err != nil {
			t.Fatal(err)
		}
		warm, _ := NewGeneralSolver(c.p)
		if _, err := warm.Mean([]int{7, 7, 7}, c.pending, up); err != nil {
			t.Fatal(err)
		}
		for _, gs := range []*GeneralSolver{fresh, warm} {
			got, err := gs.Mean(c.queues, c.pending, up)
			if err != nil {
				t.Fatal(err)
			}
			checkBits(t, "GeneralSolver.Mean", got, c.want)
		}
	}
}
