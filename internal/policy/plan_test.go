package policy

import (
	"testing"
	"testing/quick"

	"churnlb/internal/model"
	"churnlb/internal/xrand"
)

// transfersEqual compares two episodes element-wise — transfer identity,
// not just totals, because the simulator replays them in order.
func transfersEqual(a, b []model.Transfer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randomPlanParams draws a heterogeneous parameter set: processing rates
// spread 0.5–2.5, churn rates spanning two orders of magnitude so some
// systems produce large eq.-(8) sizes (deep receiver lists, caps engage
// mid-list) and others floor everything to zero (empty plan rows).
func randomPlanParams(rng *xrand.Rand, n int) model.Params {
	p := model.Params{
		ProcRate:     make([]float64, n),
		FailRate:     make([]float64, n),
		RecRate:      make([]float64, n),
		DelayPerTask: 0.02,
	}
	for i := 0; i < n; i++ {
		p.ProcRate[i] = 0.5 + 2*rng.Float64()
		p.FailRate[i] = 0.2 * rng.Float64()
		switch rng.Intn(4) {
		case 0:
			p.RecRate[i] = 0 // never recovers: plan row must be empty
			p.FailRate[i] = 0
		case 1:
			p.RecRate[i] = 0.005 + 0.01*rng.Float64() // slow: big backlogs
		default:
			p.RecRate[i] = 0.1 + 0.5*rng.Float64()
		}
	}
	return p
}

// TestFailurePlanMatchesNaiveScan is the plan-vs-scan property: for
// random heterogeneous systems, every LBP-2 ablation, every failing node
// and random queue states — including queues small enough that the
// remaining-queue cap truncates the episode mid-list — the precomputed
// plan must reproduce the naive per-receiver eq.-(8) scan transfer for
// transfer.
func TestFailurePlanMatchesNaiveScan(t *testing.T) {
	f := func(seed uint16, nRaw, ablRaw uint8) bool {
		rng := xrand.NewStream(uint64(seed), 29)
		n := 2 + int(nRaw)%7
		p := randomPlanParams(rng, n)
		l := LBP2{K: 1, SpeedBlind: ablRaw&1 != 0, AvailabilityBlind: ablRaw&2 != 0}
		fp := l.FailurePlan(p)
		for trial := 0; trial < 8; trial++ {
			queues := make([]int, n)
			up := make([]bool, n)
			for i := range queues {
				// Mix empty, tiny (cap truncates) and large queues.
				switch rng.Intn(3) {
				case 0:
					queues[i] = 0
				case 1:
					queues[i] = rng.Intn(5)
				default:
					queues[i] = rng.Intn(500)
				}
				up[i] = rng.Float64() < 0.9
			}
			v := model.SnapshotView{State: model.State{Queues: queues, Up: up}}
			for j := 0; j < n; j++ {
				naive := l.OnFailure(j, v, p)
				planned := fp.Transfers(nil, j, queues[j])
				if !transfersEqual(planned, naive) {
					t.Logf("n=%d failed=%d queues=%v: plan %v, scan %v", n, j, queues, planned, naive)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestFailurePlanCapOrder pins the cap semantics on the paper's system:
// node 1 failing with 4 queued tasks ships exactly the 4 remaining, and
// a planned episode truncates receiver by receiver in ascending order.
func TestFailurePlanCapOrder(t *testing.T) {
	p := model.PaperBaseline()
	fp := (LBP2{K: 1}).FailurePlan(p)
	trs := fp.Transfers(nil, 1, 4)
	if len(trs) != 1 || trs[0] != (model.Transfer{From: 1, To: 0, Tasks: 4}) {
		t.Fatalf("capped episode = %v, want one 4-task transfer 1->0", trs)
	}
	if trs := fp.Transfers(nil, 1, 0); len(trs) != 0 {
		t.Fatalf("empty queue shipped %v", trs)
	}
	// Uncapped: the paper's LF_{0<-1} = 9.
	trs = fp.Transfers(nil, 1, 50)
	if len(trs) != 1 || trs[0].Tasks != 9 {
		t.Fatalf("uncapped episode = %v, want 9 tasks", trs)
	}
}

// TestFailurePlanEmptyAtScale checks the large-N regime the plan exists
// for: with 10⁴ homogeneous nodes each receiver's eq.-(8) share is ~1/n
// of a ~30-task backlog, so every size floors to zero, every plan row is
// empty and an episode is O(1) with no transfers — exactly what the
// naive scan concludes after O(n) work.
func TestFailurePlanEmptyAtScale(t *testing.T) {
	n := 10_000
	p := model.Params{
		ProcRate:     make([]float64, n),
		FailRate:     make([]float64, n),
		RecRate:      make([]float64, n),
		DelayPerTask: 0.02,
	}
	queues := make([]int, n)
	up := make([]bool, n)
	for i := 0; i < n; i++ {
		p.ProcRate[i] = 1.5
		p.FailRate[i] = 1.0 / 200
		p.RecRate[i] = 1.0 / 30
		queues[i] = 100
		up[i] = true
	}
	l := LBP2{K: 1}
	fp := l.FailurePlan(p)
	for _, j := range []int{0, 1, n / 2, n - 1} {
		if trs := fp.Transfers(nil, j, queues[j]); len(trs) != 0 {
			t.Fatalf("node %d planned transfers %v, want none", j, trs)
		}
	}
	v := model.SnapshotView{State: model.State{Queues: queues, Up: up}}
	if trs := l.OnFailure(0, v, p); len(trs) != 0 {
		t.Fatalf("naive scan shipped %v on the all-floored system", trs)
	}
}

// TestFailurePlanDynamicDelegates proves the wrapper exposes its base's
// plan (and stays nil-planning over a planless base), so Dynamic(LBP2)
// realisations keep O(active-receivers) failure episodes.
func TestFailurePlanDynamicDelegates(t *testing.T) {
	p := model.PaperBaseline()
	var pl Policy = Dynamic{Base: LBP2{K: 1}}
	fp := pl.FailurePlan(p)
	if fp == nil {
		t.Fatal("Dynamic over LBP2 returned no plan")
	}
	if trs := fp.Transfers(nil, 1, 50); len(trs) != 1 || trs[0].Tasks != 9 {
		t.Fatalf("delegated plan episode = %v, want the paper's 9-task transfer", trs)
	}
	if fp := (Dynamic{Base: LBP1Multi{K: 1}}).FailurePlan(p); fp != nil {
		t.Fatalf("Dynamic over a planless base returned %v", fp)
	}
}
