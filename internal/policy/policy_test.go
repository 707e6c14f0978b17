package policy

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"churnlb/internal/model"
	"churnlb/internal/xrand"
)

// upState wraps an all-up queue vector in the retainable snapshot view —
// what a traced run would hand a policy callback.
func upState(queues ...int) model.SnapshotView {
	up := make([]bool, len(queues))
	for i := range up {
		up[i] = true
	}
	return model.SnapshotView{State: model.State{Queues: queues, Up: up}}
}

// initial is pol's t = 0 episode in a slice of its own, nil when nothing
// moves.
func initial(pol Policy, v model.StateView, p model.Params) []model.Transfer {
	return CollectInitial(pol, v, p)
}

func TestNoBalanceDoesNothing(t *testing.T) {
	p := model.PaperBaseline()
	nb := NoBalance{}
	if initial(nb, upState(100, 60), p) != nil {
		t.Fatal("NoBalance transferred at t=0")
	}
	if nb.FailurePlan(p) != nil {
		t.Fatal("NoBalance plans transfers on failure")
	}
	if nb.Name() != "none" {
		t.Fatal("name")
	}
}

func TestLBP1TransferSize(t *testing.T) {
	p := model.PaperBaseline()
	l := LBP1{K: 0.35, Sender: 0}
	trs := initial(l, upState(100, 60), p)
	if len(trs) != 1 {
		t.Fatalf("transfers = %v", trs)
	}
	if trs[0].From != 0 || trs[0].To != 1 || trs[0].Tasks != 35 {
		t.Fatalf("transfer = %+v, want 35 tasks 0->1", trs[0])
	}
}

func TestRoundGain(t *testing.T) {
	cases := []struct {
		k    float64
		m, l int
	}{
		{0, 100, 0}, {1, 100, 100}, {0.35, 100, 35}, {0.349, 100, 35},
		{0.5, 3, 2}, {2.0, 10, 10}, {-1, 10, 0}, {0.5, 0, 0},
		{math.NaN(), 10, 0}, {math.Inf(1), 10, 10}, {math.Inf(-1), 10, 0},
		{1e300, math.MaxInt64, math.MaxInt64}, {0.5, -3, 0},
	}
	for _, c := range cases {
		if got := RoundGain(c.k, c.m); got != c.l {
			t.Fatalf("RoundGain(%v,%d) = %d, want %d", c.k, c.m, got, c.l)
		}
	}
	// On [0, 1] the rule is round(K·m) itself.
	for m := 0; m <= 200; m++ {
		for i := 0; i <= 1000; i++ {
			k := float64(i) / 1000
			if got, want := RoundGain(k, m), int(math.Round(k*float64(m))); got != want {
				t.Fatalf("RoundGain(%v,%d) = %d, want %d", k, m, got, want)
			}
		}
	}
}

// A spec whose kind reads K refuses a gain outside [0, 1]; NoBalance reads
// none.
func TestSpecBuildChecksGain(t *testing.T) {
	for _, k := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -1e-9, 1 + 1e-9, 2} {
		for _, kind := range []Kind{KindLBP1, KindLBP2, KindLBP1Multi, KindDynamicLBP2} {
			if pol, err := (Spec{Kind: kind, K: k}).Build(2); err == nil {
				t.Fatalf("kind %d, K=%v: built %v", kind, k, pol.Name())
			}
		}
		if _, err := (Spec{Kind: KindNone, K: k}).Build(2); err != nil {
			t.Fatalf("none, K=%v: %v", k, err)
		}
	}
	for _, k := range []float64{0, 0.35, 1} {
		for _, kind := range []Kind{KindLBP1, KindLBP2, KindLBP1Multi, KindDynamicLBP2} {
			if _, err := (Spec{Kind: kind, K: k}).Build(2); err != nil {
				t.Fatalf("kind %d, K=%v: %v", kind, k, err)
			}
		}
	}
}

func TestLBP1AutoSenderPicksLoadedNode(t *testing.T) {
	p := model.PaperBaseline()
	l := LBP1{K: 0.5, Sender: AutoSender}
	trs := initial(l, upState(10, 90), p)
	if trs[0].From != 1 || trs[0].To != 0 || trs[0].Tasks != 45 {
		t.Fatalf("transfer = %+v, want 45 tasks 1->0", trs[0])
	}
	trs = initial(l, upState(90, 10), p)
	if trs[0].From != 0 || trs[0].Tasks != 45 {
		t.Fatalf("transfer = %+v", trs[0])
	}
}

func TestLBP1ZeroGainNoTransfer(t *testing.T) {
	p := model.PaperBaseline()
	if trs := initial(LBP1{K: 0, Sender: 0}, upState(100, 60), p); trs != nil {
		t.Fatalf("K=0 transferred: %v", trs)
	}
}

func TestLBP1NeverActsOnFailure(t *testing.T) {
	p := model.PaperBaseline()
	if fp := (LBP1{K: 0.5, Sender: 0}).FailurePlan(p); fp != nil {
		t.Fatalf("LBP1 plans transfers on failure: %v", fp)
	}
}

func TestLBP1RejectsNon2Node(t *testing.T) {
	p := model.Params{
		ProcRate: []float64{1, 1, 1}, FailRate: []float64{0, 0, 0},
		RecRate: []float64{0, 0, 0}, DelayPerTask: 0.02,
	}
	defer func() {
		if recover() == nil {
			t.Fatal("LBP1 accepted a 3-node system")
		}
	}()
	initial(LBP1{K: 0.5, Sender: 0}, upState(10, 10, 10), p)
}

// Paper Section 4: excess of node 0 under (100,60) is
// 100 − 160·(1.08/2.94) ≈ 41.2 → 41 tasks; node 1 has none.
func TestLBP2ExcessLoadPaperValues(t *testing.T) {
	p := model.PaperBaseline()
	l := LBP2{K: 1}
	s := upState(100, 60)
	if e := l.ExcessLoad(0, s, p); e != 41 {
		t.Fatalf("excess node 0 = %d, want 41", e)
	}
	if e := l.ExcessLoad(1, s, p); e != 0 {
		t.Fatalf("excess node 1 = %d, want 0", e)
	}
}

func TestLBP2InitialTwoNodes(t *testing.T) {
	p := model.PaperBaseline()
	trs := LBP2{K: 1}.Initial(upState(100, 60), p)
	if len(trs) != 1 || trs[0].From != 0 || trs[0].To != 1 || trs[0].Tasks != 41 {
		t.Fatalf("transfers = %v, want one 41-task transfer 0->1", trs)
	}
	// Gain scales the transfer.
	trs = LBP2{K: 0.5}.Initial(upState(100, 60), p)
	if len(trs) != 1 || trs[0].Tasks != 21 {
		t.Fatalf("K=0.5 transfers = %v, want 21 tasks (round(0.5·41))", trs)
	}
}

func TestLBP2InitialBalancedNoTransfer(t *testing.T) {
	p := model.PaperBaseline()
	// Proportional loads: 54 ≈ 147·0.367, 93 = 147·0.633.
	trs := LBP2{K: 1}.Initial(upState(54, 93), p)
	if len(trs) != 0 {
		t.Fatalf("balanced system transferred: %v", trs)
	}
}

// Paper eq. (8) with the baseline rates: failure of node 1 sends
// ⌊(2/3)·(1.08/2.94)·(1.86·20)⌋ = 9 tasks to node 0; failure of node 0
// sends ⌊(1/2)·(1.86/2.94)·(1.08·10)⌋ = 3 tasks to node 1.
func TestLBP2FailureTransferPaperConstants(t *testing.T) {
	p := model.PaperBaseline()
	l := LBP2{K: 1}
	if got := l.FailureTransferSize(0, 1, p); got != 9 {
		t.Fatalf("LF_{0<-1} = %d, want 9", got)
	}
	if got := l.FailureTransferSize(1, 0, p); got != 3 {
		t.Fatalf("LF_{1<-0} = %d, want 3", got)
	}
	if got := l.FailureTransferSize(0, 0, p); got != 0 {
		t.Fatal("self transfer must be 0")
	}
}

func TestLBP2OnFailureCapsAtQueue(t *testing.T) {
	p := model.PaperBaseline()
	l := LBP2{K: 1}
	// Node 1 fails holding only 4 tasks; LF would be 9.
	trs := l.OnFailure(1, upState(50, 4), p)
	if len(trs) != 1 || trs[0].Tasks != 4 {
		t.Fatalf("transfers = %v, want all 4 remaining tasks", trs)
	}
	// Empty queue: nothing to send.
	if trs := l.OnFailure(1, upState(50, 0), p); len(trs) != 0 {
		t.Fatalf("empty failure sent %v", trs)
	}
}

func TestLBP2AvailabilityBlindAblation(t *testing.T) {
	p := model.PaperBaseline()
	blind := LBP2{K: 1, AvailabilityBlind: true}
	// Without the 2/3 availability factor: ⌊(1.08/2.94)·37.2⌋ = 13.
	if got := blind.FailureTransferSize(0, 1, p); got != 13 {
		t.Fatalf("availability-blind LF = %d, want 13", got)
	}
}

func TestLBP2SpeedBlindAblation(t *testing.T) {
	p := model.PaperBaseline()
	blind := LBP2{K: 1, SpeedBlind: true}
	// Equal shares: excess_0 = 100 − 80 = 20.
	if e := blind.ExcessLoad(0, upState(100, 60), p); e != 20 {
		t.Fatalf("speed-blind excess = %d, want 20", e)
	}
}

// Partition fractions of eq. (6) must sum to 1 over receivers for any
// loads and any n >= 2.
func TestLBP2PartitionFractionsSumToOne(t *testing.T) {
	f := func(seed uint16, nRaw uint8) bool {
		n := 2 + int(nRaw%4) // 2..5 nodes
		rng := xrand.NewStream(uint64(seed), 17)
		p := model.Params{
			ProcRate:     make([]float64, n),
			FailRate:     make([]float64, n),
			RecRate:      make([]float64, n),
			DelayPerTask: 0.02,
		}
		queues := make([]int, n)
		for i := 0; i < n; i++ {
			p.ProcRate[i] = 0.5 + 2*rng.Float64()
			queues[i] = 1 + rng.Intn(100) // non-empty receivers
		}
		s := upState(queues...)
		l := LBP2{K: 1}
		for j := 0; j < n; j++ {
			sum := 0.0
			for i := 0; i < n; i++ {
				fr := l.PartitionFraction(i, j, s, p)
				if i != j && fr < -1e-9 && n > 2 {
					// Fractions can be slightly negative for extremely
					// imbalanced receivers in eq. (6); the paper's form
					// allows it, transfers clamp at zero.
					continue
				}
				sum += fr
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Initial transfers never exceed the sender's queue and never target the
// sender itself.
func TestLBP2InitialTransfersWellFormed(t *testing.T) {
	f := func(seed uint16, nRaw uint8, kRaw uint8) bool {
		n := 2 + int(nRaw%4)
		k := float64(kRaw%101) / 100
		rng := xrand.NewStream(uint64(seed), 19)
		p := model.Params{
			ProcRate:     make([]float64, n),
			FailRate:     make([]float64, n),
			RecRate:      make([]float64, n),
			DelayPerTask: 0.02,
		}
		queues := make([]int, n)
		for i := 0; i < n; i++ {
			p.ProcRate[i] = 0.5 + 2*rng.Float64()
			queues[i] = rng.Intn(200)
		}
		s := upState(queues...)
		sent := make([]int, n)
		for _, tr := range (LBP2{K: k}).Initial(s, p) {
			if tr.From == tr.To || tr.Tasks <= 0 {
				return false
			}
			sent[tr.From] += tr.Tasks
		}
		for i := 0; i < n; i++ {
			if sent[i] > queues[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLBP1MultiBalancesTowardEffectiveRates(t *testing.T) {
	p := model.Params{
		ProcRate:     []float64{1, 1, 2},
		FailRate:     []float64{0.5, 0, 0}, // node 0 flaky
		RecRate:      []float64{0.5, 1, 1},
		DelayPerTask: 0.01,
	}
	// Node 0 overloaded; its effective rate is half its nominal rate.
	trs := initial(LBP1Multi{K: 1}, upState(100, 10, 10), p)
	if len(trs) == 0 {
		t.Fatal("no transfers from overloaded flaky node")
	}
	toFast, toSlow := 0, 0
	for _, tr := range trs {
		if tr.From != 0 {
			t.Fatalf("unexpected sender in %+v", tr)
		}
		switch tr.To {
		case 2:
			toFast += tr.Tasks
		case 1:
			toSlow += tr.Tasks
		}
	}
	if toFast <= toSlow {
		t.Fatalf("faster node received %d <= slower node %d", toFast, toSlow)
	}
}

func TestDynamicWrapsBase(t *testing.T) {
	p := model.PaperBaseline()
	d := Dynamic{Base: LBP2{K: 1}}
	if d.Name() != "dynamic(LBP-2(K=1.00))" {
		t.Fatalf("name = %q", d.Name())
	}
	s := upState(100, 60)
	if len(initial(d, s, p)) != 1 {
		t.Fatal("dynamic initial should delegate")
	}
	if len(d.OnArrival(0, s, p)) != 1 {
		t.Fatal("dynamic arrival should rebalance")
	}
	if fp := d.FailurePlan(p); fp == nil || len(fp.Transfers(nil, 1, 60)) == 0 {
		t.Fatal("dynamic failure should delegate")
	}
}

func TestPolicyNames(t *testing.T) {
	if (LBP1{K: 0.35}).Name() != "LBP-1(K=0.35)" {
		t.Fatalf("LBP1 name %q", LBP1{K: 0.35}.Name())
	}
	if (LBP2{K: 1, SpeedBlind: true}).Name() != "LBP-2(K=1.00,speed-blind)" {
		t.Fatalf("LBP2 name %q", LBP2{K: 1, SpeedBlind: true}.Name())
	}
}

// TestRouterAndBalanceRegistries pins the one spelling table: every name
// any CLI help string advertises resolves to the policy or router it has
// always meant, the advertised lists are exactly the table's keys (each
// cmd's test asserts its -h text against Names/RouterNames, so a name
// added here cannot be missing from a help string), and unknown names are
// errors.
func TestRouterAndBalanceRegistries(t *testing.T) {
	routers := []struct {
		name string
		want Router
	}{
		{"uniform", nil},
		{"rr", NewRoundRobin()},
		{"jsq", JSQ{}},
		{"pod2", PowerOfD{D: 2}},
		{"pod3", PowerOfD{D: 3}},
		{"lew", LeastExpectedWork{D: 4}},
		{"", nil}, // an omitted manifest field
	}
	var names []string
	for _, c := range routers {
		spec, err := ParseRouterSpec(c.name, 4)
		if err != nil {
			t.Fatalf("router %q: %v", c.name, err)
		}
		got, err := spec.New()
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Fatalf("router %q built %#v, %v; want %#v", c.name, got, err, c.want)
		}
		if c.name != "" {
			names = append(names, c.name)
		}
	}
	if !reflect.DeepEqual(names, RouterNames()) {
		t.Fatalf("RouterNames() = %v, table rows %v", RouterNames(), names)
	}
	if _, err := ParseRouterSpec("bogus", 0); err == nil {
		t.Fatal("unknown router accepted")
	}
	if _, err := (RouterSpec{Kind: RouterKind(99)}).Factory(4); err == nil {
		t.Fatal("unknown router kind built")
	}

	policies := []struct {
		name string
		want Policy
	}{
		{"lbp1", LBP1{K: 0.5, Sender: 1}},
		{"lbp1multi", LBP1Multi{K: 0.5}},
		{"lbp2", LBP2{K: 0.5}},
		{"none", NoBalance{}},
		{"dynamic", Dynamic{Base: LBP2{K: 0.5}}},
		{"", NoBalance{}},
	}
	names = nil
	for _, c := range policies {
		spec, err := ParseSpec(c.name, 0.5, 1)
		if err != nil {
			t.Fatalf("policy %q: %v", c.name, err)
		}
		got, err := spec.Build(2)
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Fatalf("policy %q built %#v, %v; want %#v", c.name, got, err, c.want)
		}
		if c.name != "" {
			names = append(names, c.name)
		}
	}
	if !reflect.DeepEqual(names, Names()) {
		t.Fatalf("Names() = %v, table rows %v", Names(), names)
	}
	if _, err := ParseSpec("bogus", 0, 0); err == nil {
		t.Fatal("unknown balance policy accepted")
	}
	if _, err := (Spec{Kind: Kind(99)}).Build(2); err == nil {
		t.Fatal("unknown policy kind built")
	}
}

// TestSpecBuildFitsCluster: LBP-1 is built for two nodes and a sender of
// the two only; every other fit is an error, never the panic its
// EachInitial would raise mid-run.
func TestSpecBuildFitsCluster(t *testing.T) {
	for _, sender := range []int{AutoSender, 0, 1} {
		if _, err := (Spec{Kind: KindLBP1, K: 0.5, Sender: sender}).Build(2); err != nil {
			t.Fatalf("sender %d on two nodes: %v", sender, err)
		}
	}
	for _, c := range []struct{ n, sender int }{{3, AutoSender}, {1, 0}, {2, 5}, {2, -2}} {
		if pol, err := (Spec{Kind: KindLBP1, K: 0.5, Sender: c.sender}).Build(c.n); err == nil {
			t.Fatalf("%d nodes, sender %d: built %s", c.n, c.sender, pol.Name())
		}
	}
	if _, err := (Spec{Kind: KindLBP1Multi, K: 0.5}).Build(3); err != nil {
		t.Fatalf("lbp1multi on three nodes: %v", err)
	}
}

// TestRouterFactoryBoundsLewD: lew samples at most the cluster's nodes,
// and 0 scans them all; a d outside [0, n] is refused, naming the bound.
func TestRouterFactoryBoundsLewD(t *testing.T) {
	for _, d := range []int{0, 1, 10} {
		if _, err := (RouterSpec{Kind: RouterLeastExpectedWork, D: d}).Factory(10); err != nil {
			t.Fatalf("lew -d %d on 10 nodes: %v", d, err)
		}
	}
	for _, d := range []int{-5, 11, 1000000000} {
		_, err := (RouterSpec{Kind: RouterLeastExpectedWork, D: d}).Factory(10)
		if err == nil || !strings.Contains(err.Error(), "[0, 10]") {
			t.Fatalf("lew -d %d on 10 nodes: %v, want the [0, 10] bound", d, err)
		}
	}
}
