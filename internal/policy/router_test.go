package policy

import (
	"math"
	"sort"
	"testing"

	"churnlb/internal/model"
	"churnlb/internal/xrand"
)

func routerState(queues []int, up []bool) (model.StateView, model.Params) {
	n := len(queues)
	if up == nil {
		up = make([]bool, n)
		for i := range up {
			up[i] = true
		}
	}
	p := model.Params{
		ProcRate: make([]float64, n),
		FailRate: make([]float64, n),
		RecRate:  make([]float64, n),
	}
	for i := 0; i < n; i++ {
		p.ProcRate[i] = 1
		p.FailRate[i] = 0.01
		p.RecRate[i] = 0.05
	}
	return model.SnapshotView{State: model.State{Queues: queues, Up: up}}, p
}

func TestRoundRobinCycles(t *testing.T) {
	s, p := routerState([]int{5, 0, 3}, nil)
	r := NewRoundRobin()
	rng := xrand.New(1)
	for want := 0; want < 7; want++ {
		if got := r.Route(s, p, rng); got != want%3 {
			t.Fatalf("pick %d: node %d, want %d", want, got, want%3)
		}
	}
}

func TestJSQPicksShortestQueue(t *testing.T) {
	s, p := routerState([]int{4, 2, 7, 2}, nil)
	if got := (JSQ{}).Route(s, p, xrand.New(1)); got != 1 {
		t.Fatalf("JSQ picked %d, want 1 (shortest queue, lowest index on ties)", got)
	}
}

func TestJSQIsChurnBlind(t *testing.T) {
	// The down node has the shortest queue; churn-blind JSQ must still
	// pick it — that is the documented baseline behaviour the
	// churn-aware router exists to fix.
	s, p := routerState([]int{4, 1, 7}, []bool{true, false, true})
	if got := (JSQ{}).Route(s, p, xrand.New(1)); got != 1 {
		t.Fatalf("JSQ picked %d, want the down node 1", got)
	}
}

func TestPowerOfDPicksShorterOfSampled(t *testing.T) {
	s, p := routerState([]int{9, 8, 7, 6, 0, 5}, nil)
	rng := xrand.New(3)
	// Over many draws, pod2 must (a) always return a valid node and (b)
	// hit the empty node far more often than uniform would.
	hits := 0
	const draws = 2000
	for i := 0; i < draws; i++ {
		got := PowerOfD{D: 2}.Route(s, p, rng)
		if got < 0 || got >= 6 {
			t.Fatalf("invalid node %d", got)
		}
		if got == 4 {
			hits++
		}
	}
	// P(pick node 4) = 1 - (5/6)² ≈ 0.306 for d=2 vs 1/6 uniform.
	if hits < draws/4 {
		t.Fatalf("pod2 picked the empty node %d/%d times, want ≈30%%", hits, draws)
	}
}

func TestPowerOfDDefaultsToTwo(t *testing.T) {
	if (PowerOfD{}).Name() != "pod2" {
		t.Fatalf("default name %q, want pod2", (PowerOfD{}).Name())
	}
}

func TestLeastExpectedWorkAvoidsDownNodes(t *testing.T) {
	// Node 1 has the shortest queue but is down with a 20 s expected
	// recovery; the full-scan churn-aware router must prefer node 0.
	s, p := routerState([]int{3, 1, 9}, []bool{true, false, true})
	if got := (LeastExpectedWork{}).Route(s, p, xrand.New(1)); got != 0 {
		t.Fatalf("lew picked %d, want 0 (down node priced at its recovery time)", got)
	}
}

func TestLeastExpectedWorkPrefersFastNodes(t *testing.T) {
	s, p := routerState([]int{4, 4}, nil)
	p.ProcRate[1] = 4 // same queue, four times the speed
	if got := (LeastExpectedWork{}).Route(s, p, xrand.New(1)); got != 1 {
		t.Fatalf("lew picked %d, want the fast node 1", got)
	}
}

func TestLeastExpectedWorkSampled(t *testing.T) {
	// The empty down node (100 s expected recovery) can only win a d=2
	// sample when both choices land on it: P = 1/16. Churn-blind pod2
	// would pick it whenever sampled at all: P = 1 - (3/4)² ≈ 0.44.
	s, p := routerState([]int{0, 5, 5, 5}, []bool{false, true, true, true})
	p.RecRate[0] = 0.01
	rng := xrand.New(9)
	const draws = 2000
	hits := 0
	for i := 0; i < draws; i++ {
		if (LeastExpectedWork{D: 2}).Route(s, p, rng) == 0 {
			hits++
		}
	}
	if hits > draws/8 { // generous bound above the 1/16 expectation
		t.Fatalf("sampled lew picked the down node %d/%d times, want ≈1/16", hits, draws)
	}
}

func TestRouterNames(t *testing.T) {
	cases := map[string]Router{
		"rr":   NewRoundRobin(),
		"jsq":  JSQ{},
		"pod3": PowerOfD{D: 3},
		"lew":  LeastExpectedWork{},
		"lew2": LeastExpectedWork{D: 2},
	}
	names := make([]string, 0, len(cases))
	for want := range cases {
		names = append(names, want)
	}
	sort.Strings(names)
	for _, want := range names {
		if got := cases[want].Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

// namedRouter is a router this package does not define.
type namedRouter struct{ Router }

// TestConsideredPerRouter pins what a decision trace records as "cands":
// the number of nodes each rule consults per decision — and, for the
// sampling rules, that it is the number of draws Route takes.
func TestConsideredPerRouter(t *testing.T) {
	const n = 5
	v, p := routerState([]int{4, 0, 7, 2, 9}, nil)
	for _, c := range []struct {
		r       Router
		want    int
		sampled bool
	}{
		{nil, 0, false},
		{NewRoundRobin(), 1, false},
		{JSQ{}, n, false},
		{PowerOfD{}, 2, true},
		{PowerOfD{D: 2}, 2, true},
		{PowerOfD{D: 3}, 3, true},
		{LeastExpectedWork{}, n, false},
		{LeastExpectedWork{D: 3}, 3, true},
		{namedRouter{JSQ{}}, 0, false},
	} {
		got := Considered(c.r, n)
		if got != c.want {
			t.Errorf("Considered(%#v, %d) = %d, want %d", c.r, n, got, c.want)
		}
		if c.r == nil {
			continue
		}
		draws := 0
		if c.sampled {
			draws = got
		}
		rng, twin := xrand.New(3), xrand.New(3)
		c.r.Route(v, p, rng)
		for d := 0; d < draws; d++ {
			twin.Intn(n)
		}
		if rng.Uint64() != twin.Uint64() {
			t.Errorf("%s: Route did not take %d draws", c.r.Name(), draws)
		}
	}
}

// TestExpectedWorkMatchesLEWScore pins the shared pricing: the score the
// load index maintains for LeastExpectedWork is ExpectedWork to the bit,
// including the recovery surcharge for down nodes.
func TestExpectedWorkMatchesLEWScore(t *testing.T) {
	gen := xrand.New(17)
	for trial := 0; trial < 200; trial++ {
		n := 2 + gen.Intn(6)
		queues := make([]int, n)
		up := make([]bool, n)
		for i := range queues {
			queues[i] = gen.Intn(40)
			up[i] = gen.Intn(3) != 0
		}
		v, p := routerState(queues, up)
		score := LeastExpectedWork{}.RouteScore(p)
		for i := 0; i < n; i++ {
			got := ExpectedWork(i, v.Queue(i), v.Up(i), p)
			want := score(i, v.Queue(i), v.Up(i))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("node %d (q=%d up=%v): ExpectedWork %v, score %v", i, queues[i], up[i], got, want)
			}
		}
	}
}
