package churnlb

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"churnlb/internal/policy"
	"churnlb/internal/scenario"
)

// ringSystem is an n-node system whose rates differ from node to node, so
// LBP-2's plan has receivers and a changed rate changes both the plan and
// the realisation.
func ringSystem(n int) System {
	s := System{Nodes: make([]Node, n), DelayPerTask: 0.02}
	for i := range s.Nodes {
		s.Nodes[i] = Node{ProcRate: 1 + float64(i%4)/2, FailRate: 0.05 + float64(i%3)/50, RecRate: 0.1 + float64(i%5)/20}
	}
	return s
}

func ringLoad(n int) []int {
	load := make([]int, n)
	for i := range load {
		load[i] = 5 + 7*(i%3)
	}
	return load
}

// fresh runs Simulate with nothing prepared, on a copy of s: what a
// process that never saw another System would get.
func fresh(t *testing.T, s System, spec PolicySpec, load []int, seed uint64) SimResult {
	t.Helper()
	lastPrepared.Store(nil)
	res, err := Simulate(s.clone(), spec, load, seed, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustSimulate(t *testing.T, s System, spec PolicySpec, load []int, seed uint64) SimResult {
	t.Helper()
	res, err := Simulate(s, spec, load, seed, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPrepareSeesInPlaceEdits: a System edited in place between calls —
// its Nodes slice the same, one bit of its content different — runs as a
// freshly built System with that content, never on the previous call's
// columns or plan.
func TestPrepareSeesInPlaceEdits(t *testing.T) {
	lbp2 := PolicySpec{Kind: PolicyLBP2, K: 1}
	load := ringLoad(12)
	for _, edit := range []struct {
		name string
		do   func(*System)
	}{
		{"proc-rate", func(s *System) { s.Nodes[3].ProcRate *= 3 }},
		{"fail-rate", func(s *System) { s.Nodes[5].FailRate = 0.4 }},
		{"rec-rate", func(s *System) { s.Nodes[0].RecRate = 0.01 }},
		{"delay", func(s *System) { s.DelayPerTask = 0.5 }},
		{"one-ulp", func(s *System) { s.Nodes[7].RecRate = math.Nextafter(s.Nodes[7].RecRate, 1) }},
		{"shorter", func(s *System) { s.Nodes = s.Nodes[:11] }},
	} {
		t.Run(edit.name, func(t *testing.T) {
			s := ringSystem(12)
			mustSimulate(t, s, lbp2, load, 3)
			edit.do(&s)
			l := load[:len(s.Nodes)]
			got := mustSimulate(t, s, lbp2, l, 3)
			if p, _ := s.params(); !reflect.DeepEqual(lastPrepared.Load().p, p) {
				t.Fatalf("the run after the edit used columns %+v, the System holds %+v", lastPrepared.Load().p, p)
			}
			if want := fresh(t, s, lbp2, l, 3); !reflect.DeepEqual(got, want) {
				t.Fatalf("after the edit: %+v, a fresh System gives %+v", got, want)
			}
		})
	}
}

// TestPrepareConcurrentSystems: goroutines alternating two Systems (run
// with -race) each get, on every call, the result a serial run gives.
func TestPrepareConcurrentSystems(t *testing.T) {
	lbp2 := PolicySpec{Kind: PolicyLBP2, K: 1}
	systems := []System{ringSystem(10), ringSystem(14)}
	loads := [][]int{ringLoad(10), ringLoad(14)}
	want := make([]SimResult, 2)
	for k := range systems {
		want[k] = fresh(t, systems[k], lbp2, loads[k], 9)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for call := 0; call < 40; call++ {
				k := (call + g) % 2
				got, err := Simulate(systems[k], lbp2, loads[k], 9, SimOptions{})
				if err != nil || !reflect.DeepEqual(got, want[k]) {
					errs <- "goroutine result differs from the serial run"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestPrepareRefusesEveryRepeat: a System or spec that fails validation is
// refused on every call, whatever was prepared before it, and never
// replaces what was prepared.
func TestPrepareRefusesEveryRepeat(t *testing.T) {
	lbp2 := PolicySpec{Kind: PolicyLBP2, K: 1}
	good := ringSystem(6)
	withNode := func(i int, nd Node) System {
		s := good.clone()
		s.Nodes[i] = nd
		return s
	}
	for _, c := range []struct {
		name string
		s    System
		spec PolicySpec
		load []int
		want string
	}{
		{"nan-rate", withNode(2, Node{ProcRate: math.NaN(), FailRate: 0.1, RecRate: 0.1}), lbp2, ringLoad(6), ""},
		{"negative-rate", withNode(4, Node{ProcRate: 1, FailRate: -0.1, RecRate: 0.1}), lbp2, ringLoad(6), ""},
		{"empty", System{DelayPerTask: 0.02}, lbp2, nil, ""},
		{"ragged-load", good, lbp2, ringLoad(5), "InitialLoad"},
		{"bad-gain", good, PolicySpec{Kind: PolicyLBP2, K: 2}, ringLoad(6), ""},
		{"lbp1-on-six", good, PolicySpec{Kind: PolicyLBP1, K: 0.5, Sender: AutoSender}, ringLoad(6), "two-node"},
	} {
		t.Run(c.name, func(t *testing.T) {
			mustSimulate(t, good, lbp2, ringLoad(6), 1)
			kept := lastPrepared.Load()
			for rep := 0; rep < 3; rep++ {
				_, err := Simulate(c.s, c.spec, c.load, 1, SimOptions{})
				if err == nil {
					t.Fatalf("call %d accepted", rep)
				}
				if !strings.Contains(err.Error(), c.want) {
					t.Fatalf("call %d: error %q does not name %q", rep, err, c.want)
				}
				if _, err := MonteCarloOpts(c.s, c.spec, c.load, 2, 1, SimOptions{}); err == nil {
					t.Fatalf("MonteCarloOpts call %d accepted", rep)
				}
				if _, err := Serve(c.s, c.spec, RouterSpec{Kind: RouterJSQ}, 1, ServeOptions{Rate: 5, Horizon: 1, InitialLoad: c.load}); err == nil {
					t.Fatalf("Serve call %d accepted", rep)
				}
				if c.name != "ragged-load" && lastPrepared.Load() != kept {
					t.Fatalf("call %d replaced the prepared System", rep)
				}
			}
		})
	}
	// A prepared System edited in place into an invalid one is refused.
	s := good.clone()
	mustSimulate(t, s, lbp2, ringLoad(6), 1)
	s.Nodes[1].RecRate = math.Inf(1)
	for rep := 0; rep < 2; rep++ {
		if _, err := Simulate(s, lbp2, ringLoad(6), 1, SimOptions{}); err == nil {
			t.Fatalf("call %d on the edited System accepted", rep)
		}
	}
}

// TestPrepareSpecChangeRebuildsPlan: on an equal System, a changed spec
// gets that spec's own policy and plan.
func TestPrepareSpecChangeRebuildsPlan(t *testing.T) {
	s := ringSystem(12)
	load := ringLoad(12)
	for _, spec := range []PolicySpec{
		{Kind: PolicyLBP2, K: 1},
		{Kind: PolicyLBP2, K: 0.3},
		{Kind: PolicyNone},
		{Kind: PolicyDynamicLBP2, K: 0.6},
		{Kind: PolicyLBP2, K: 1},
	} {
		got := mustSimulate(t, s, spec, load, 5)
		pr := lastPrepared.Load()
		pol, err := spec.Build(len(s.Nodes))
		if err != nil {
			t.Fatal(err)
		}
		p, err := s.params()
		if err != nil {
			t.Fatal(err)
		}
		if pr.spec != spec || !reflect.DeepEqual(pr.pol, pol) || !reflect.DeepEqual(pr.plan, policy.PlanFor(pol, p)) {
			t.Fatalf("%+v: prepared %+v with plan %v", spec, pr.spec, pr.plan)
		}
		if want := fresh(t, s, spec, load, 5); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: %+v, a fresh System gives %+v", spec, got, want)
		}
	}
}

// TestPreparedColumnsStayReadOnly: the prepared columns are shared by
// every run of the System, so no layer may write them — not the
// simulator, serving, the decision tracer or an indexed router's score.
func TestPreparedColumnsStayReadOnly(t *testing.T) {
	s := ringSystem(16)
	load := ringLoad(16)
	lbp2 := PolicySpec{Kind: PolicyLBP2, K: 1}
	if _, err := Simulate(s, lbp2, load, 2, SimOptions{Trace: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := MonteCarloOpts(s, lbp2, load, 4, 2, SimOptions{ArrivalRate: 2, ArrivalHorizon: 5}); err != nil {
		t.Fatal(err)
	}
	for _, r := range []RouterSpec{{Kind: RouterJSQ}, {Kind: RouterLeastExpectedWork}, {Kind: RouterPowerOfD}} {
		opt := ServeOptions{Rate: 20, Horizon: 10, InitialLoad: load, TraceDecisions: true}
		if _, err := Serve(s, lbp2, r, 2, opt); err != nil {
			t.Fatal(err)
		}
		opt.TraceDecisions = false
		if _, err := ServeMany(s, lbp2, r, 3, 2, opt); err != nil {
			t.Fatal(err)
		}
	}
	pr := lastPrepared.Load()
	want, err := s.params()
	if err != nil {
		t.Fatal(err)
	}
	if !pr.holds(s, lbp2) || !reflect.DeepEqual(pr.p, want) {
		t.Fatalf("prepared columns %+v after the runs, a fresh copy is %+v", pr.p, want)
	}
}

// TestWarmSimulateAllocatesItsOutput: a warm facade realisation of a
// 10⁴-node hotspot under LBP-2 allocates its per-node output
// (Result.Processed, 8 B a node) and a small constant, nothing else that
// grows with the cluster: the columns and the eq.-(8) plan are prepared
// once per System, and the realisation's arrays come from the simulator's
// arena. Copying the columns and rebuilding the plan on every call cost
// about 80 B a node.
func TestWarmSimulateAllocatesItsOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("a 10⁴-node realisation")
	}
	sc, err := scenario.Generate(scenario.Spec{Kind: scenario.Hotspot, N: 10_000, TotalLoad: 100_000, Seed: 1, HotspotNodes: 5})
	if err != nil {
		t.Fatal(err)
	}
	s := fromParams(sc.Params)
	lbp2 := PolicySpec{Kind: PolicyLBP2, K: 1}
	run := func(seed uint64) {
		if _, err := Simulate(s, lbp2, sc.InitialLoad, seed, SimOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	run(1)
	const slack = 16 << 10
	limit := uint64(8*len(s.Nodes) + slack)
	var best uint64 = math.MaxUint64
	for seed := uint64(2); seed < 5; seed++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(seed)
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a warm realisation of %d nodes allocated %d B", len(s.Nodes), best)
	if best > limit {
		t.Fatalf("a warm realisation of %d nodes allocated %d B (%.1f B a node), want at most %d (8 B a node + %d)",
			len(s.Nodes), best, float64(best)/float64(len(s.Nodes)), limit, slack)
	}
}
