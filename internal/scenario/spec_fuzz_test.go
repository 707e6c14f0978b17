package scenario

import (
	"math"
	"testing"
)

// FuzzSpecBuild holds Generate to an error or a scenario for any spec —
// never a panic — and checks what it accepts: N-entry arrays, queues that
// are non-negative and sum to at most TotalLoad, and Params the simulator
// accepts. N is folded into [-8, 4096] so each input stays cheap; the node
// cap is TestGenerateValidation's.
func FuzzSpecBuild(f *testing.F) {
	add := func(sp Spec) {
		f.Add(int(sp.Kind), sp.N, sp.TotalLoad, sp.Seed, sp.MTBF, sp.MTTR, sp.DelayPerTask, sp.HotspotNodes)
	}
	for _, row := range badSpecs() {
		add(row.spec)
	}
	for _, k := range Kinds() {
		add(Spec{Kind: k, N: 40, TotalLoad: 2001, Seed: 9})
	}
	add(Spec{Kind: CorrelatedFailure, N: 7, TotalLoad: math.MaxInt, MTBF: math.MaxFloat64, MTTR: 5e-324, DelayPerTask: math.Inf(1)})
	add(Spec{Kind: Hotspot, N: 3, TotalLoad: math.MaxInt, HotspotNodes: 3, MTTR: math.MaxFloat64})
	f.Fuzz(func(t *testing.T, kind, n, load int, seed uint64, mtbf, mttr, delay float64, hot int) {
		sp := Spec{Kind: Kind(kind), N: int(uint(n+8)%4105) - 8, TotalLoad: load, Seed: seed,
			MTBF: mtbf, MTTR: mttr, DelayPerTask: delay, HotspotNodes: hot}
		sc, err := Generate(sp)
		if err != nil {
			return
		}
		if err := sc.Params.Validate(); err != nil {
			t.Fatalf("%+v: accepted scenario has invalid params: %v", sp, err)
		}
		for _, l := range []int{len(sc.Params.ProcRate), len(sc.Params.FailRate), len(sc.Params.RecRate),
			len(sc.InitialLoad), len(sc.InitialUp)} {
			if l != sp.N {
				t.Fatalf("%+v: array of %d entries for %d nodes", sp, l, sp.N)
			}
		}
		if sc.Group != nil && len(sc.Group) != sp.N {
			t.Fatalf("%+v: %d groups for %d nodes", sp, len(sc.Group), sp.N)
		}
		queued := 0
		for i, q := range sc.InitialLoad {
			if q < 0 {
				t.Fatalf("%+v: node %d queues %d tasks", sp, i, q)
			}
			queued += q
		}
		if queued > sp.TotalLoad {
			t.Fatalf("%+v: %d tasks queued of %d", sp, queued, sp.TotalLoad)
		}
	})
}
