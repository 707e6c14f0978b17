package policy_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/scenario"
)

// appendOnlyInitial is LBP2.Initial as it stood before the result was
// sized up front: the same loops appending to a nil slice. Kept here as
// the reference the sized version must equal, value for value and in
// order.
func appendOnlyInitial(l policy.LBP2, v model.StateView, p model.Params) []model.Transfer {
	var out []model.Transfer
	n := p.N()
	total := 0
	for i := 0; i < n; i++ {
		total += v.Queue(i)
	}
	totalProc := p.TotalProcRate()
	for j := 0; j < n; j++ {
		share := p.ProcRate[j] / totalProc
		if l.SpeedBlind {
			share = 1 / float64(n)
		}
		excessF := float64(v.Queue(j)) - share*float64(total)
		if excessF <= 0 {
			continue
		}
		excess := int(excessF)
		if excess == 0 {
			continue
		}
		var denom float64
		if n > 2 {
			for k := 0; k < n; k++ {
				if k == j {
					continue
				}
				denom += float64(v.Queue(k)) / p.ProcRate[k]
			}
		}
		sent := 0
		for i := 0; i < n; i++ {
			if i == j {
				continue
			}
			var frac float64
			switch {
			case n == 2:
				frac = 1
			case denom == 0:
				frac = 1 / float64(n-1)
			default:
				frac = (1 - (float64(v.Queue(i))/p.ProcRate[i])/denom) / float64(n-2)
			}
			tasks := int(math.Round(l.K * frac * float64(excess)))
			if tasks <= 0 {
				continue
			}
			if sent+tasks > v.Queue(j) {
				tasks = v.Queue(j) - sent
			}
			if tasks <= 0 {
				break
			}
			sent += tasks
			out = append(out, model.Transfer{From: j, To: i, Tasks: tasks})
		}
	}
	return out
}

// initialBound recomputes, from the exported eq.-(6) excess, the bound the
// materialising LBP-2 body sized its result by (oracleLBP2): a transfer
// carries at least one task, so sender j emits at most
// min(n-1, m_j, 2K·excess_j) of them. Initial's exact count stays under it.
func initialBound(l policy.LBP2, v model.StateView, p model.Params) int {
	n := p.N()
	maxFrac := 1.0
	if n > 2 {
		maxFrac = 1 / float64(n-2)
	}
	bound := 0
	for j := 0; j < n; j++ {
		e := l.ExcessLoad(j, v, p)
		if e == 0 || math.Round(l.K*maxFrac*float64(e)) <= 0 {
			continue
		}
		bound += max(0, min(n-1, v.Queue(j), int(2*l.K*float64(e))+1))
	}
	return bound
}

func checkInitial(t *testing.T, l policy.LBP2, v model.StateView, p model.Params) {
	t.Helper()
	want := appendOnlyInitial(l, v, p)
	got := l.Initial(v, p)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Initial differs from the append-only loop: %d transfers, want %d", len(got), len(want))
	}
	if bound := initialBound(l, v, p); cap(got) > bound {
		t.Errorf("cap %d exceeds the bound %d (len %d)", cap(got), bound, len(got))
	}
	//lint:ignore viewretain the closure runs inside AllocsPerRun, before this call returns; v is an immutable snapshot
	if allocs := testing.AllocsPerRun(3, func() { l.Initial(v, p) }); allocs > 1 {
		t.Errorf("Initial allocates %v times, want at most once", allocs)
	}
	// The stream hands over the same episode, and streaming it allocates
	// nothing.
	var streamed []model.Transfer
	l.EachInitial(v, p, func(tr model.Transfer) { streamed = append(streamed, tr) })
	if len(streamed) != len(want) || (len(want) > 0 && !reflect.DeepEqual(streamed, want)) {
		t.Fatalf("EachInitial streamed %d transfers, want Initial's %d", len(streamed), len(want))
	}
	count := 0
	//lint:ignore viewretain the closure runs inside AllocsPerRun, before this call returns; v is an immutable snapshot
	if allocs := testing.AllocsPerRun(3, func() { l.EachInitial(v, p, func(model.Transfer) { count++ }) }); allocs != 0 {
		t.Errorf("streaming the episode allocates %v times, want 0", allocs)
	}
}

// TestLBP2InitialSizedOnce: sizing the result from the first pass changes
// neither the values nor the order of the transfers, the capacity stays
// inside the documented bound — so the bound was never exceeded and the
// slice never regrew — and the call allocates once.
func TestLBP2InitialSizedOnce(t *testing.T) {
	for _, kind := range scenario.Kinds() {
		for _, n := range []int{2, 3, 100, 1000} {
			sc, err := scenario.Generate(scenario.Spec{Kind: kind, N: n, TotalLoad: 100 * n, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			v := model.SnapshotView{State: model.State{Queues: sc.InitialLoad, Up: sc.InitialUp}}
			for _, blind := range []bool{false, true} {
				for _, k := range []float64{0.5, 1} {
					l := policy.LBP2{K: k, SpeedBlind: blind}
					t.Run(fmt.Sprintf("%v/n=%d/blind=%v/K=%v", kind, n, blind, k), func(t *testing.T) {
						checkInitial(t, l, v, sc.Params)
					})
				}
			}
		}
	}
}

// TestLBP2InitialRoundsPastExcess pins why the bound is 2K·excess and not
// the excess itself: with three equal nodes and one spare task, both
// receivers' K·p_ij·excess is exactly 1/2, both round up, and the sender
// emits two transfers out of an excess of one.
func TestLBP2InitialRoundsPastExcess(t *testing.T) {
	p := model.Params{
		ProcRate: []float64{1, 1, 1},
		FailRate: []float64{0, 0, 0},
		RecRate:  []float64{0, 0, 0},
	}
	v := model.SnapshotView{State: model.State{Queues: []int{3, 1, 1}, Up: []bool{true, true, true}}}
	l := policy.LBP2{K: 1}
	if e := l.ExcessLoad(0, v, p); e != 1 {
		t.Fatalf("excess %d, want 1", e)
	}
	if got := l.Initial(v, p); len(got) != 2 {
		t.Fatalf("%d transfers, want 2: %+v", len(got), got)
	}
	checkInitial(t, l, v, p)
}
