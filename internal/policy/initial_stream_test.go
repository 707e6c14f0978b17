package policy_test

import (
	"fmt"
	"testing"

	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/scenario"
)

// checkStream fails unless pol streams exactly the episode its
// materialising oracle builds, transfer for transfer and in order.
func checkStream(t *testing.T, pol policy.Policy, v model.StateView, p model.Params) {
	t.Helper()
	want := policy.OracleInitial(pol, v, p)
	var got []model.Transfer
	pol.EachInitial(v, p, func(tr model.Transfer) { got = append(got, tr) })
	if len(got) != len(want) {
		t.Fatalf("%s streamed %d transfers, the oracle built %d", pol.Name(), len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: transfer %d streamed as %+v, the oracle built %+v", pol.Name(), i, got[i], want[i])
		}
	}
}

// initialPolicies is every policy with a t = 0 episode at gain k, with
// LBP-2's two ablations as given; LBP-1 only on two nodes.
func initialPolicies(n int, k float64, speedBlind, availBlind bool) []policy.Policy {
	lbp2 := policy.LBP2{K: k, SpeedBlind: speedBlind, AvailabilityBlind: availBlind}
	pols := []policy.Policy{policy.NoBalance{}, lbp2, policy.LBP1Multi{K: k}, policy.Dynamic{Base: lbp2}}
	if n == 2 {
		for _, sender := range []int{policy.AutoSender, 0, 1} {
			pols = append(pols, policy.LBP1{K: k, Sender: sender})
		}
	}
	return pols
}

// TestInitialStreamMatchesOracle: every policy's EachInitial hands over the
// episode its materialising body built, on every scenario family, at two,
// three, 10² and 10³ nodes, at two gains and under both LBP-2 ablations.
func TestInitialStreamMatchesOracle(t *testing.T) {
	for _, kind := range scenario.Kinds() {
		for _, n := range []int{2, 3, 100, 1000} {
			sc, err := scenario.Generate(scenario.Spec{Kind: kind, N: n, TotalLoad: 100 * n, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			v := model.SnapshotView{State: model.State{Queues: sc.InitialLoad, Up: sc.InitialUp}}
			t.Run(fmt.Sprintf("%v/n=%d", kind, n), func(t *testing.T) {
				for _, k := range []float64{0.5, 1} {
					for _, speedBlind := range []bool{false, true} {
						for _, availBlind := range []bool{false, true} {
							for _, pol := range initialPolicies(n, k, speedBlind, availBlind) {
								checkStream(t, pol, v, sc.Params)
							}
						}
					}
				}
			})
		}
	}
}

// FuzzInitialEpisode holds EachInitial to the oracle on small random
// states: two to eight nodes, queues up to 255, rates and a gain from the
// input's bytes, every policy and ablation.
func FuzzInitialEpisode(f *testing.F) {
	f.Add([]byte{0, 100, 60, 7, 3, 9, 200})
	f.Add([]byte{1, 3, 1, 1, 255, 255, 255, 128, 64})
	f.Add([]byte{6, 0, 0, 0, 0, 0, 0, 0, 250, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{4, 50, 50, 50, 50, 50, 50, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) int {
			if len(data) == 0 {
				return 0
			}
			return int(data[i%len(data)])
		}
		n := 2 + at(0)%7
		p := model.Params{
			ProcRate: make([]float64, n),
			FailRate: make([]float64, n),
			RecRate:  make([]float64, n),
		}
		queues, up := make([]int, n), make([]bool, n)
		for i := 0; i < n; i++ {
			queues[i] = at(1 + i)
			r := at(1 + n + i)
			p.ProcRate[i] = 0.25 + float64(r)/32
			p.FailRate[i] = float64(r%16) / 64
			p.RecRate[i] = 0.05 + float64(r/16)/8
			up[i] = true
		}
		k := float64(at(1+2*n)) / 255
		v := model.SnapshotView{State: model.State{Queues: queues, Up: up}}
		for _, speedBlind := range []bool{false, true} {
			for _, availBlind := range []bool{false, true} {
				for _, pol := range initialPolicies(n, k, speedBlind, availBlind) {
					checkStream(t, pol, v, p)
				}
			}
		}
	})
}
