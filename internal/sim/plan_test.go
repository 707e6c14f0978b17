package sim

import (
	"testing"
	"testing/quick"

	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/xrand"
)

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

// churnHeavyParams scales randomParams' failure rates up an order of
// magnitude and slows recoveries, so realisations spend their events on
// failure episodes — the path under test — rather than completions.
func churnHeavyParams(rng *xrand.Rand, n int) (model.Params, []int) {
	p, load := randomParams(rng, n)
	for i := 0; i < n; i++ {
		p.FailRate[i] = 0.2 + 0.8*rng.Float64()
		p.RecRate[i] = 0.5 + rng.Float64()
	}
	return p, load
}

// planPolicy draws one of the failure-planning configurations: every
// LBP-2 ablation and the Dynamic wrapper.
func planPolicy(raw uint8) policy.Policy {
	switch raw % 4 {
	case 0:
		return policy.LBP2{K: 1}
	case 1:
		return policy.LBP2{K: 1, SpeedBlind: true}
	case 2:
		return policy.LBP2{K: 1, AvailabilityBlind: true}
	default:
		return policy.Dynamic{Base: policy.LBP2{K: 1}}
	}
}

// referenceScan returns the eq.-(8) scan pol's plan must reproduce: its
// LBP-2, bare or under Dynamic; ok is false for a planless policy.
func referenceScan(pol policy.Policy) (scan policy.LBP2, ok bool) {
	switch p := pol.(type) {
	case policy.LBP2:
		return p, true
	case policy.Dynamic:
		return referenceScan(p.Base)
	}
	return policy.LBP2{}, false
}

// TestFailurePlanMatchesPolicyEveryFailure is the in-situ counterpart of
// the policy package's plan-vs-scan property: replaying whole churn-heavy
// realisations — completions, transfers, arrivals and recoveries all
// mutating the queues between failures — the precomputed eq.-(8) plan
// must produce transfer-for-transfer the episode LBP-2's naive
// per-receiver scan produces for the same instant, at every single
// failure, for every LBP-2 ablation and for the Dynamic wrapper, traced
// or not. The planless policies (none, LBP-1-multi, and LBP-1 on two
// nodes) build no plan, and their runs ship nothing at any failure: every
// task they transfer left in the t = 0 episode. It mirrors the index
// probe test for the load index.
func TestFailurePlanMatchesPolicyEveryFailure(t *testing.T) {
	t.Parallel()
	mismatches, episodes, planless := 0, 0, 0
	f := func(seed uint16, nRaw, polRaw uint8) bool {
		rng := xrand.NewStream(uint64(seed), 31)
		n := 2 + int(nRaw)%6
		var pol policy.Policy
		switch polRaw % 8 {
		case 4:
			pol = policy.NoBalance{}
		case 5:
			pol = policy.LBP1Multi{K: 0.8}
		case 6:
			pol, n = policy.LBP1{K: 0.5, Sender: policy.AutoSender}, 2
		default:
			pol = planPolicy(polRaw)
		}
		p, load := churnHeavyParams(rng, n)
		scan, planned := referenceScan(pol)
		res, err := Run(Options{
			Params:      p,
			Policy:      pol,
			InitialLoad: load,
			Rand:        rng,
			Trace:       polRaw/8%2 == 1, // a traced run keeps its plan
			// The probe fires between the node going down and its episode:
			// the state both derivations read is the state fail() ships from.
			probe: func(s *simState, kind EventKind, failed int) {
				if kind != EvFailure {
					return
				}
				if !planned {
					if s.fplan != nil {
						t.Fatalf("%s run built a failure plan", pol.Name())
					}
					planless++
					return
				}
				if s.fplan == nil {
					t.Fatalf("%s run built no failure plan", pol.Name())
				}
				episodes++
				got := s.fplan.Transfers(nil, failed, s.queueOf(failed))
				want := scan.OnFailure(failed, s.live, s.p)
				if !transfersEqual(got, want) {
					mismatches++
					t.Logf("failed=%d: plan %v, scan %v", failed, got, want)
				}
			},
		})
		if err != nil {
			t.Log(err)
			return false
		}
		if !planned {
			up := make([]bool, n)
			for i := range up {
				up[i] = true
			}
			t0 := 0
			for _, tr := range policy.CollectInitial(pol, model.SnapshotView{State: model.State{Queues: load, Up: up}}, p) {
				t0 += tr.Tasks
			}
			if res.TasksTransferred != t0 {
				t.Errorf("%s run transferred %d tasks, %d of them at t = 0: a failure shipped", pol.Name(), res.TasksTransferred, t0)
				return false
			}
		}
		// An unlucky draw can roll an all-zero initial load; that
		// realisation legitimately completes at t = 0.
		total := 0
		for _, q := range load {
			total += q
		}
		return (total == 0 || res.CompletionTime > 0) && mismatches == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 160}); err != nil {
		t.Fatal(err)
	}
	if episodes == 0 || planless == 0 {
		t.Fatalf("the probe saw %d planned and %d planless failures — a kind went unexercised", episodes, planless)
	}
	if mismatches > 0 {
		t.Fatalf("plan diverged from the reference scan %d of %d episodes", mismatches, episodes)
	}
}
