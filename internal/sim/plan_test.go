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

// scanPolicy hides every capability of the policy it wraps except the
// Policy methods themselves: a run given one builds no failure plan, so
// every episode comes from the naive per-receiver OnFailure scan over the
// live view — the path policies without the FailurePlanner capability
// always take. hidePlanner keeps per-arrival balancing working.
type scanPolicy struct{ policy.Policy }

// scanBalancer is scanPolicy for a wrapped ArrivalBalancer (Dynamic).
type scanBalancer struct {
	scanPolicy
	ab policy.ArrivalBalancer
}

func (b scanBalancer) OnArrival(node int, v model.StateView, p model.Params) []model.Transfer {
	return b.ab.OnArrival(node, v, p)
}

func hidePlanner(pol policy.Policy) policy.Policy {
	if ab, ok := pol.(policy.ArrivalBalancer); ok {
		return scanBalancer{scanPolicy{pol}, ab}
	}
	return scanPolicy{pol}
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

// TestFailurePlanMatchesPolicyEveryFailure is the in-situ counterpart of
// the policy package's plan-vs-scan property: replaying whole churn-heavy
// realisations — completions, transfers, arrivals and recoveries all
// mutating the queues between failures — the precomputed eq.-(8) plan
// must produce transfer-for-transfer the episode the installed policy's
// naive per-receiver scan produces for the same instant, at every single
// failure, for every LBP-2 ablation and for the Dynamic wrapper, traced
// or not. It mirrors the index probe test for the load index.
func TestFailurePlanMatchesPolicyEveryFailure(t *testing.T) {
	t.Parallel()
	mismatches, episodes := 0, 0
	f := func(seed uint16, nRaw, polRaw uint8) bool {
		rng := xrand.NewStream(uint64(seed), 31)
		n := 2 + int(nRaw)%6
		p, load := churnHeavyParams(rng, n)
		res, err := Run(Options{
			Params:      p,
			Policy:      planPolicy(polRaw),
			InitialLoad: load,
			Rand:        rng,
			Trace:       polRaw%8 >= 4, // a traced run keeps its plan
			// The probe fires between the node going down and its episode:
			// the state both derivations read is the state fail() ships from.
			probe: func(s *simState, kind EventKind, failed int) {
				if kind != EvFailure {
					return
				}
				if s.fplan == nil {
					t.Fatalf("%s run built no failure plan", s.opt.Policy.Name())
				}
				episodes++
				planned := s.fplan.Transfers(nil, failed, s.queueOf(failed))
				naive := s.opt.Policy.OnFailure(failed, s.live, s.p)
				if !transfersEqual(planned, naive) {
					mismatches++
					t.Logf("failed=%d: plan %v, scan %v", failed, planned, naive)
				}
			},
		})
		if err != nil {
			t.Log(err)
			return false
		}
		// An unlucky draw can roll an all-zero initial load; that
		// realisation legitimately completes at t = 0.
		total := 0
		for _, q := range load {
			total += q
		}
		return (total == 0 || res.CompletionTime > 0) && mismatches == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
	if episodes == 0 {
		t.Fatal("failure-plan probe never fired — no run exercised a planned episode")
	}
	if mismatches > 0 {
		t.Fatalf("plan diverged from the reference scan %d of %d episodes", mismatches, episodes)
	}
}

// TestPlannedRunBitIdenticalToScan proves the end-to-end equivalence on
// the churn path: a run whose policy hides its FailurePlanner capability
// serves every failure from the per-call OnFailure scan, a run with the
// bare policy from the precomputed plan, and for the same seed both must
// realise exactly the same process — bit-identical Results — for every
// planning configuration, Dynamic's per-arrival balancing included.
func TestPlannedRunBitIdenticalToScan(t *testing.T) {
	for polRaw := uint8(0); polRaw < 4; polRaw++ {
		run := func(pol policy.Policy, wantPlan bool) *Result {
			rng := xrand.NewStream(23, 9)
			p, load := churnHeavyParams(rng, 5)
			res, err := Run(Options{
				Params:         p,
				Policy:         pol,
				InitialLoad:    load,
				Rand:           rng,
				ArrivalRate:    0.8,
				ArrivalBatch:   2,
				ArrivalHorizon: 20,
				probe: func(s *simState, _ EventKind, _ int) {
					if got := s.fplan != nil; got != wantPlan {
						t.Fatalf("%s run holds a plan: %v, want %v", pol.Name(), got, wantPlan)
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		pol := planPolicy(polRaw)
		scan, planned := run(hidePlanner(pol), false), run(pol, true)
		if !sameResult(scan, planned) {
			t.Errorf("%s: planned run diverged from the scan:\nscan:    %+v\nplanned: %+v", pol.Name(), scan, planned)
		}
		if planned.Failures == 0 || planned.TasksTransferred == 0 {
			t.Errorf("%s: realisation saw %d failures and shipped %d tasks — churn-heavy params did not churn",
				pol.Name(), planned.Failures, planned.TasksTransferred)
		}
	}
}
