package sim

import (
	"math"
	"strings"
	"testing"

	"churnlb/internal/mc"
	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/xrand"
)

// planParams builds an n-node heterogeneous cluster whose eq.-(8) plan
// has non-trivial rows.
func planParams(n int) model.Params {
	p := model.Params{
		ProcRate:     make([]float64, n),
		FailRate:     make([]float64, n),
		RecRate:      make([]float64, n),
		DelayPerTask: 0.01,
	}
	for i := 0; i < n; i++ {
		p.ProcRate[i] = 5 + float64(i%7)
		p.FailRate[i] = 0.01 + 0.002*float64(i%3)
		p.RecRate[i] = 0.5 + 0.1*float64(i%4)
	}
	return p
}

// TestSharedFailurePlanBitIdentical proves a realisation given a
// prebuilt, shared plan reproduces the self-built run bit for bit: the
// plan is a pure function of Params, so supplying it must change cost,
// not behaviour.
func TestSharedFailurePlanBitIdentical(t *testing.T) {
	const n = 32
	p := planParams(n)
	load := make([]int, n)
	for i := range load {
		load[i] = 40 + 10*(i%5)
	}
	pol := policy.LBP2{K: 1}
	shared := policy.PlanFor(pol, p)
	if shared == nil {
		t.Fatal("LBP2 should plan")
	}
	if shared.Nodes() != n {
		t.Fatalf("plan Nodes() = %d, want %d", shared.Nodes(), n)
	}
	for seed := uint64(1); seed <= 5; seed++ {
		own, err := Run(Options{Params: p, Policy: pol, InitialLoad: load, Rand: xrand.New(seed)})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(Options{Params: p, Policy: pol, InitialLoad: load, Rand: xrand.New(seed), FailurePlan: shared})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.CompletionTime) != math.Float64bits(own.CompletionTime) {
			t.Fatalf("seed %d: shared-plan completion %v != self-built %v", seed, got.CompletionTime, own.CompletionTime)
		}
		if got.Failures != own.Failures || got.Recoveries != own.Recoveries ||
			got.TransfersSent != own.TransfersSent || got.TasksTransferred != own.TasksTransferred {
			t.Fatalf("seed %d: shared-plan counters %+v != self-built %+v", seed, got, own)
		}
	}
}

// TestSharedFailurePlanSizeMismatch proves a plan built for the wrong
// cluster size is rejected up front rather than indexed out of range
// mid-run.
func TestSharedFailurePlanSizeMismatch(t *testing.T) {
	pol := policy.LBP2{K: 1}
	wrong := policy.PlanFor(pol, planParams(8))
	p := planParams(16)
	_, err := Run(Options{
		Params:      p,
		Policy:      pol,
		InitialLoad: make([]int, 16),
		Rand:        xrand.New(1),
		FailurePlan: wrong,
	})
	if err == nil || !strings.Contains(err.Error(), "FailurePlan built for 8 nodes") {
		t.Fatalf("want size-mismatch error, got %v", err)
	}
}

// TestMonteCarloReportsMalformedParams: a study whose Params fail
// validation — here three processing rates beside one failure and one
// recovery rate, under LBP-2 — returns the validation error the first
// run reports, instead of panicking while it builds the shared plan.
func TestMonteCarloReportsMalformedParams(t *testing.T) {
	p := model.Params{ProcRate: []float64{1, 2, 3}, FailRate: []float64{0.1}, RecRate: []float64{1}}
	_, err := MonteCarlo(mc.Options{Reps: 2, Seed: 1, Workers: 1}, Options{Params: p, Policy: policy.LBP2{K: 1}, InitialLoad: []int{5, 5, 5}})
	if err == nil || !strings.Contains(err.Error(), "rate slices disagree") {
		t.Fatalf("err = %v, want the validation error", err)
	}
}
