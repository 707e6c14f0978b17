package calib_test

import (
	"errors"
	"sort"
	"testing"

	"churnlb/internal/calib"
	"churnlb/internal/obs"
	"churnlb/internal/obs/rerun"
)

// TestSimTwinDeterministic: the simulator twin of a daemon manifest —
// its recorded trace spec regenerated and served under the manifest's
// router and balancing policy — is a pure function of the manifest, and
// it serves every traced task. Malformed spellings are refused as faults
// of the description.
func TestSimTwinDeterministic(t *testing.T) {
	m := obs.NewManifest("lbd", obs.ModeDaemon)
	m.Seed = 7
	m.System = &obs.SystemRef{
		ProcRate:     []float64{10, 10, 10, 10},
		FailRate:     []float64{0.1, 0, 0, 0},
		RecRate:      []float64{1, 1, 1, 1},
		DelayPerTask: 0.01,
	}
	m.Policy = obs.PolicyRef{Name: "jsq", K: 0.5}
	m.Balance = "lbp2"
	m.Rate = 15
	m.Batch = 1
	m.Horizon = 20
	m.Window = 1

	tr, err := calib.TraceSpec{Seed: m.Seed, Rate: m.Rate, Horizon: m.Horizon, Batch: m.Batch}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	a, err := rerun.Execute(m, rerun.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := rerun.Execute(m, rerun.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	ma, mb := calib.SummaryMetrics("", a.Serve.Summary), calib.SummaryMetrics("", b.Serve.Summary)
	if len(ma) == 0 {
		t.Fatal("twin produced no metrics")
	}
	keys := make([]string, 0, len(ma))
	for k := range ma {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if mb[k] != ma[k] {
			t.Fatalf("twin not deterministic: %s %v vs %v", k, ma[k], mb[k])
		}
	}
	if int(ma["completed"]) != len(tr) {
		t.Fatalf("twin completed %v of %d traced tasks", ma["completed"], len(tr))
	}
	// Spellings resolve through internal/policy; two-node LBP-1 would
	// panic on an N-node cluster and is refused by name.
	for _, mod := range []func(*obs.Manifest){
		func(b *obs.Manifest) { b.Policy.Name = "bogus" },
		func(b *obs.Manifest) { b.Balance = "bogus" },
		func(b *obs.Manifest) { b.Balance = "lbp1" },
	} {
		bad := *m
		mod(&bad)
		var spec *rerun.SpecError
		if _, err := rerun.Execute(&bad, rerun.Hooks{}); !errors.As(err, &spec) {
			t.Fatalf("policy %q balance %q: got %v, want a SpecError", bad.Policy.Name, bad.Balance, err)
		}
	}
}
