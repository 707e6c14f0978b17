package rerun

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"churnlb/internal/obs"
)

// record runs a manifest once and freezes the outcome into it — exactly
// what the CLIs do: Execute, then store the Outcome's metrics (and
// decision summary). A second Run must then reproduce it bit-for-bit.
func record(t *testing.T, m *obs.Manifest) {
	t.Helper()
	rep, err := Run(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Metrics = rep.Metrics
	if rep.Decisions != nil {
		m.SetDecisions(*rep.Decisions)
	}
}

func verify(t *testing.T, m *obs.Manifest, decisionLog *bytes.Buffer) *Report {
	t.Helper()
	var w io.Writer
	if decisionLog != nil {
		w = decisionLog
	}
	rep, err := Run(m, w)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("replay did not reproduce: diffs %v missing %v extra %v hash %q vs %q",
			rep.Diffs, rep.Missing, rep.Extra, rep.HashWant, rep.HashGot)
	}
	return rep
}

// TestRerunServeWithDecisions: a traced serve manifest replays to the
// same metrics, the same decision hash, and a byte-identical JSONL
// stream on every replay.
func TestRerunServeWithDecisions(t *testing.T) {
	m := obs.NewManifest("lbserve", obs.ModeServe)
	m.Seed = 11
	m.Scenario = &obs.ScenarioRef{Kind: "hotspot", Nodes: 10, Load: 200, Delta: 0.02}
	m.Policy = obs.PolicyRef{Name: "lew"}
	m.Rate = 30
	m.Batch = 1
	m.Horizon = 5
	m.Window = 1

	// First pass with a tracer attached (Decisions set before recording so
	// the run attaches the tracer both times).
	m.Decisions = &obs.DecisionRef{K: 2}
	rep, err := Run(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decisions == nil || rep.Decisions.Records == 0 {
		t.Fatal("traced replay produced no decision records")
	}
	m.Metrics = rep.Metrics
	m.SetDecisions(*rep.Decisions)

	var log1, log2 bytes.Buffer
	verify(t, m, &log1)
	got := verify(t, m, &log2)
	if log1.Len() == 0 || !bytes.Equal(log1.Bytes(), log2.Bytes()) {
		t.Fatalf("decision streams differ across replays (%d vs %d bytes)", log1.Len(), log2.Len())
	}
	if got.HashGot != m.Decisions.Hash {
		t.Fatalf("hash %s, manifest %s", got.HashGot, m.Decisions.Hash)
	}
	if got.Decisions.K != 2 {
		t.Fatalf("replay priced k=%d, manifest recorded 2", got.Decisions.K)
	}

	// Tampering with a metric must be detected.
	m.Metrics["completed"]++
	tampered, err := Run(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tampered.OK() || len(tampered.Diffs) != 1 || tampered.Diffs[0].Key != "completed" {
		t.Fatalf("tampered metric not flagged: %+v", tampered.Diffs)
	}
}

// TestRerunServeMany: the pooled-sweep mode replays bit-for-bit.
func TestRerunServeMany(t *testing.T) {
	m := obs.NewManifest("lbserve", obs.ModeServeMany)
	m.Seed = 3
	m.Reps = 8
	m.Scenario = &obs.ScenarioRef{Kind: "uniform", Nodes: 8, Load: 100, Delta: 0.02}
	m.Policy = obs.PolicyRef{Name: "pod2"}
	m.Rate = 20
	m.Batch = 1
	m.Horizon = 4
	m.Window = 1
	record(t, m)
	verify(t, m, nil)
}

// TestRerunTwoNode: the lbsim mc and sim modes replay bit-for-bit,
// including non-default transfer/churn laws.
func TestRerunTwoNode(t *testing.T) {
	for _, mode := range []string{obs.ModeMC, obs.ModeSim} {
		m := obs.NewManifest("lbsim", mode)
		m.Seed = 7
		m.Reps = 20
		m.System = &obs.SystemRef{
			ProcRate:     []float64{1.0 / 3.0, 1.0 / 3.0},
			FailRate:     []float64{1.0 / 1800, 1.0 / 1800},
			RecRate:      []float64{1.0 / 60, 1.0 / 60},
			DelayPerTask: 0.02,
		}
		m.InitialLoad = []int{40, 20}
		m.Policy = obs.PolicyRef{Name: "lbp2", K: 1}
		m.Transfer = "pertask"
		m.Churn = "weibull"
		record(t, m)
		verify(t, m, nil)
	}
}

// TestRerunScenario: generated-cluster modes replay bit-for-bit under
// lazy churn.
func TestRerunScenario(t *testing.T) {
	for _, mode := range []string{obs.ModeSimScenario, obs.ModeMCScenario} {
		m := obs.NewManifest("lbsim", mode)
		m.Seed = 9
		m.Reps = 5
		m.Scenario = &obs.ScenarioRef{Kind: "flashcrowd", Nodes: 12, Load: 300, Delta: 0.02}
		m.Policy = obs.PolicyRef{Name: "lbp2", K: 1}
		m.LazyChurn = true
		record(t, m)
		verify(t, m, nil)
	}
}

// TestRerunManifestsThatNameAQueue: manifests written while lbsim and
// lbserve still took -queue carry a "queue" key — an lbsim study with
// "heap" and an lbserve decision-traced run with "calendar", both saved by
// those tools then. They load, ignore the key, and replay to the recorded
// metrics and decision hash.
func TestRerunManifestsThatNameAQueue(t *testing.T) {
	for _, queue := range []string{"heap", "calendar"} {
		t.Run(queue, func(t *testing.T) {
			path := filepath.Join("testdata", "queue-"+queue+".json")
			if b, err := os.ReadFile(path); err != nil || !bytes.Contains(b, []byte(`"queue": "`+queue+`"`)) {
				t.Fatalf("%s does not record queue %q (%v)", path, queue, err)
			}
			m, err := obs.LoadManifest(path)
			if err != nil {
				t.Fatal(err)
			}
			rep := verify(t, m, nil)
			if m.Decisions != nil && rep.HashGot == "" {
				t.Fatal("the manifest records a decision hash the replay did not recompute")
			}
		})
	}
}

// TestRerunRejects: unknown modes and malformed refs error cleanly, as
// faults of the description (the CLIs' exit 2) — unlike a run that fails.
func TestRerunRejects(t *testing.T) {
	rejected := func(what string, m *obs.Manifest) {
		t.Helper()
		var bad *SpecError
		if _, err := Run(m, nil); !errors.As(err, &bad) {
			t.Fatalf("%s: got %v, want a SpecError", what, err)
		}
	}
	rejected("unknown mode", obs.NewManifest("lbsim", "warp"))
	m := obs.NewManifest("lbsim", obs.ModeMC)
	m.Policy = obs.PolicyRef{Name: "lbp2"}
	rejected("missing system ref", m)
	m.System = &obs.SystemRef{ProcRate: []float64{1}, FailRate: []float64{1, 2}, RecRate: []float64{1}}
	rejected("mismatched rate vectors", m)
	m = obs.NewManifest("lbserve", obs.ModeServe)
	m.Policy = obs.PolicyRef{Name: "quantum"}
	rejected("unknown policy", m)
	m.Policy.Name = "jsq"
	rejected("missing scenario", m)

	// A well-formed description whose run fails is not a SpecError.
	m.Scenario = &obs.ScenarioRef{Kind: "uniform", Nodes: 4}
	var bad *SpecError
	if _, err := Run(m, nil); err == nil || errors.As(err, &bad) {
		t.Fatalf("zero-rate serve run: got %v, want a run error", err)
	}
}

// TestInterruptOnlyWhereHonoured: the interrupt hook reaches a single
// sequential serving run and nothing else — the sharded engine would
// refuse it, so a sharded run finishes.
func TestInterruptOnlyWhereHonoured(t *testing.T) {
	cut := make(chan struct{})
	close(cut)
	for _, shards := range []int{0, 2} {
		m := obs.NewManifest("lbserve", obs.ModeServe)
		m.Seed = 2
		m.Scenario = &obs.ScenarioRef{Kind: "hotspot", Nodes: 20, Delta: 0.02}
		m.Policy = obs.PolicyRef{Name: "pod2"}
		m.Rate = 30
		m.Horizon = 3
		m.Shards = shards
		out, err := Execute(m, Hooks{Interrupt: cut})
		if err != nil {
			t.Fatalf("shards %d: %v", shards, err)
		}
		if want := shards == 0; out.Serve.Interrupted != want {
			t.Fatalf("shards %d: interrupted %v, want %v", shards, out.Serve.Interrupted, want)
		}
	}
}

// TestRerunDaemon: a daemon manifest replays its deterministic half —
// the simulator twin of the recorded trace — bit-for-bit, while the
// live measurements ride along uncompared.
func TestRerunDaemon(t *testing.T) {
	m := obs.NewManifest("lbd", obs.ModeDaemon)
	m.Seed = 5
	m.System = &obs.SystemRef{
		ProcRate:     []float64{10, 10, 10, 10},
		FailRate:     []float64{0.25, 0, 0, 0},
		RecRate:      []float64{0.5, 1, 1, 1},
		DelayPerTask: 0.01,
	}
	m.Policy = obs.PolicyRef{Name: "jsq", K: 0.5}
	m.Balance = "lbp2"
	m.Churn = "det"
	m.Rate = 20
	m.Batch = 1
	m.Horizon = 8
	m.Window = 1
	m.TimeScale = 5
	m.StateInterval = 0.5
	m.LiveMetrics = map[string]float64{"live_p50": 0.044} // never replayed

	record(t, m)
	if len(m.Metrics) == 0 {
		t.Fatal("daemon replay produced no twin metrics")
	}
	verify(t, m, nil)

	// Perturbing the live side must not break reproduction...
	m.LiveMetrics["live_p50"] = 99
	verify(t, m, nil)
	// ...but perturbing the deterministic fingerprint must.
	m.Metrics["completed"]++
	rep, err := Run(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("perturbed twin fingerprint still reproduced")
	}
	m.Metrics["completed"]--

	// Malformed daemon manifests error cleanly.
	bad := obs.NewManifest("lbd", obs.ModeDaemon)
	bad.Policy = obs.PolicyRef{Name: "jsq"}
	if _, err := Run(bad, nil); err == nil {
		t.Fatal("daemon manifest without system ref accepted")
	}
	bad.System = m.System
	bad.Churn = "lunar"
	if _, err := Run(bad, nil); err == nil {
		t.Fatal("unknown churn law accepted")
	}
}
