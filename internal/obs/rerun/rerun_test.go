package rerun

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"churnlb/internal/model"
	"churnlb/internal/obs"
	"churnlb/internal/policy"
	"churnlb/internal/sim"
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

// TestRerunShardedManifestsRejected: manifests written while lbsim and
// lbserve still took -shards — an lbsim study and an lbserve run, both
// with -shards 2 and saved by those tools then — record a realisation of
// the removed domain-sharded engine. Execute refuses them as a SpecError
// naming that engine instead of replaying the sequential engine's
// different realisation into a metric diff.
func TestRerunShardedManifestsRejected(t *testing.T) {
	for _, name := range []string{"shards-mc.json", "shards-serve.json"} {
		t.Run(name, func(t *testing.T) {
			m, err := obs.LoadManifest(filepath.Join("testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			if m.Shards != 2 {
				t.Fatalf("%s records shards %d, want 2", name, m.Shards)
			}
			var bad *SpecError
			if _, err := Execute(m, Hooks{}); !errors.As(err, &bad) || !strings.Contains(err.Error(), "sharded engine") {
				t.Fatalf("got %v, want a SpecError naming the sharded engine", err)
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

	// A gain outside [0, 1] is a fault in the description, whichever
	// front end's manifest records it.
	m = obs.NewManifest("lbsim", obs.ModeMC)
	m.System = &obs.SystemRef{ProcRate: []float64{1.08, 1.86}, FailRate: []float64{0.05, 0.05}, RecRate: []float64{0.1, 0.05}}
	m.InitialLoad = []int{10, 6}
	m.Reps = 2
	for _, name := range []string{"lbp1", "lbp2", "lbp1multi", "dynamic"} {
		for _, k := range []float64{-1, 2} {
			m.Policy = obs.PolicyRef{Name: name, K: k}
			rejected(fmt.Sprintf("lbsim %s K=%v", name, k), m)
		}
	}
	m = obs.NewManifest("lbserve", obs.ModeServe)
	m.Scenario = &obs.ScenarioRef{Kind: "uniform", Nodes: 4}
	m.Policy = obs.PolicyRef{Name: "dynlbp2", K: 2}
	m.Rate, m.Horizon = 5, 2
	rejected("lbserve dynlbp2 K=2", m)
	m = daemonManifest()
	m.Policy.K = 2
	rejected("lbd lbp2 K=2", m)
}

// TestInterruptOnlyWhereHonoured: the interrupt hook reaches a single
// serving run, which then reports the cut.
func TestInterruptOnlyWhereHonoured(t *testing.T) {
	cut := make(chan struct{})
	close(cut)
	m := obs.NewManifest("lbserve", obs.ModeServe)
	m.Seed = 2
	m.Scenario = &obs.ScenarioRef{Kind: "hotspot", Nodes: 20, Delta: 0.02}
	m.Policy = obs.PolicyRef{Name: "pod2"}
	m.Rate = 30
	m.Horizon = 3
	out, err := Execute(m, Hooks{Interrupt: cut})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Serve.Interrupted {
		t.Fatal("interrupt hook not honoured")
	}
}

// daemonManifest is a small lbd calibration run: four workers, one of
// them churning, JSQ dispatch over LBP-2's failure plan.
func daemonManifest() *obs.Manifest {
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
	return m
}

// TestRerunDaemon: a daemon manifest replays its deterministic half —
// the simulator twin of the recorded trace — bit-for-bit, while the
// live measurements ride along uncompared; a malformed one is a fault of
// the description for both halves.
func TestRerunDaemon(t *testing.T) {
	m := daemonManifest()
	m.LiveMetrics = map[string]float64{"live_p50": 0.044} // never replayed

	record(t, m)
	if len(m.Metrics) == 0 {
		t.Fatal("daemon replay produced no twin metrics")
	}
	verify(t, m, nil)
	opt, err := DaemonOptions(m)
	if err != nil {
		t.Fatal(err)
	}
	if int(m.Metrics["completed"]) != len(opt.Trace) {
		t.Fatalf("twin completed %v of %d traced tasks", m.Metrics["completed"], len(opt.Trace))
	}

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

	// Malformed daemon manifests are SpecErrors (the CLIs' exit 2), for
	// the live half and the twin alike. Two-node LBP-1 would panic on an
	// N-node cluster and is refused by name.
	for _, c := range []struct {
		what string
		mod  func(*obs.Manifest)
	}{
		{"no system ref", func(b *obs.Manifest) { b.System = nil }},
		{"unknown churn law", func(b *obs.Manifest) { b.Churn = "lunar" }},
		{"unknown router", func(b *obs.Manifest) { b.Policy.Name = "bogus" }},
		{"unknown balance", func(b *obs.Manifest) { b.Balance = "bogus" }},
		{"lbp1 on four workers", func(b *obs.Manifest) { b.Balance = "lbp1" }},
		{"neither trace nor backlog", func(b *obs.Manifest) { b.Rate = 0 }},
		{"ragged load", func(b *obs.Manifest) { b.InitialLoad = []int{5, 5} }},
		{"negative load", func(b *obs.Manifest) { b.InitialLoad = []int{5, -1, 0, 0} }},
	} {
		bad := *m
		c.mod(&bad)
		var spec *SpecError
		if _, err := Run(&bad, nil); !errors.As(err, &spec) {
			t.Errorf("%s: Run got %v, want a SpecError", c.what, err)
		}
		if _, err := DaemonOptions(&bad); !errors.As(err, &spec) {
			t.Errorf("%s: DaemonOptions got %v, want a SpecError", c.what, err)
		}
	}
	// On a two-worker fleet LBP-1 is the paper's own policy: accepted.
	two := *m
	two.System = &obs.SystemRef{ProcRate: []float64{10, 10}, FailRate: []float64{0.25, 0}, RecRate: []float64{0.5, 1}, DelayPerTask: 0.01}
	two.Balance = "lbp1"
	if _, err := Run(&two, nil); err != nil {
		t.Errorf("lbp1 on two workers: Run got %v", err)
	}
	if _, err := DaemonOptions(&two); err != nil {
		t.Errorf("lbp1 on two workers: DaemonOptions got %v", err)
	}
}

// TestDaemonOptions: the live half's options carry everything the
// manifest records, and each resolution builds its own router — a
// round-robin's rotation in the live run must not reach the twin.
func TestDaemonOptions(t *testing.T) {
	m := daemonManifest()
	m.Policy.Name = "rr"
	record(t, m)
	live, err := DaemonOptions(m)
	if err != nil {
		t.Fatal(err)
	}
	if live.Params.N() != 4 || live.Params.FailRate[0] != 0.25 || live.ChurnLaw != sim.ChurnDeterministic ||
		live.Batch != 1 || live.Window != 1 || live.Seed != 5 || live.TimeScale != 5 || live.StateInterval != 0.5 ||
		len(live.Trace) == 0 || live.Policy == nil {
		t.Fatalf("options do not carry the manifest: %+v", live)
	}
	again, err := DaemonOptions(m)
	if err != nil {
		t.Fatal(err)
	}
	if live.Router == again.Router {
		t.Fatal("two resolutions share one router instance")
	}
	for i := 0; i < 3; i++ {
		live.Router.Route(nil, live.Params, nil)
	}
	verify(t, m, nil)
}

// paperManifests returns a closed daemon manifest of the paper's two-node
// system — backlog (100,60), no arrivals, the given balancing policy — and
// the lbsim traced-realisation manifest of the same system, load, policy
// and seed.
func paperManifests(balance string, k float64, seed uint64) (closed, sim *obs.Manifest) {
	p := model.PaperBaseline()
	sys := &obs.SystemRef{ProcRate: p.ProcRate, FailRate: p.FailRate, RecRate: p.RecRate, DelayPerTask: p.DelayPerTask}
	closed = obs.NewManifest("lbd", obs.ModeDaemon)
	closed.Seed = seed
	closed.System = sys
	closed.InitialLoad = []int{100, 60}
	closed.Policy = obs.PolicyRef{Name: "jsq", K: k}
	closed.Balance = balance
	closed.Window = 0.1
	sim = obs.NewManifest("lbsim", obs.ModeSim)
	sim.Seed = seed
	sim.System = sys
	sim.InitialLoad = []int{100, 60}
	sim.Policy = obs.PolicyRef{Name: balance, K: k, Sender: policy.AutoSender}
	return closed, sim
}

// TestClosedDaemonTwinIsTheClosedRealisation: a closed daemon manifest —
// a backlog and no arrival stream — replays, and its twin is the
// simulator's closed realisation bit for bit: the realisation lbsim -trace
// draws for the same system, load, policy and seed.
func TestClosedDaemonTwinIsTheClosedRealisation(t *testing.T) {
	for _, c := range []struct {
		balance string
		k       float64
	}{{"lbp1", 0.35}, {"lbp2", 1}} {
		for seed := uint64(1); seed <= 3; seed++ {
			closed, simMan := paperManifests(c.balance, c.k, seed)
			record(t, closed)
			verify(t, closed, nil)
			twin, err := Execute(closed, Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := Execute(simMan, Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			got, ref := twin.Twin.Sim, want.Sim
			if got.CompletionTime != ref.CompletionTime || !slices.Equal(got.Processed, ref.Processed) ||
				got.Failures != ref.Failures || got.TransfersSent != ref.TransfersSent {
				t.Errorf("%s seed %d: twin (T %v, processed %v, %d failures, %d transfers) is not the closed realisation (T %v, processed %v, %d failures, %d transfers)",
					c.balance, seed, got.CompletionTime, got.Processed, got.Failures, got.TransfersSent,
					ref.CompletionTime, ref.Processed, ref.Failures, ref.TransfersSent)
			}
			if twin.Twin.Summary.Elapsed != ref.CompletionTime {
				t.Errorf("%s seed %d: twin elapsed %v, completion %v", c.balance, seed, twin.Twin.Summary.Elapsed, ref.CompletionTime)
			}
		}
	}
}
