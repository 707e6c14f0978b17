package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"churnlb/internal/obs"
	"churnlb/internal/obs/rerun"
)

// twoNodeManifest builds a small recorded mc manifest the way lbsim
// would: replay once through the shared loop and freeze the metrics.
func twoNodeManifest(t *testing.T) *obs.Manifest {
	t.Helper()
	m := obs.NewManifest("lbsim", obs.ModeMC)
	m.Seed = 5
	m.Reps = 15
	m.System = &obs.SystemRef{
		ProcRate:     []float64{1.0 / 3.0, 1.0 / 3.0},
		FailRate:     []float64{1.0 / 1800, 1.0 / 1800},
		RecRate:      []float64{1.0 / 60, 1.0 / 60},
		DelayPerTask: 0.02,
	}
	m.InitialLoad = []int{30, 10}
	m.Policy = obs.PolicyRef{Name: "lbp2", K: 1}
	rep, err := rerun.Run(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Metrics = rep.Metrics
	return m
}

// TestReplayManifestExitCodes: a faithful manifest verifies (exit 0), a
// tampered one fails (exit 1), an unreadable one is a usage error
// (exit 2).
func TestReplayManifestExitCodes(t *testing.T) {
	dir := t.TempDir()
	m := twoNodeManifest(t)

	good := filepath.Join(dir, "good.json")
	if err := m.Save(good); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-manifest", good}, &out, &errb); code != 0 {
		t.Fatalf("good manifest: exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "reproduced: "+good) {
		t.Fatalf("stdout missing verdict: %s", out.String())
	}

	m.Metrics["mean"] += 1
	bad := filepath.Join(dir, "bad.json")
	if err := m.Save(bad); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-manifest", bad}, &out, &errb); code != 1 {
		t.Fatalf("tampered manifest: exit %d, want 1 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "did NOT reproduce") {
		t.Fatalf("stderr missing failure verdict: %s", errb.String())
	}

	broken := filepath.Join(dir, "broken.json")
	if err := os.WriteFile(broken, []byte(`{"schema": 99, "mode": "mc"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-manifest", broken}, &out, &errb); code != 2 {
		t.Fatalf("schema-mismatch manifest: exit %d, want 2", code)
	}
	if code := run([]string{"-manifest", filepath.Join(dir, "absent.json")}, &out, &errb); code != 2 {
		t.Fatalf("missing manifest: exit %d, want 2", code)
	}
}

// TestReplayShardedManifestRejected: manifests recorded with -shards 2
// (an lbsim study and an lbserve run, saved by those tools while the
// domain-sharded engine existed) are faults of the description — exit 2,
// naming the removed engine — and never reach a metric diff.
func TestReplayShardedManifestRejected(t *testing.T) {
	for _, name := range []string{"shards-mc.json", "shards-serve.json"} {
		path := filepath.Join("..", "..", "internal", "obs", "rerun", "testdata", name)
		var out, errb bytes.Buffer
		if code := run([]string{"-manifest", path}, &out, &errb); code != 2 {
			t.Fatalf("%s: exit %d, want 2 (stderr: %s)", name, code, errb.String())
		}
		if !strings.Contains(errb.String(), "sharded engine") || strings.Contains(errb.String(), "did NOT reproduce") {
			t.Fatalf("%s: stderr does not name the removed engine: %s", name, errb.String())
		}
	}
}

// TestReplayMalformedDaemonManifest: a daemon manifest that names an
// unknown router or balancing policy, or the two-node lbp1 on its
// three-node cluster, is a fault of the description — exit 2, like a
// serve manifest naming an unknown policy — not a failed run.
func TestReplayMalformedDaemonManifest(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct{ name, router, balance string }{
		{"router-bogus", "bogus", "lbp2"},
		{"balance-bogus", "jsq", "bogus"},
		{"balance-lbp1", "jsq", "lbp1"},
	} {
		m := obs.NewManifest("lbd", obs.ModeDaemon)
		m.Seed = 1
		m.System = &obs.SystemRef{
			ProcRate: []float64{10, 10, 10}, FailRate: []float64{0.1, 0, 0}, RecRate: []float64{1, 1, 1},
			DelayPerTask: 0.01,
		}
		m.Policy = obs.PolicyRef{Name: c.router, K: 0.5}
		m.Balance = c.balance
		m.Rate, m.Batch, m.Horizon, m.Window = 10, 1, 4, 1
		path := filepath.Join(dir, c.name+".json")
		if err := m.Save(path); err != nil {
			t.Fatal(err)
		}
		var out, errb bytes.Buffer
		if code := run([]string{"-manifest", path}, &out, &errb); code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr: %s)", c.name, code, errb.String())
		}
	}
}

// TestReplayLBP1OnThreeNodesRefused: a recorded two-node-policy study on
// three nodes used to panic in the replay; it is a fault of the
// description (exit 2).
func TestReplayLBP1OnThreeNodesRefused(t *testing.T) {
	m := obs.NewManifest("lbsim", obs.ModeMC)
	m.Seed, m.Reps = 1, 3
	m.System = &obs.SystemRef{
		ProcRate: []float64{1, 1, 1}, FailRate: []float64{0.05, 0.05, 0.05}, RecRate: []float64{0.1, 0.1, 0.1},
		DelayPerTask: 0.02,
	}
	m.InitialLoad = []int{10, 6, 3}
	m.Policy = obs.PolicyRef{Name: "lbp1", K: 0.5, Sender: -1}
	path := filepath.Join(t.TempDir(), "lbp1-3.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-manifest", path}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "two-node") {
		t.Fatalf("stderr %q does not say lbp1 is two-node", errb.String())
	}
}
