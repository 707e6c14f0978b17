package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"churnlb/internal/obs"
	"churnlb/internal/obs/rerun"
	"churnlb/internal/policy"
)

func TestLbdBadFlagsRejected(t *testing.T) {
	var out, errb bytes.Buffer
	for _, tc := range [][]string{
		{"-no-such-flag"},
		{"-churn", "lunar"},
		{"-policy", "nonsense"},
		{"-balance", "nonsense"},
		{"-rate", "0"},
		{"-nodes", "0"},
	} {
		if code := run(tc, &out, &errb, nil); code != 2 {
			t.Fatalf("%v: exit %d, want 2 (stderr: %s)", tc, code, errb.String())
		}
	}
}

// TestLbdEndToEnd drives a full small run: live daemon, sim twin,
// calibration gate, CSV artifacts, and a manifest that reproduce-style
// replay verifies bit for bit.
func TestLbdEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a live daemon for ~1s of wall time")
	}
	dir := t.TempDir()
	man := filepath.Join(dir, "run.json")
	var out, errb bytes.Buffer
	// No churn: sim and live agree on availability exactly, so even a
	// tight MAPE gate passes deterministically on a loaded CI machine.
	code := run([]string{
		"-nodes", "3", "-procrate", "40", "-rate", "20", "-horizon", "2",
		"-timescale", "10", "-window", "0.5", "-policy", "jsq", "-balance", "lbp2",
		"-seed", "3", "-out", dir, "-manifest", man, "-maxavailmape", "0.05",
	}, &out, &errb, nil)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	for _, want := range []string{"live: served", "calibration (sim twin vs live)", "availability"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
	for _, f := range []string{"lbd_timeseries.csv", "lbd_calibration.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("artifact %s: %v", f, err)
		}
	}
	m, err := obs.LoadManifest(man)
	if err != nil {
		t.Fatal(err)
	}
	if m.Mode != obs.ModeDaemon || len(m.Metrics) == 0 || len(m.LiveMetrics) == 0 {
		t.Fatalf("manifest incomplete: mode %q, %d metrics, %d live metrics",
			m.Mode, len(m.Metrics), len(m.LiveMetrics))
	}
	rep, err := rerun.Run(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("manifest did not reproduce: diffs %v missing %v extra %v",
			rep.Diffs, rep.Missing, rep.Extra)
	}
}

// TestLbdInterrupted: a pre-closed interrupt channel is a SIGINT before
// the first arrival — the run drains, flushes the time series, skips
// the twin/manifest, and still exits 0.
func TestLbdInterrupted(t *testing.T) {
	dir := t.TempDir()
	closed := make(chan struct{})
	close(closed)
	var out, errb bytes.Buffer
	code := run([]string{
		"-nodes", "2", "-procrate", "40", "-rate", "20", "-horizon", "5",
		"-timescale", "10", "-out", dir, "-manifest", filepath.Join(dir, "run.json"),
	}, &out, &errb, closed)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "interrupted") {
		t.Fatalf("no interruption note:\n%s", out.String())
	}
	if strings.Contains(out.String(), "calibration (sim twin vs live)") {
		t.Fatalf("interrupted run still calibrated:\n%s", out.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "lbd_timeseries.csv")); err != nil {
		t.Fatalf("time series not flushed on interrupt: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "run.json")); err == nil {
		t.Fatal("interrupted run wrote a manifest (partial trace is not replayable)")
	}
}

// TestPolicyHelpMatchesTable: -policy advertises exactly internal/policy's
// routers, -balance its policies less lbp1 (two-node only, refused here).
func TestPolicyHelpMatchesTable(t *testing.T) {
	var out, errb bytes.Buffer
	run([]string{"-h"}, &out, &errb, nil)
	var balances []string
	for _, name := range policy.Names() {
		if name != "lbp1" {
			balances = append(balances, name)
		}
	}
	for _, want := range []string{
		"routing policy: " + strings.Join(policy.RouterNames(), ", ") + " (default",
		"balancing policy (eq.-(8) failure plan): " + strings.Join(balances, ", ") + " (default",
	} {
		if !strings.Contains(errb.String(), want) {
			t.Fatalf("-h does not advertise %q:\n%s", want, errb.String())
		}
	}
	if code := run([]string{"-balance", "lbp1"}, &out, &errb, nil); code != 2 {
		t.Fatalf("-balance lbp1: exit %d, want 2", code)
	}
}
