package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"churnlb/internal/obs"
	"churnlb/internal/obs/rerun"
	"churnlb/internal/policy"
	"churnlb/internal/testkit"
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
		{"-paper", "-nodes", "4"},
		{"-paper", "-delta", "0.02"},
		{"-paper", "-load", "-5,3", "-rate", "0"},
		{"-paper", "-load", "100,sixty"},
		{"-load", "100,60"},
		{"-window", "+Inf"},
		{"-window", "-1"},
		{"-policy", "lew", "-d", "-5"}, // lew samples within [0, nodes]
		{"-policy", "lew", "-d", "9"},
		// The daemon's own refusals come before the header too.
		{"-timescale", "NaN", "-rate", "5", "-horizon", "1", "-nodes", "2"},
		{"-timescale", "+Inf", "-rate", "5", "-horizon", "1", "-nodes", "2"},
		{"-stateinterval", "NaN", "-rate", "5", "-horizon", "1", "-nodes", "2"},
	} {
		out.Reset()
		if code := run(tc, &out, &errb, nil); code != 2 {
			t.Fatalf("%v: exit %d, want 2 (stderr: %s)", tc, code, errb.String())
		}
		if out.Len() != 0 {
			t.Fatalf("%v: refused, but printed %q", tc, out.String())
		}
	}
}

// An arrival stream expected to exceed the per-queue cap is refused
// before its trace is drawn, naming the cap, instead of drawing 10³⁰⁰
// arrivals.
func TestLbdHugeArrivalStreamRefused(t *testing.T) {
	var out, errb bytes.Buffer
	err := testkit.Deadline(t, 2*time.Second, func(stop <-chan struct{}) error {
		args := []string{"-nodes", "8", "-procrate", "20", "-rate", "1e300", "-horizon", "1"}
		if code := run(args, &out, &errb, stop); code != 2 {
			return fmt.Errorf("exit %d, want 2", code)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%v\nstderr:\n%s", err, errb.String())
	}
	if !strings.Contains(errb.String(), "cap") {
		t.Fatalf("stderr %q names no cap", errb.String())
	}
}

// A fleet above the daemon's worker cap is refused, naming the cap, before
// lbd builds its rate vectors: 10⁸ workers used to die out of memory there.
func TestLbdHugeFleetRefused(t *testing.T) {
	var out, errb bytes.Buffer
	err := testkit.Deadline(t, 2*time.Second, func(stop <-chan struct{}) error {
		if code := run([]string{"-nodes", "100000000", "-rate", "1", "-horizon", "1"}, &out, &errb, stop); code != 2 {
			return fmt.Errorf("exit %d, want 2", code)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%v\nstderr:\n%s", err, errb.String())
	}
	if !strings.Contains(errb.String(), "cap") {
		t.Fatalf("stderr %q names no cap", errb.String())
	}
}

// An infinite transfer delay is refused, naming it. It used to ship every
// bundle at once (the wall duration overflowed) and then hang the twin.
func TestLbdInfiniteDelayRefused(t *testing.T) {
	var out, errb bytes.Buffer
	err := testkit.Deadline(t, 2*time.Second, func(stop <-chan struct{}) error {
		args := []string{"-nodes", "4", "-rate", "10", "-horizon", "2", "-delta", "+Inf", "-mtbf", "1", "-mttr", "1", "-timescale", "50"}
		if code := run(args, &out, &errb, stop); code != 2 {
			return fmt.Errorf("exit %d, want 2", code)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%v\nstderr:\n%s", err, errb.String())
	}
	if !strings.Contains(errb.String(), "DelayPerTask") {
		t.Fatalf("stderr %q does not name DelayPerTask", errb.String())
	}
}

// TestLbdDynamicBalanceRefused: the live engine never rebalances at an
// arrival, while the twin of a -balance dynamic run did at every one, so
// the calibration compared two different runs (0 live transfers against
// the twin's 52). lbd exits 2 naming the policy before any worker starts.
func TestLbdDynamicBalanceRefused(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-nodes", "4", "-procrate", "2", "-rate", "12", "-horizon", "10", "-policy", "uniform",
		"-balance", "dynamic", "-k", "1", "-timescale", "20"}
	if code := run(args, &out, &errb, nil); code != 2 {
		t.Fatalf("exit %d, want 2 (stdout %q)", code, out.String())
	}
	if !strings.Contains(errb.String(), "dynamic") {
		t.Fatalf("stderr %q does not name the policy", errb.String())
	}
	if out.Len() != 0 {
		t.Fatalf("a refused run started: %q", out.String())
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

// TestLbdClosedPaperRun drives the paper's Section-3 testbed through the
// one front door: the two-node system's backlog, no arrivals, LBP-1. The
// live run must conserve every task, print both completion times, and
// write a manifest that replays bit for bit.
func TestLbdClosedPaperRun(t *testing.T) {
	man := filepath.Join(t.TempDir(), "closed.json")
	var out, errb bytes.Buffer
	code := run([]string{
		"-paper", "-load", "100,60", "-rate", "0", "-balance", "lbp1", "-k", "0.35",
		"-seed", "1", "-timescale", "2000", "-manifest", man,
	}, &out, &errb, nil)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	var live []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "live: ") {
			live = append(live, line)
		}
	}
	if len(live) != 2 || !strings.HasSuffix(live[1], "0 decode errors, 0 tasks lost") {
		t.Fatalf("live lines %q: the second must end \"0 decode errors, 0 tasks lost\"", live)
	}
	for _, want := range []string{"closed run on a backlog of [100 60] tasks", "live: served 160 of 160 tasks", "completion: live "} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
	m, err := obs.LoadManifest(man)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rate != 0 || !slices.Equal(m.InitialLoad, []int{100, 60}) || m.Balance != "lbp1" {
		t.Fatalf("manifest records rate %v, backlog %v, balance %q", m.Rate, m.InitialLoad, m.Balance)
	}
	rep, err := rerun.Run(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("closed manifest did not reproduce: diffs %v missing %v extra %v", rep.Diffs, rep.Missing, rep.Extra)
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

// TestLbdInterruptedMidRun: a signal 0.5 s into a paced trace lands
// while the driver waits for its next arrival. The run must say it was
// cut, and skip the calibration and the manifest of a run that did not
// happen.
func TestLbdInterruptedMidRun(t *testing.T) {
	dir := t.TempDir()
	intr := make(chan struct{})
	stop := time.AfterFunc(500*time.Millisecond, func() { close(intr) })
	defer stop.Stop()
	man := filepath.Join(dir, "m.json")
	var out, errb bytes.Buffer
	code := run([]string{
		"-nodes", "4", "-procrate", "5", "-rate", "10", "-horizon", "100", "-mtbf", "0",
		"-timescale", "10", "-manifest", man,
	}, &out, &errb, intr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "lbd: interrupted") {
		t.Fatalf("no interruption note:\n%s", out.String())
	}
	if strings.Contains(out.String(), "calibration (sim twin vs live)") {
		t.Fatalf("interrupted run still calibrated:\n%s", out.String())
	}
	if _, err := os.Stat(man); err == nil {
		t.Fatal("interrupted run wrote a manifest (partial trace is not replayable)")
	}
}

// TestPolicyHelpMatchesTable: -policy advertises exactly internal/policy's
// routers, -balance its policies but dynamic, lbp1 on two workers only
// (refused here, on the default eight).
func TestPolicyHelpMatchesTable(t *testing.T) {
	var out, errb bytes.Buffer
	run([]string{"-h"}, &out, &errb, nil)
	for _, want := range []string{
		"routing policy: " + strings.Join(policy.RouterNames(), ", ") + " (default",
		"balancing policy (eq.-(8) failure plan; lbp1 on two workers only): lbp1, lbp1multi, lbp2, none (default",
	} {
		if !strings.Contains(errb.String(), want) {
			t.Fatalf("-h does not advertise %q:\n%s", want, errb.String())
		}
	}
	if code := run([]string{"-balance", "lbp1"}, &out, &errb, nil); code != 2 {
		t.Fatalf("-balance lbp1: exit %d, want 2", code)
	}
}
