package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"churnlb/internal/policy"
	"churnlb/internal/testkit"
)

func TestBadFlagsRejected(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb, nil); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
	if code := run([]string{"-policy", "nonsense"}, &out, &errb, nil); code != 2 {
		t.Fatalf("unknown policy: exit %d, want 2", code)
	}
	if code := run([]string{"-scenario", "nonsense"}, &out, &errb, nil); code != 2 {
		t.Fatalf("unknown scenario: exit %d, want 2", code)
	}
	if code := run([]string{"-rate", "0"}, &out, &errb, nil); code != 1 {
		t.Fatalf("zero rate: exit %d, want 1", code)
	}
}

// TestHostileArrivalFlagsRejected: the three commands that used to wedge
// the tool — `-rate +Inf` admitted tasks at t = 0 until killed, `-rate NaN`
// exited 0 having served nothing, `-batch 3000000000` wrapped the int32
// queue and never drained — exit 1 with the offending parameter on stderr.
// Each runs under a deadline wired to the interrupt channel, so a value
// that slips through fails its case instead of hanging the suite.
func TestHostileArrivalFlagsRejected(t *testing.T) {
	for _, c := range []struct{ flag, value, names string }{
		{"-rate", "+Inf", "Rate"},
		{"-rate", "NaN", "Rate"},
		{"-horizon", "NaN", "Horizon"},
		{"-batch", "3000000000", "Batch"},
		// A window that is not a finite width: +Inf used to run the whole
		// realisation and fail writing its manifest, -1 silently meant 0.
		{"-window", "+Inf", "Window"},
		{"-window", "-1", "Window"},
		// Finite, but 10³⁰⁰ tasks: refused before the first arrival.
		{"-rate", "1e300", "cap"},
	} {
		t.Run(c.flag+"="+c.value, func(t *testing.T) {
			var out, errb bytes.Buffer
			err := testkit.Deadline(t, 2*time.Second, func(stop <-chan struct{}) error {
				if code := run([]string{"-nodes", "20", c.flag, c.value}, &out, &errb, stop); code != 1 {
					return fmt.Errorf("exit %d, want 1", code)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%v\nstdout:\n%s\nstderr:\n%s", err, out.String(), errb.String())
			}
			if !strings.Contains(errb.String(), c.names) {
				t.Fatalf("stderr %q does not name %s", errb.String(), c.names)
			}
		})
	}
}

// TestZeroDelayRefused: the scenario generator reads a zero DelayPerTask
// as its default 0.02 s, so -delta 0 used to run with δ = 0.02 while
// printing "delta 0s" and recording "delta": 0. It exits 2 naming the
// rule.
func TestZeroDelayRefused(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-scenario", "uniform", "-nodes", "20", "-rate", "20", "-horizon", "5", "-delta", "0"}
	if code := run(args, &out, &errb, nil); code != 2 {
		t.Fatalf("exit %d, want 2 (stdout %q)", code, out.String())
	}
	if !strings.Contains(errb.String(), "default 0.02") {
		t.Fatalf("stderr %q does not name the generator's default", errb.String())
	}
}

// TestLewSampleSizeBounded: lew samples at most the cluster's nodes.
// -d 1000000000 used to spend 30 s of CPU on 20 arrivals, and -d -5
// silently scanned every node; both exit 2 at once naming the bound.
func TestLewSampleSizeBounded(t *testing.T) {
	for _, d := range []string{"1000000000", "-5"} {
		var out, errb bytes.Buffer
		err := testkit.Deadline(t, 2*time.Second, func(stop <-chan struct{}) error {
			args := []string{"-scenario", "uniform", "-policy", "lew", "-d", d, "-rate", "10", "-horizon", "2", "-nodes", "10"}
			if code := run(args, &out, &errb, stop); code != 2 {
				return fmt.Errorf("exit %d, want 2", code)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("-d %s: %v\nstderr:\n%s", d, err, errb.String())
		}
		if !strings.Contains(errb.String(), "[0, 10]") {
			t.Fatalf("-d %s: stderr %q does not name the bound", d, errb.String())
		}
	}
}

// A cluster above the simulator's node cap is refused, naming the cap,
// before the scenario is generated: 10⁹ nodes used to die out of memory.
func TestHugeClusterRefused(t *testing.T) {
	var out, errb bytes.Buffer
	err := testkit.Deadline(t, 2*time.Second, func(stop <-chan struct{}) error {
		if code := run([]string{"-nodes", "1000000000", "-rate", "1", "-horizon", "1"}, &out, &errb, stop); code != 2 {
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

// A serving sweep past the replication budget or the worker cap is
// refused, naming the cap, before the scenario is generated: 2·10⁹
// replications used to allocate their per-replication summaries first and
// die out of memory, and -workers became that many goroutines.
func TestHugeSweepRefused(t *testing.T) {
	base := []string{"-nodes", "10", "-policy", "jsq", "-rate", "10", "-horizon", "10"}
	for _, c := range []struct {
		args []string
		cap  string
	}{
		{[]string{"-reps", "2000000000"}, "mc.MaxRepBytes"},
		{[]string{"-reps", "4", "-workers", "100000000"}, "mc.MaxWorkers"},
	} {
		var out, errb bytes.Buffer
		err := testkit.Deadline(t, 2*time.Second, func(stop <-chan struct{}) error {
			if code := run(append(base, c.args...), &out, &errb, stop); code != 2 {
				return fmt.Errorf("exit %d, want 2", code)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v: %v\nstderr:\n%s", c.args, err, errb.String())
		}
		if !strings.Contains(errb.String(), c.cap) || out.Len() != 0 {
			t.Fatalf("%v: stderr %q does not name %s, or stdout %q is not empty", c.args, errb.String(), c.cap, out.String())
		}
	}
}

func TestServeRepsSmoke(t *testing.T) {
	base := []string{"-scenario", "uniform", "-nodes", "30", "-policy", "jsq",
		"-rate", "40", "-horizon", "10", "-reps", "5"}
	var out, errb bytes.Buffer
	if code := run(append(base, "-workers", "1"), &out, &errb, nil); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"reps 5", "p50", "pooled sojourn", "throughput", "availability"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
	// The estimate must not depend on the worker count.
	var out4 bytes.Buffer
	if code := run(append(base, "-workers", "4"), &out4, &errb, nil); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if out.String() != out4.String() {
		t.Fatalf("-workers changed the report:\n%s\nvs\n%s", out.String(), out4.String())
	}
}

func TestServeSmoke(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-scenario", "hotspot", "-nodes", "40", "-policy", "pod2",
		"-rate", "50", "-horizon", "10"}, &out, &errb, nil)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"scenario hotspot-n40", "p50", "p90", "p99", "throughput", "availability", "utilization"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestServeEveryPolicy(t *testing.T) {
	for _, pol := range []string{"uniform", "rr", "jsq", "pod2", "pod3", "lew", "dynlbp2"} {
		var out, errb bytes.Buffer
		code := run([]string{"-scenario", "uniform", "-nodes", "20", "-policy", pol,
			"-rate", "20", "-horizon", "5"}, &out, &errb, nil)
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr: %s", pol, code, errb.String())
		}
	}
}

func TestServeDiurnalWave(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-scenario", "diurnal", "-nodes", "20", "-policy", "lew",
		"-rate", "20", "-horizon", "20"}, &out, &errb, nil)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "scenario diurnal-n20") {
		t.Fatalf("missing diurnal summary: %s", out.String())
	}
}

func TestServeWritesTimeSeries(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	code := run([]string{"-scenario", "uniform", "-nodes", "20", "-policy", "jsq",
		"-rate", "20", "-horizon", "5", "-out", dir}, &out, &errb, nil)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	b, err := os.ReadFile(filepath.Join(dir, "serve_timeseries.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(b), "time,throughput,p99,queue_depth,in_flight,availability,fairness\n") {
		t.Fatalf("unexpected CSV header: %.80s", b)
	}
}

// TestServeInterrupted: a pre-closed interrupt channel is a SIGINT
// before the first arrival — the run drains, flushes the time series,
// skips the manifest, and still exits 0.
func TestServeInterrupted(t *testing.T) {
	dir := t.TempDir()
	closed := make(chan struct{})
	close(closed)
	var out, errb bytes.Buffer
	code := run([]string{"-scenario", "uniform", "-nodes", "10", "-policy", "jsq",
		"-rate", "50", "-horizon", "30", "-out", dir,
		"-manifest", filepath.Join(dir, "run.json")}, &out, &errb, closed)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "interrupted") {
		t.Fatalf("no interruption note:\n%s", out.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "serve_timeseries.csv")); err != nil {
		t.Fatalf("time series not flushed on interrupt: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "run.json")); err == nil {
		t.Fatal("interrupted run wrote a manifest (a cut arrival stream is not replayable)")
	}
}

// TestPolicyHelpMatchesTable: the -policy help text lists exactly the
// spellings the run path accepts — internal/policy's routers plus dynlbp2.
func TestPolicyHelpMatchesTable(t *testing.T) {
	var out, errb bytes.Buffer
	run([]string{"-h"}, &out, &errb, nil)
	want := "routing policy: " + strings.Join(append(policy.RouterNames(), "dynlbp2"), ", ") + " (default"
	if !strings.Contains(errb.String(), want) {
		t.Fatalf("-h does not advertise %q:\n%s", want, errb.String())
	}
}

// TestJSQDecisionHash pins the README's churn-blind JSQ trace (the command
// CI's sample-run step runs) to its recorded decision-stream hash: the
// tracer reads serve's telemetry stream, and this is what it writes there.
func TestJSQDecisionHash(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-scenario", "hotspot", "-nodes", "50", "-load", "500",
		"-policy", "jsq", "-rate", "100", "-horizon", "10", "-seed", "2006",
		"-decisions", filepath.Join(t.TempDir(), "decisions.jsonl")}, &out, &errb, nil)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "hash d93186f38de1b50b") {
		t.Fatalf("stdout does not print the recorded decision hash d93186f38de1b50b:\n%s", out.String())
	}
}
