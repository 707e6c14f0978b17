package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"churnlb/internal/testkit"
)

func TestBadFlagsRejected(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
}

func TestMeanEvaluation(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-m0", "20", "-m1", "10", "-k", "0.3", "-sender", "0"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "E[T]") {
		t.Fatalf("missing mean in output: %s", out.String())
	}
}

func TestGainSweep(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-m0", "20", "-m1", "10", "-sweep", "5"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 7 { // header + 6 grid points (0..5 inclusive)
		t.Fatalf("sweep output %d lines: %s", len(lines), out.String())
	}
}

func TestInvalidSenderFails(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-m0", "20", "-m1", "10", "-sender", "7"}, &out, &errb); code != 1 {
		t.Fatalf("invalid sender: exit %d, want 1", code)
	}
}

// A negative load is an error (exit 1), not a panic inside the solver.
func TestNegativeLoadFails(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-m0", "-1", "-optimize"}, &out, &errb); code != 1 {
		t.Fatalf("negative load: exit %d, want 1", code)
	}
	if strings.Contains(errb.String(), "panic:") || !strings.Contains(errb.String(), "lbtheory:") {
		t.Fatalf("stderr %q", errb.String())
	}
}

// A workload whose lattice would not fit is refused before the solver
// allocates it: exit 1 naming the cap, not an out-of-memory crash — nor,
// for a CDF whose delay is so short the integrator's step count
// overflows, a CDF that was never integrated.
func TestOverBudgetFails(t *testing.T) {
	for _, args := range [][]string{
		{"-m0", "1000000", "-m1", "1000000", "-optimize"},
		{"-m0", "1000000", "-m1", "1000000", "-k", "0.3"},
		{"-m0", "5", "-m1", "5", "-sweep", "1000000000000"},
		{"-m0", "1", "-m1", "1", "-k", "1", "-cdf", "-delta", "1e-300"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 1 {
			t.Fatalf("%v: exit %d, want 1", args, code)
		}
		if !strings.Contains(errb.String(), "cap of") {
			t.Fatalf("%v: stderr %q names no cap", args, errb.String())
		}
	}
}

// An infinite transfer delay is refused naming it, not priced: the
// solver used to report a finite mean for a transfer that never lands.
func TestInfiniteDelayFails(t *testing.T) {
	var out, errb bytes.Buffer
	err := testkit.Deadline(t, 2*time.Second, func(<-chan struct{}) error {
		if code := run([]string{"-m0", "10", "-m1", "5", "-delta", "+Inf"}, &out, &errb); code != 1 {
			return fmt.Errorf("exit %d, want 1", code)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%v\nstdout:\n%s", err, out.String())
	}
	if !strings.Contains(errb.String(), "DelayPerTask") {
		t.Fatalf("stderr %q does not name DelayPerTask", errb.String())
	}
}
