package main

import (
	"bytes"
	"strings"
	"testing"
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
