package main

import (
	"bytes"
	"strings"
	"testing"

	"churnlb/internal/policy"
)

func TestBadFlagsRejected(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
	if code := run([]string{"-policy", "nonsense"}, &out, &errb); code != 2 {
		t.Fatalf("unknown policy: exit %d, want 2", code)
	}
}

func TestTestbedSmokeRun(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-m0", "20", "-m1", "10", "-policy", "lbp2", "-scale", "2000"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "testbed (channels") {
		t.Fatalf("missing testbed summary: %s", out.String())
	}
	if !strings.Contains(out.String(), "processed") || !strings.Contains(out.String(), ", 0 tasks lost") {
		t.Fatalf("missing counters: %s", out.String())
	}
}

// TestPolicyHelpMatchesTable: the -policy help text lists exactly the
// spellings internal/policy resolves.
func TestPolicyHelpMatchesTable(t *testing.T) {
	var out, errb bytes.Buffer
	run([]string{"-h"}, &out, &errb)
	want := "policy: " + strings.Join(policy.Names(), ", ") + " (default"
	if !strings.Contains(errb.String(), want) {
		t.Fatalf("-h does not advertise %q:\n%s", want, errb.String())
	}
}
