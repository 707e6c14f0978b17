package main

import (
	"bytes"
	"strings"
	"testing"

	"churnlb/internal/policy"
)

func TestBadFlagsRejected(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-definitely-not-a-flag"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
	if code := run([]string{"-policy", "nonsense"}, &out, &errb); code != 2 {
		t.Fatalf("unknown policy: exit %d, want 2", code)
	}
	if code := run([]string{"-scenario", "nonsense"}, &out, &errb); code != 2 {
		t.Fatalf("unknown scenario: exit %d, want 2", code)
	}
	if code := run([]string{"-transfer", "nonsense"}, &out, &errb); code != 2 {
		t.Fatalf("unknown transfer mode: exit %d, want 2", code)
	}
	if code := run([]string{"-churn", "nonsense"}, &out, &errb); code != 2 {
		t.Fatalf("unknown churn law: exit %d, want 2", code)
	}
}

// TestLazyChurnFlag: a lazy scenario study runs clean; being a different
// (if statistically equivalent) realisation of the randomness, it may
// differ from the eager estimate — it must simply work end to end.
func TestLazyChurnFlag(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-scenario", "hotspot", "-nodes", "40", "-load", "800",
		"-policy", "lbp2", "-reps", "5", "-lazychurn"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "mean") {
		t.Fatalf("missing estimate: %s", out.String())
	}
}

func TestTwoNodeMonteCarlo(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-m0", "30", "-m1", "10", "-policy", "lbp2", "-reps", "50", "-seed", "3"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "mean") {
		t.Fatalf("missing estimate in output: %s", out.String())
	}
}

func TestTracedRealisation(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-m0", "10", "-m1", "5", "-policy", "none", "-trace"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "t_s,event,node,queues") {
		t.Fatalf("missing trace header: %s", out.String())
	}
}

func TestScenarioSingleRealisation(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-scenario", "hotspot", "-nodes", "50", "-load", "1000", "-policy", "lbp2", "-reps", "1"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "scenario hotspot-n50") {
		t.Fatalf("missing scenario summary: %s", out.String())
	}
}

func TestTransferAndChurnFlags(t *testing.T) {
	// The same seed under different transfer/churn laws must run clean
	// and produce different estimates — proof the flags reach the
	// simulator.
	estimate := func(extra ...string) string {
		t.Helper()
		var out, errb bytes.Buffer
		args := append([]string{"-m0", "30", "-m1", "10", "-policy", "lbp2", "-reps", "40", "-seed", "5"}, extra...)
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", extra, code, errb.String())
		}
		return out.String()
	}
	base := estimate()
	pertask := estimate("-transfer", "pertask")
	weibull := estimate("-churn", "weibull")
	det := estimate("-churn", "det")
	if base == pertask || base == weibull || base == det {
		t.Fatalf("alternative laws did not change the estimate:\n%s%s%s%s", base, pertask, weibull, det)
	}
}

func TestLBP1MultiPolicy(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-m0", "30", "-m1", "10", "-policy", "lbp1multi", "-reps", "20", "-seed", "2"}, &out, &errb)
	if code != 0 {
		t.Fatalf("two-node lbp1multi: exit %d, stderr: %s", code, errb.String())
	}
	out.Reset()
	code = run([]string{"-scenario", "uniform", "-nodes", "20", "-load", "400",
		"-policy", "lbp1multi", "-reps", "1", "-churn", "det", "-transfer", "pertask"}, &out, &errb)
	if code != 0 {
		t.Fatalf("scenario lbp1multi: exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "LBP-1-multi") {
		t.Fatalf("policy name missing: %s", out.String())
	}
}

func TestScenarioMonteCarlo(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-scenario", "uniform", "-nodes", "20", "-load", "400", "-policy", "lbp1", "-reps", "20"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "mean") {
		t.Fatalf("missing estimate: %s", out.String())
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
