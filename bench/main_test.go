package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"churnlb/bench/e2e"
	"churnlb/bench/layers"
)

// TestMain lets the test binary stand in for the command: an end-to-end
// run measures each of its parts in a child process of its own executable.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_AS_COMMAND") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// BENCHMARK.json is written by hand; the tables in the code are what runs.
func TestManifestMatchesCode(t *testing.T) {
	m := readManifest(t)
	if m.RunSeconds != e2e.NominalSeconds {
		t.Errorf("run_seconds %d, sample counts are sized for %d", m.RunSeconds, e2e.NominalSeconds)
	}
	ws := e2e.Sizes(false).Workloads()
	if len(m.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in e2e", len(m.Workloads), len(ws))
	}
	for i, w := range ws {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), e2e has %q (%q)", i, m.Workloads[i].Name, m.Workloads[i].Why, w.Name, w.Why)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(m.EndToEnd), len(endToEnd))
	}
	for i, e := range endToEnd {
		if got := m.EndToEnd[i]; got.Name != e.Name || got.Unit != e.Unit || got.Better != e.Better || got.Bound != e.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, code %+v", i, got, e)
		}
	}
	per := layers.Metrics()
	if len(m.PerLayer) != len(per) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(m.PerLayer), len(per))
	}
	for i, p := range per {
		if got := m.PerLayer[i]; got.Name != p.Name || got.Unit != p.Unit || got.Better != p.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, code %+v", i, got, p)
		}
	}
}

// runToy runs one toy workload through the command's entry point and
// returns its standard output and parsed result line.
func runToy(t *testing.T, workload, trace string) (string, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "15", "--trace", trace, "-toy", "-out", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s -trace %s exited %d: %s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", workload, err, lines[len(lines)-1])
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
	}
	return stdout.String(), res
}

// Every workload and metric BENCHMARK.json names is printed, with its
// unit, by the run the driver makes — at toy size.
func TestSmokeEveryWorkloadPrintsEveryMetric(t *testing.T) {
	m := readManifest(t)
	for _, w := range m.Workloads {
		out, res := runToy(t, w.Name, "0")
		if len(res.Metrics) != len(m.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics in the result, want %d", w.Name, len(res.Metrics), len(m.EndToEnd))
		}
		for _, e := range m.EndToEnd {
			if got, ok := res.Metrics[e.Name]; !ok || got.Unit != e.Unit || got.Value <= 0 {
				t.Errorf("%s: metric %s = %+v (present %v), want a positive value in %s", w.Name, e.Name, got, ok, e.Unit)
			}
			if !strings.Contains(out, e.Name) {
				t.Errorf("%s: %s is not printed by name", w.Name, e.Name)
			}
		}
		if !strings.Contains(out, "fingerprint "+w.Name+" ") {
			t.Errorf("%s: no fingerprint line", w.Name)
		}

		_, res = runToy(t, w.Name, "1")
		if len(res.Metrics) != len(m.PerLayer) {
			t.Errorf("%s traced: %d per-layer metrics in the result, want %d", w.Name, len(res.Metrics), len(m.PerLayer))
		}
		for _, p := range m.PerLayer {
			if got, ok := res.Metrics[p.Name]; !ok || got.Unit != p.Unit {
				t.Errorf("%s traced: metric %s = %+v (present %v), want unit %s", w.Name, p.Name, got, ok, p.Unit)
			}
		}
	}
}

func TestTracedRunWritesSpans(t *testing.T) {
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "closed-churn-1e3", "-trace", "1", "-toy", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exited %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(filepath.Join(out, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []e2e.Span }
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range doc.Spans {
		seen[strings.SplitN(s.Name, ":", 2)[0]] = true
	}
	for _, want := range []string{"run", "workload", "setup", "generate", "build", "warm-up", "sample", "realisation", "probes", "probe"} {
		if !seen[want] {
			t.Errorf("no %q span among %d spans", want, len(doc.Spans))
		}
	}
}

// failingSpec builds blocks that lose a task on every replay.
type failingSpec struct{}

func (failingSpec) New(uint64, *e2e.Spans) (e2e.Block, error) { return failingSpec{}, nil }
func (failingSpec) Run(*e2e.Spans) (e2e.Outcome, error) {
	return e2e.Outcome{Tasks: 100, Failed: 100, Fingerprint: 9}, nil
}

// Failures are counted: the result line reports them and the run's
// error — which run turns into a non-zero exit status — is set.
func TestFailedTasksAreReportedAndFailTheRun(t *testing.T) {
	var stdout bytes.Buffer
	w := e2e.Workload{Name: "broken", Samples: 2, Spec: failingSpec{}}
	_, _, err := untracedRun(config{seed: 1, seconds: e2e.NominalSeconds}, w, &stdout, measurePart)
	if err != errFailed {
		t.Fatalf("got error %v, want errFailed", err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if want := 200 * e2e.Parts; res.Correct || res.Failed != want || res.Attempted != want {
		t.Errorf("result %+v, want correct=false with %d of %d failed", res, want, want)
	}
}

func TestUnknownWorkloadAndBadFlagsExitNonZero(t *testing.T) {
	for _, args := range [][]string{{"-workload", "nope"}, {"-trace", "2"}, {"-seconds", "0"}, {"stray"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d with %d bytes of output, want non-zero and none", args, code, stdout.Len())
		}
	}
}
