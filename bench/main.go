// Command bench is the repository's benchmark. One invocation measures one
// named workload — end to end with tracing off, or traced for the
// per-layer numbers — checks its outputs, and prints every metric by name
// and unit; the last line of standard output is the result as one JSON
// object. The end-to-end run is split over e2e.Parts processes of this
// program, one after the other, and reports medians over them. Without
// -workload it runs every workload; -aa does that twice and compares.
// See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"churnlb/bench/e2e"
	"churnlb/bench/layers"
)

// processStart is read as early as a Go program can: a part's set-up is
// counted from here.
var processStart = time.Now()

// Metric names one gated end-to-end number. Bound is the share of the
// parent's median by which it may get worse before a change is a
// regression.
type Metric struct {
	Name, Unit, Better string
	Bound              float64
}

// endToEnd lists the gated metrics, the same four on every workload. A
// bound is per metric, so it has to cover the widest across-seed spread
// any workload shows (README, "Why the bounds are a quarter").
var endToEnd = []Metric{
	{"setup_s", "s", "lower", 0.25},
	{"ns_per_task", "ns", "lower", 0.25},
	{"alloc_bytes_per_task", "B", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	part     int
	aa, toy  bool
	out      string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var cfg config
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run in this process (default: each in a process of its own)")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&cfg.seconds, "seconds", e2e.NominalSeconds, "run length the sample count is scaled to")
	fs.IntVar(&cfg.trace, "trace", 0, "1: traced run, per-layer metrics; 0: end-to-end metrics")
	fs.IntVar(&cfg.part, "part", -1, "internal: measure this part of an end-to-end run in this process and print it as JSON")
	fs.BoolVar(&cfg.aa, "aa", false, "run the full set twice and compare the two against the bounds")
	fs.BoolVar(&cfg.toy, "toy", false, "toy sizes (the smoke test)")
	fs.StringVar(&cfg.out, "out", filepath.Join("bench", "out"), "directory for trace.json and aa.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cfg.seconds < 1 || cfg.trace < 0 || cfg.trace > 1 || cfg.part >= e2e.Parts || (cfg.part >= 0 && cfg.workload == "") || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive, -trace 0 or 1, -part goes with -workload, and no positional arguments")
		return 2
	}
	if runtime.GOARCH != "amd64" {
		fmt.Fprintf(stderr, "bench: warning: GOARCH=%s; the fingerprints recorded in bench/README.md are for linux/amd64 and may differ in the last float bit\n", runtime.GOARCH)
	}
	set := e2e.Sizes(cfg.toy)
	workloads := set.Workloads()
	if cfg.workload != "" {
		workloads = nil
		for _, w := range set.Workloads() {
			if w.Name == cfg.workload {
				workloads = []e2e.Workload{w}
			}
		}
		if workloads == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", cfg.workload)
			return 2
		}
	}
	var err error
	switch {
	case cfg.aa:
		err = runAA(cfg, workloads, stdout, stderr)
	case cfg.trace == 1:
		err = tracedRun(cfg, set, workloads, stdout, stderr)
	case cfg.part >= 0 && cfg.workload != "":
		err = printPart(cfg, workloads[0], stdout)
	default:
		_, err = runSet(cfg, workloads, stdout, spawnPart(stderr))
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// value is one metric of the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a single-workload run.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// sampleCount scales the workload's fixed per-process sample count to the
// requested run length.
func sampleCount(w e2e.Workload, seconds int) int {
	return max(1, int(math.Round(float64(w.Samples)*float64(seconds)/e2e.NominalSeconds)))
}

// sampleDeadline is the timed total after which one process stops
// sampling early.
func sampleDeadline(cfg config) time.Duration {
	return time.Duration(cfg.seconds) * time.Second * 5 / 4 / e2e.Parts
}

// errFailed is returned, after the result line is printed, by a run in
// which tasks failed or outputs were wrong.
var errFailed = fmt.Errorf("tasks failed their conservation or fingerprint check")

// emit prints the result line, which must be the last line of a
// single-workload run's standard output.
func emit(stdout io.Writer, res result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct || res.Failed > 0 {
		return errFailed
	}
	return nil
}

func printSamples(stdout io.Writer, label string, s e2e.Samples) {
	lo, q1, med, q3, hi := e2e.Quantiles(s.NsPerTask)
	fmt.Fprintf(stdout, "  %-22s min %.3f  q1 %.3f  median %.3f  q3 %.3f  max %.3f  (%d samples, %.2f s timed)\n",
		label, lo, q1, med, q3, hi, len(s.NsPerTask), s.Wall.Seconds())
	fmt.Fprintf(stdout, "  %-22s %s\n", "  per sample", formatFloats(s.NsPerTask, 1))
}

// part is what one process of an end-to-end run measured.
type part struct {
	SetupSeconds float64     `json:"setup_s"`
	Samples      e2e.Samples `json:"samples"`
	PeakRSSMB    float64     `json:"peak_rss_mb"`
	Fingerprint  uint64      `json:"fingerprint"`
}

// partRunner measures one part of a workload's end-to-end run.
type partRunner func(cfg config, w e2e.Workload, index int) (part, error)

// measurePart measures a part in this process: one set-up, counted from
// process start, then the workload's timed samples with no profiler and
// no spans.
func measurePart(cfg config, w e2e.Workload, index int) (part, error) {
	prep, err := e2e.Setup(w, e2e.PartSeed(cfg.seed, index), nil)
	if err != nil {
		return part{}, err
	}
	setup := time.Since(processStart).Seconds()
	s, err := prep.Sample(sampleCount(w, cfg.seconds), sampleDeadline(cfg), nil)
	if err != nil {
		return part{}, fmt.Errorf("%s: %w", w.Name, err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return part{}, err
	}
	return part{SetupSeconds: setup, Samples: s, PeakRSSMB: rss, Fingerprint: prep.Warm.Fingerprint}, nil
}

// printPart is the child side of spawnPart.
func printPart(cfg config, w e2e.Workload, stdout io.Writer) error {
	p, err := measurePart(cfg, w, cfg.part)
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(p)
}

// asCommandEnv tells the benchmark's test binary to act as the command
// (see TestMain); the command itself ignores it.
const asCommandEnv = "BENCH_AS_COMMAND=1"

// spawnPart returns the runner that measures each part in a process of
// its own: a fresh address space, fresh physical pages and its own peak
// RSS. The child has ended by the time the runner returns.
func spawnPart(stderr io.Writer) partRunner {
	return func(cfg config, w e2e.Workload, index int) (part, error) {
		self, err := os.Executable()
		if err != nil {
			return part{}, err
		}
		args := []string{"-workload", w.Name, "-seed", strconv.FormatUint(cfg.seed, 10),
			"-seconds", strconv.Itoa(cfg.seconds), "-part", strconv.Itoa(index)}
		if cfg.toy {
			args = append(args, "-toy")
		}
		cmd := exec.Command(self, args...)
		cmd.Env = append(os.Environ(), asCommandEnv)
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // no orphan if this process is killed
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			return part{}, fmt.Errorf("%s part %d: %w", w.Name, index, err)
		}
		var p part
		if err := json.Unmarshal(out, &p); err != nil {
			return part{}, fmt.Errorf("%s part %d: %w", w.Name, index, err)
		}
		return p, nil
	}
}

func median(xs []float64) float64 {
	_, _, m, _, _ := e2e.Quantiles(xs)
	return m
}

// untracedRun is the gated run of one workload: e2e.Parts parts, one
// after the other, each metric the median over them. It prints the
// result line last and returns it with the run's fingerprint.
func untracedRun(cfg config, w e2e.Workload, stdout io.Writer, run partRunner) (result, string, error) {
	var setup, best, alloc, rss []float64
	res := result{Metrics: map[string]value{}}
	fp := fnv.New64a()
	fmt.Fprintf(stdout, "workload %s  seed %d  %d processes × %d samples\n", w.Name, cfg.seed, e2e.Parts, sampleCount(w, cfg.seconds))
	for i := 0; i < e2e.Parts; i++ {
		p, err := run(cfg, w, i)
		if err != nil {
			return result{}, "", err
		}
		s := p.Samples
		lo, _, _, _, _ := e2e.Quantiles(s.NsPerTask)
		setup = append(setup, p.SetupSeconds)
		best = append(best, lo)
		alloc = append(alloc, float64(s.AllocBytes)/float64(max(s.Tasks, 1)))
		rss = append(rss, p.PeakRSSMB)
		res.Attempted += s.Tasks
		res.Failed += s.Failed
		fmt.Fprintf(fp, "%016x", p.Fingerprint)
		fmt.Fprintf(stdout, "  part %d  set-up %.4f s  ns/task %s  alloc %.3f B/task  peak RSS %.1f MB  failed %d  mismatches %d  fingerprint %016x\n",
			i, p.SetupSeconds, formatFloats(s.NsPerTask, 1), alloc[i], p.PeakRSSMB, s.Failed, s.Mismatches, p.Fingerprint)
	}
	res.Correct = res.Failed == 0
	values := map[string]float64{
		"setup_s":              median(setup),
		"ns_per_task":          median(best),
		"alloc_bytes_per_task": median(alloc),
		"peak_rss_mb":          median(rss),
	}
	fmt.Fprintf(stdout, "  %-22s %s\n", "ns/task, best per part", formatFloats(best, 3))
	for _, m := range endToEnd {
		res.Metrics[m.Name] = value{values[m.Name], m.Unit}
		fmt.Fprintf(stdout, "  %-22s %.6g %s\n", m.Name, values[m.Name], m.Unit)
	}
	fmt.Fprintf(stdout, "  tasks attempted %d  failed %d\n", res.Attempted, res.Failed)
	fingerprint := fmt.Sprintf("%016x", fp.Sum64())
	fmt.Fprintf(stdout, "fingerprint %s %s\n", w.Name, fingerprint)
	return res, fingerprint, emit(stdout, res)
}

// tracedRun is the attribution run over one or more workloads in this
// process, recording every span under one root and writing them to
// trace.json when the run ends.
func tracedRun(cfg config, set e2e.Set, workloads []e2e.Workload, stdout, stderr io.Writer) error {
	sp := e2e.NewSpans()
	endRun := sp.Begin("run")
	failed := false
	for _, w := range workloads {
		res, err := traced(cfg, set, w, sp, stdout)
		if err != nil {
			return err
		}
		if err := emit(stdout, res); err == errFailed {
			failed = true
		} else if err != nil {
			return err
		}
	}
	endRun()
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	if err := sp.WriteFile(filepath.Join(cfg.out, "trace.json")); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "bench: %d spans written to %s\n", len(sp.All()), filepath.Join(cfg.out, "trace.json"))
	if failed {
		return errFailed
	}
	return nil
}

// traced measures one workload for attribution in this process, on the
// inputs of the end-to-end run's part 0: one set-up, a few samples
// untraced, as many under the CPU profile with spans recorded, then the
// probes. It prints the per-layer block.
func traced(cfg config, set e2e.Set, w e2e.Workload, sp *e2e.Spans, stdout io.Writer) (result, error) {
	n := max(2, sampleCount(w, cfg.seconds))
	deadline := time.Duration(cfg.seconds) * time.Second / 2
	endWorkload := sp.Begin("workload:" + w.Name)
	prep, err := e2e.Setup(w, e2e.PartSeed(cfg.seed, 0), sp)
	if err != nil {
		return result{}, err
	}
	plain, err := prep.Sample(n, deadline, nil)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.Name, err)
	}
	var profile bytes.Buffer
	if err := pprof.StartCPUProfile(&profile); err != nil {
		return result{}, err
	}
	prof, err := prep.Sample(n, deadline, sp)
	pprof.StopCPUProfile()
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.Name, err)
	}
	endWorkload()
	shares, symbols, err := layers.Fold(profile.Bytes())
	if err != nil {
		return result{}, err
	}
	endProbes := sp.Begin("probes")
	probes, err := layers.Probes(set, cfg.seed, cfg.toy, sp)
	endProbes()
	if err != nil {
		return result{}, err
	}

	got := map[string]layers.Value{}
	for _, layer := range layers.Names {
		got[layer+".cpu_share"] = layers.Value{Value: shares[layer], Unit: "share"}
	}
	for _, v := range append(probes, layers.RunMetrics(plain, prof)...) {
		got[v.Name] = v
	}
	failed := plain.Failed + prof.Failed
	res := result{Correct: failed == 0, Attempted: plain.Tasks + prof.Tasks, Failed: failed, Metrics: map[string]value{}}
	fmt.Fprintf(stdout, "workload %s  seed %d  traced run  samples %d plain + %d profiled\n", w.Name, cfg.seed, len(plain.NsPerTask), len(prof.NsPerTask))
	printSamples(stdout, "ns/task plain", plain)
	printSamples(stdout, "ns/task profiled", prof)
	for _, m := range layers.Metrics() {
		v, ok := got[m.Name]
		if !ok {
			return result{}, fmt.Errorf("per-layer metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = value{v.Value, m.Unit}
		fmt.Fprintf(stdout, "  %-34s %.6g %s\n", m.Name, v.Value, m.Unit)
	}
	fmt.Fprintln(stdout, "  largest flat symbols:")
	for _, s := range symbols[:min(len(symbols), 12)] {
		fmt.Fprintf(stdout, "    %5.1f%%  %-8s %s\n", 100*s.Share, s.Layer, s.Name)
	}
	if _, serving := w.Spec.(e2e.Serve); serving {
		// Two independent routes to the telemetry attribution, side by side.
		best, _, _, _, _ := e2e.Quantiles(plain.NsPerTask)
		fmt.Fprintf(stdout, "  telemetry share of %s: profile metrics+serve %.3f; probe serve.telemetry_ns_per_task / ns_per_task %.3f\n",
			w.Name, shares["metrics"]+shares["serve"], got["serve.telemetry_ns_per_task"].Value/best)
	}
	fmt.Fprintf(stdout, "fingerprint %s %016x\n", w.Name, prep.Warm.Fingerprint)
	return res, nil
}

func formatFloats(xs []float64, digits int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', digits, 64)
	}
	return strings.Join(parts, " ")
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak_rss_mb: %w", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak_rss_mb: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak_rss_mb: no VmHWM line in /proc/self/status")
}

// setResult is one workload's outcome within a run of the whole set.
type setResult struct {
	Workload    string
	Result      result
	Fingerprint string
}

// runSet makes the gated run of every workload and returns the results.
func runSet(cfg config, workloads []e2e.Workload, stdout io.Writer, run partRunner) ([]setResult, error) {
	var all []setResult
	failed := false
	for _, w := range workloads {
		res, fingerprint, err := untracedRun(cfg, w, stdout, run)
		if err == errFailed {
			failed = true
		} else if err != nil {
			return nil, err
		}
		all = append(all, setResult{Workload: w.Name, Result: res, Fingerprint: fingerprint})
	}
	if failed {
		return all, errFailed
	}
	return all, nil
}
