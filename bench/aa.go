package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"churnlb/bench/e2e"
)

// aaRow compares one workload × metric pair between the two sets.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	RelDiff  float64 `json:"rel_diff"`
	Bound    float64 `json:"bound"`
	OK       bool    `json:"ok"`
}

// aaRecord is what -aa writes to aa.json: the machine beside the numbers.
type aaRecord struct {
	NProc        int               `json:"nproc"`
	CPUModel     string            `json:"cpu_model"`
	GoVersion    string            `json:"go_version"`
	GOOS         string            `json:"goos"`
	GOARCH       string            `json:"goarch"`
	Seed         uint64            `json:"seed"`
	Seconds      int               `json:"seconds"`
	Rows         []aaRow           `json:"rows"`
	Fingerprints map[string]string `json:"fingerprints"`
	OK           bool              `json:"ok"`
}

func cpuModel() string {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(info), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// runAA runs the set twice back to back with identical code and inputs
// and holds every pair to its metric's bound: the benchmark checking its
// own repeatability. Fingerprints must match exactly.
func runAA(cfg config, workloads []e2e.Workload, stdout, stderr io.Writer) error {
	var sets [2][]setResult
	for i := range sets {
		fmt.Fprintf(stdout, "=== set %c ===\n", 'A'+i)
		var err error
		if sets[i], err = runSet(cfg, workloads, stdout, spawnPart(stderr)); err != nil {
			return err
		}
	}
	rec := aaRecord{
		NProc: runtime.NumCPU(), CPUModel: cpuModel(), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Seed: cfg.seed, Seconds: cfg.seconds,
		Fingerprints: map[string]string{}, OK: true,
	}
	fmt.Fprintf(stdout, "=== A/A: %d × %s, %s ===\n", rec.NProc, rec.CPUModel, rec.GoVersion)
	fmt.Fprintf(stdout, "%-20s %-22s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "diff", "bound")
	for i, a := range sets[0] {
		b := sets[1][i]
		for _, m := range endToEnd {
			row := aaRow{Workload: a.Workload, Metric: m.Name, Unit: m.Unit, Bound: m.Bound,
				A: a.Result.Metrics[m.Name].Value, B: b.Result.Metrics[m.Name].Value}
			row.RelDiff = (row.B - row.A) / row.A
			row.OK = math.Abs(row.RelDiff) <= m.Bound
			mark := ""
			if !row.OK {
				mark, rec.OK = "  EXCEEDS", false
			}
			fmt.Fprintf(stdout, "%-20s %-22s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n",
				row.Workload, row.Metric+" ("+row.Unit+")", row.A, row.B, 100*row.RelDiff, 100*row.Bound, mark)
			rec.Rows = append(rec.Rows, row)
		}
		rec.Fingerprints[a.Workload] = a.Fingerprint
		if a.Fingerprint != b.Fingerprint {
			fmt.Fprintf(stdout, "%-20s fingerprint %s != %s  DIFFERS\n", a.Workload, a.Fingerprint, b.Fingerprint)
			rec.OK = false
		}
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.out, "aa.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if !rec.OK {
		return fmt.Errorf("A/A: two runs of the same code disagree beyond the bounds")
	}
	return nil
}
