package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"churnlb/internal/obs"
	"churnlb/internal/obs/rerun"
)

// TestManifestReplaysExactly is the record/replay gate: every lbsim
// mode's -manifest output must replay to identical metrics via rerun.Run
// — the same loop `reproduce -manifest` uses. Where a row names a
// recorded field, dropping it must make the replay differ: every flag
// that changes the realisation is in the manifest.
func TestManifestReplaysExactly(t *testing.T) {
	cases := []struct {
		name, mode string
		args       []string
		drop       func(*obs.Manifest)
	}{
		{name: "mc", mode: obs.ModeMC,
			args: []string{"-m0", "30", "-m1", "10", "-policy", "lbp1", "-k", "0.4",
				"-reps", "25", "-seed", "3", "-transfer", "pertask", "-churn", "weibull"},
			drop: func(m *obs.Manifest) { m.Transfer = "" }},
		{name: "sim", mode: obs.ModeSim,
			args: []string{"-m0", "20", "-m1", "5", "-policy", "lbp2", "-trace", "-seed", "8"}},
		{name: "sim-scenario", mode: obs.ModeSimScenario,
			args: []string{"-scenario", "hotspot", "-nodes", "25", "-load", "400",
				"-policy", "lbp2", "-reps", "1", "-seed", "4", "-lazychurn"},
			drop: func(m *obs.Manifest) { m.LazyChurn = false }},
		{name: "mc-scenario", mode: obs.ModeMCScenario,
			args: []string{"-scenario", "diurnal", "-nodes", "20", "-load", "300", "-policy", "dynamic",
				"-reps", "5", "-seed", "6", "-transfer", "pertask", "-churn", "weibull"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.json")
			var out, errb bytes.Buffer
			if code := run(append(c.args, "-manifest", path), &out, &errb); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, errb.String())
			}
			m, err := obs.LoadManifest(path)
			if err != nil {
				t.Fatal(err)
			}
			if m.Tool != "lbsim" || m.Mode != c.mode {
				t.Fatalf("manifest names %s/%s, want lbsim/%s", m.Tool, m.Mode, c.mode)
			}
			if len(m.Metrics) == 0 {
				t.Fatal("manifest carries no metrics")
			}
			rep, err := rerun.Run(m, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("manifest did not replay: diffs %v missing %v extra %v",
					rep.Diffs, rep.Missing, rep.Extra)
			}
			if c.drop == nil {
				return
			}
			c.drop(m)
			if rep, err = rerun.Run(m, nil); err != nil {
				t.Fatal(err)
			}
			if rep.OK() {
				t.Fatal("replay still matched after a recorded field was dropped")
			}
		})
	}
}
