package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"churnlb/internal/obs"
	"churnlb/internal/obs/rerun"
)

// TestManifestReplaysExactly is the record/replay gate for the serving
// CLI: single-run (with a decision trace, and with a diurnal wave the run
// resolved) and sweep manifests must replay bit-for-bit via rerun.Run,
// decision hash included.
func TestManifestReplaysExactly(t *testing.T) {
	dir := t.TempDir()

	t.Run(obs.ModeServe, func(t *testing.T) {
		mpath := filepath.Join(dir, "serve.json")
		dpath := filepath.Join(dir, "serve.jsonl")
		var out, errb bytes.Buffer
		code := run([]string{"-scenario", "hotspot", "-nodes", "16", "-load", "200",
			"-policy", "lew", "-rate", "30", "-horizon", "4", "-seed", "12",
			"-decisions", dpath, "-counterk", "5", "-manifest", mpath}, &out, &errb, nil)
		if code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errb.String())
		}
		m, err := obs.LoadManifest(mpath)
		if err != nil {
			t.Fatal(err)
		}
		if m.Decisions == nil || m.Decisions.K != 5 || m.Decisions.Records == 0 {
			t.Fatalf("manifest decisions block: %+v", m.Decisions)
		}
		var replayed bytes.Buffer
		rep, err := rerun.Run(m, &replayed)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("manifest did not replay: diffs %v missing %v extra %v hash %q vs %q",
				rep.Diffs, rep.Missing, rep.Extra, rep.HashWant, rep.HashGot)
		}
		orig, err := os.ReadFile(dpath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(orig, replayed.Bytes()) {
			t.Fatalf("replayed decision stream differs (%d vs %d bytes)", len(orig), replayed.Len())
		}
	})

	t.Run(obs.ModeServeMany, func(t *testing.T) {
		roundTrip(t, "-scenario", "uniform", "-nodes", "10", "-load", "100",
			"-policy", "lew", "-d", "3", "-rate", "20", "-horizon", "3",
			"-reps", "4", "-workers", "2", "-seed", "2")
	})

	t.Run("diurnal", func(t *testing.T) {
		m := roundTrip(t, "-scenario", "diurnal", "-nodes", "12", "-policy", "jsq",
			"-rate", "20", "-horizon", "6", "-seed", "4")
		if m.WaveAmplitude != 0.8 || m.WavePeriod != 3 {
			t.Fatalf("manifest records wave %v/%v, want the resolved default 0.8/3",
				m.WaveAmplitude, m.WavePeriod)
		}
	})
}

// roundTrip runs lbserve with -manifest, loads the file and demands that
// it replays exactly.
func roundTrip(t *testing.T, args ...string) *obs.Manifest {
	t.Helper()
	mpath := filepath.Join(t.TempDir(), "run.json")
	var out, errb bytes.Buffer
	if code := run(append(args, "-manifest", mpath), &out, &errb, nil); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	m, err := obs.LoadManifest(mpath)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rerun.Run(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("manifest did not replay: diffs %v missing %v extra %v",
			rep.Diffs, rep.Missing, rep.Extra)
	}
	return m
}

// TestDecisionsRejectedForSweeps: decision tracing is single-run only.
func TestDecisionsRejectedForSweeps(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-scenario", "uniform", "-nodes", "8", "-load", "50",
		"-policy", "jsq", "-rate", "10", "-horizon", "2", "-reps", "3",
		"-decisions", filepath.Join(t.TempDir(), "d.jsonl")}, &out, &errb, nil)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "single") {
		t.Fatalf("stderr does not explain the restriction: %s", errb.String())
	}
}
