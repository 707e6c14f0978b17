package obs

import (
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestManifestRoundTrip: Save then LoadManifest must return the same
// manifest, floats bit-for-bit (JSON shortest-form round-trips exactly).
func TestManifestRoundTrip(t *testing.T) {
	m := NewManifest("lbsim", ModeMC)
	m.CreatedAt = "2026-08-08T00:00:00Z"
	m.Seed = 42
	m.Reps = 500
	m.System = &SystemRef{
		ProcRate:     []float64{1.0 / 3.0, 0.1},
		FailRate:     []float64{0.001, 0.002},
		RecRate:      []float64{0.1, 0.2},
		DelayPerTask: 0.02,
	}
	m.InitialLoad = []int{100, 60}
	m.Policy = PolicyRef{Name: "lbp2", K: 1, Sender: -1}
	m.Metrics["mean"] = 123.456789012345678 // deliberately not representable
	m.Metrics["ci95"] = math.Nextafter(1, 2)
	m.SetDecisions(DecisionStats{Records: 7, K: 3, Hash: 0x00ab})

	path := filepath.Join(t.TempDir(), "m.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tool != "lbsim" || got.Mode != ModeMC || got.Seed != 42 || got.Reps != 500 {
		t.Fatalf("header drifted: %+v", got)
	}
	if got.System == nil || got.System.ProcRate[0] != 1.0/3.0 {
		t.Fatalf("system proc rate drifted: %+v", got.System)
	}
	if got.Policy != m.Policy {
		t.Fatalf("policy drifted: %+v", got.Policy)
	}
	for _, k := range []string{"mean", "ci95"} {
		if g, v := got.Metrics[k], m.Metrics[k]; math.Float64bits(g) != math.Float64bits(v) {
			t.Fatalf("metric %s: %v did not round-trip (%v)", k, v, g)
		}
	}
	if got.Decisions == nil || got.Decisions.Hash != "00000000000000ab" || got.Decisions.Records != 7 {
		t.Fatalf("decisions drifted: %+v", got.Decisions)
	}
}

// TestLoadManifestRejects: wrong schema and missing mode are errors.
func TestLoadManifestRejects(t *testing.T) {
	dir := t.TempDir()

	bad := NewManifest("x", ModeSim)
	bad.Schema = ManifestSchema + 1
	path := filepath.Join(dir, "schema.json")
	if err := bad.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("schema mismatch not rejected: %v", err)
	}

	noMode := NewManifest("x", "")
	path = filepath.Join(dir, "mode.json")
	if err := noMode.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err == nil || !strings.Contains(err.Error(), "mode") {
		t.Fatalf("missing mode not rejected: %v", err)
	}

	if _, err := LoadManifest(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing file not rejected")
	}
}

// TestHashStringParseHash: a fixed-width encoding that parses back as
// hex to the hash it encodes.
func TestHashStringParseHash(t *testing.T) {
	for _, h := range []uint64{0, 1, 0xab, 0x2c371c89dc6eb274, math.MaxUint64} {
		s := HashString(h)
		if len(s) != 16 {
			t.Fatalf("HashString(%#x) = %q, want 16 hex digits", h, s)
		}
		got, err := strconv.ParseUint(s, 16, 64)
		if err != nil || got != h {
			t.Fatalf("HashString(%#x) = %q parses as %#x, %v", h, s, got, err)
		}
	}
}
