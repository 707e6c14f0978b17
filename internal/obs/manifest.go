package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
)

// ManifestSchema is the manifest format version this package writes and
// the only one it accepts back.
const ManifestSchema = 1

// Run modes a manifest can describe — one per CLI execution path, so a
// manifest names exactly the code path that produced it.
const (
	// ModeServe is a single open-system serving realisation
	// (lbserve, reps = 1).
	ModeServe = "serve"
	// ModeServeMany is a serving Monte-Carlo sweep (lbserve -reps > 1).
	ModeServeMany = "serve-many"
	// ModeSim is a single two-node closed-model realisation
	// (lbsim -trace).
	ModeSim = "sim"
	// ModeMC is a two-node completion-time Monte-Carlo study (lbsim).
	ModeMC = "mc"
	// ModeSimScenario is a single generated-cluster realisation
	// (lbsim -scenario, reps = 1).
	ModeSimScenario = "sim-scenario"
	// ModeMCScenario is a generated-cluster Monte-Carlo study
	// (lbsim -scenario -reps > 1).
	ModeMCScenario = "mc-scenario"
	// ModeDaemon is a live daemon calibration run (lbd): Metrics holds
	// the deterministic simulator-twin fingerprint a replay re-derives;
	// the live side's measurements live in LiveMetrics, informational
	// only.
	ModeDaemon = "daemon"
)

// ScenarioRef pins a generated cluster scenario: the scenario generator
// is deterministic in (kind, nodes, load, seed, delta), so these five
// values regenerate the exact cluster.
type ScenarioRef struct {
	Kind  string  `json:"kind"`
	Nodes int     `json:"nodes"`
	Load  int     `json:"load"`
	Delta float64 `json:"delta"`
}

// SystemRef pins an explicit cluster (the two-node paper system after
// any -nofail/-delta adjustments): per-node rates recorded verbatim.
type SystemRef struct {
	ProcRate     []float64 `json:"proc_rate"`
	FailRate     []float64 `json:"fail_rate"`
	RecRate      []float64 `json:"rec_rate"`
	DelayPerTask float64   `json:"delay_per_task"`
}

// PolicyRef names the routing/balancing policy by its CLI spelling plus
// the tuning knobs the CLIs expose.
type PolicyRef struct {
	// Name is the CLI spelling ("lbp2", "pod2", "lew", ...).
	Name string `json:"name"`
	// K is the LB gain; D the sample size for sampled routers; Sender the
	// LBP-1 sender override (-1 = auto).
	K      float64 `json:"k,omitempty"`
	D      int     `json:"d,omitempty"`
	Sender int     `json:"sender,omitempty"`
}

// DecisionRef summarises the decision trace of a traced run: the record
// count, counterfactual depth and the FNV-1a 64 hash of the JSONL
// stream, hex-encoded. Re-running the manifest with a tracer attached
// must reproduce this hash exactly.
type DecisionRef struct {
	Records int    `json:"records"`
	K       int    `json:"k"`
	Hash    string `json:"hash"`
}

// Manifest is the machine-readable provenance record of one CLI run:
// everything needed to re-execute the exact realisation (inputs, seeds,
// laws, engine) plus the summary metrics it produced, so a result
// row is verifiable from its manifest alone. Fields irrelevant to a
// mode stay at their zero value and are omitted from the JSON.
type Manifest struct {
	Schema int    `json:"schema"`
	Tool   string `json:"tool"`
	Mode   string `json:"mode"`

	// Provenance. CreatedAt is filled by the CLI layer (this package is
	// under the determinism lint and never reads the clock); GoVersion
	// and GitRevision come from the running binary.
	CreatedAt   string `json:"created_at,omitempty"`
	GoVersion   string `json:"go_version,omitempty"`
	GitRevision string `json:"git_revision,omitempty"`

	Seed    uint64 `json:"seed"`
	Reps    int    `json:"reps,omitempty"`
	Workers int    `json:"workers,omitempty"`

	// Exactly one of Scenario and System is set: the cluster is either
	// regenerated from a scenario spec or recorded rate-by-rate.
	Scenario *ScenarioRef `json:"scenario,omitempty"`
	System   *SystemRef   `json:"system,omitempty"`
	// InitialLoad is the explicit t = 0 backlog of System runs (scenario
	// runs regenerate theirs).
	InitialLoad []int `json:"initial_load,omitempty"`

	Policy PolicyRef `json:"policy"`

	// Law selection, CLI spellings. (Manifests written before the simulator
	// picked its own event queue also carry a "queue" key; it never changed
	// a result, and decoding ignores it.)
	Transfer  string `json:"transfer,omitempty"`
	Churn     string `json:"churn,omitempty"`
	LazyChurn bool   `json:"lazychurn,omitempty"`
	// Shards is decode-only: manifests written while lbsim and lbserve
	// took -shards carry a "shards" key naming the domain-sharded engine
	// the run used. That engine is gone and nothing writes the key any
	// more; rerun.Execute refuses a manifest that sets it rather than
	// replay a different realisation.
	Shards int `json:"shards,omitempty"`

	// Open-system arrival stream (serve modes). Window and the wave
	// fields are recorded post-defaulting, so a replay never re-derives
	// them.
	Rate          float64 `json:"rate,omitempty"`
	Batch         int     `json:"batch,omitempty"`
	Horizon       float64 `json:"horizon,omitempty"`
	Window        float64 `json:"window,omitempty"`
	WaveAmplitude float64 `json:"wave_amplitude,omitempty"`
	WavePeriod    float64 `json:"wave_period,omitempty"`

	// Daemon-mode (lbd) extras. Balance names the balancing policy
	// (Policy names the router there); TimeScale and StateInterval are
	// the live run's wall-clock knobs, recorded for provenance — the
	// simulator twin has no use for them.
	Balance       string  `json:"balance,omitempty"`
	TimeScale     float64 `json:"time_scale,omitempty"`
	StateInterval float64 `json:"state_interval,omitempty"`
	// LiveMetrics holds the live daemon's measurements and calibration
	// scores. A live system is not replayable, so unlike Metrics these
	// are never compared on replay.
	LiveMetrics map[string]float64 `json:"live_metrics,omitempty"`

	// Metrics holds the run's summary numbers keyed by stable names.
	// JSON round-trips float64 exactly (shortest form), so a
	// deterministic replay must match these bit-for-bit.
	Metrics map[string]float64 `json:"metrics"`

	// Decisions is present when the run streamed a decision trace.
	Decisions *DecisionRef `json:"decisions,omitempty"`
}

// NewManifest starts a manifest for one run of tool in the given mode,
// stamped with the binary's Go version and VCS revision.
func NewManifest(tool, mode string) *Manifest {
	m := &Manifest{
		Schema:    ManifestSchema,
		Tool:      tool,
		Mode:      mode,
		GoVersion: runtime.Version(),
		Metrics:   map[string]float64{},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.GitRevision = s.Value
			}
		}
	}
	return m
}

// PutFinite records a metric in a manifest metric map, skipping NaN and
// infinities: JSON cannot carry them, so they are omitted on write and on
// replay alike (an omitted key then still compares equal).
func PutFinite(m map[string]float64, key string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	m[key] = v
}

// SetDecisions records a traced run's decision summary.
func (m *Manifest) SetDecisions(s DecisionStats) {
	m.Decisions = &DecisionRef{Records: s.Records, K: s.K, Hash: HashString(s.Hash)}
}

// Encode writes the manifest as indented JSON.
func (m *Manifest) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// Save writes the manifest to path.
func (m *Manifest) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadManifest reads and validates a manifest from path.
func LoadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("obs: %s: %w", path, err)
	}
	if m.Schema != ManifestSchema {
		return nil, fmt.Errorf("obs: %s: manifest schema %d, this build reads %d", path, m.Schema, ManifestSchema)
	}
	if m.Mode == "" {
		return nil, fmt.Errorf("obs: %s: manifest has no mode", path)
	}
	return &m, nil
}

// HashString renders a decision-stream hash in the fixed-width hex form
// manifests store ("%016x").
func HashString(h uint64) string {
	return fmt.Sprintf("%016x", h)
}
