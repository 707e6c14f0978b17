package rerun

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"churnlb/internal/model"
	"churnlb/internal/obs"
	"churnlb/internal/policy"
)

// ciManifests are the manifests CI's sample commands write, built from
// the same flags: lbserve's traced single run and its -reps 4 sweep,
// lbsim's two-node study, traced realisation and generated-cluster
// realisation, and lbd's daemon smoke and closed -paper runs.
func ciManifests() []*obs.Manifest {
	serve := func(mode string, reps int) *obs.Manifest {
		m := obs.NewManifest("lbserve", mode)
		m.Seed, m.Reps = 2006, reps
		m.Scenario = &obs.ScenarioRef{Kind: "hotspot", Nodes: 50, Load: 500, Delta: 0.02}
		m.Policy = obs.PolicyRef{Name: "lew", K: 1}
		m.Rate, m.Horizon, m.Window = 100, 10, 1
		return m
	}
	traced := serve(obs.ModeServe, 0)
	traced.Decisions = &obs.DecisionRef{}
	paper := model.PaperBaseline()
	twoNode := func(mode string, reps int) *obs.Manifest {
		m := obs.NewManifest("lbsim", mode)
		m.Seed, m.Reps = 1, reps
		m.System = &obs.SystemRef{ProcRate: paper.ProcRate, FailRate: paper.FailRate, RecRate: paper.RecRate, DelayPerTask: paper.DelayPerTask}
		m.InitialLoad = []int{100, 60}
		m.Policy = obs.PolicyRef{Name: "lbp2", K: 1, Sender: policy.AutoSender}
		return m
	}
	scen := obs.NewManifest("lbsim", obs.ModeSimScenario)
	scen.Seed = 1
	scen.Scenario = &obs.ScenarioRef{Kind: "hotspot", Nodes: 200, Load: 20000, Delta: 0.02}
	scen.Policy = obs.PolicyRef{Name: "lbp2", K: 1}
	smoke := obs.NewManifest("lbd", obs.ModeDaemon)
	smoke.Seed = 1
	smoke.System = &obs.SystemRef{ProcRate: make([]float64, 8), FailRate: make([]float64, 8), RecRate: make([]float64, 8), DelayPerTask: 0.02}
	for i := range 8 {
		smoke.System.ProcRate[i], smoke.System.RecRate[i] = 20, 0.5
	}
	smoke.System.FailRate[0] = 0.25
	smoke.Policy = obs.PolicyRef{Name: "jsq", K: 1}
	smoke.Balance, smoke.Churn = "lbp2", "det"
	smoke.Rate, smoke.Batch, smoke.Horizon, smoke.Window = 60, 1, 10, 1
	smoke.TimeScale, smoke.StateInterval = 5, 0.05
	closed := obs.NewManifest("lbd", obs.ModeDaemon)
	closed.Seed = 1
	closed.System = twoNode(obs.ModeMC, 0).System
	closed.InitialLoad = []int{100, 60}
	closed.Policy = obs.PolicyRef{Name: "jsq", K: 0.35}
	closed.Balance, closed.Churn = "lbp1", "exp"
	closed.Window, closed.TimeScale, closed.StateInterval = 1, 2000, 0.05
	return []*obs.Manifest{traced, serve(obs.ModeServeMany, 4), twoNode(obs.ModeMC, 200), twoNode(obs.ModeSim, 0), scen, smoke, closed}
}

// foldInt maps v into [lo, hi], so every fuzzed count stays cheap.
func foldInt(v, lo, hi int) int { return lo + int(uint(v-lo)%uint(hi-lo+1)) }

// foldFloat keeps a finite v within ±hi; NaN and the infinities pass
// through for the front door to refuse.
func foldFloat(v, hi float64) float64 {
	if math.Abs(v) <= hi || math.IsInf(v, 0) || math.IsNaN(v) {
		return v
	}
	return math.Mod(v, hi)
}

// FuzzManifestReplay holds replay to an error or an outcome for any bytes
// a manifest file could hold — never a panic — with bounded work. The
// sizes a manifest records are folded into small ranges (reps, workers,
// scenario nodes and load, rate-vector lengths, backlog, rate, horizon,
// batch and lew's d) so each input stays cheap; the caps on them are the
// table tests' (TestRerunRejects and the front doors' hostile-input
// tests). Seeded from testdata and from CI's sample manifests.
func FuzzManifestReplay(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, m := range ciManifests() {
		b, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var m obs.Manifest
		if json.Unmarshal(b, &m) != nil {
			return
		}
		m.Reps = foldInt(m.Reps, -2, 8)
		m.Workers = foldInt(m.Workers, -1, 2)
		if sc := m.Scenario; sc != nil {
			sc.Nodes = foldInt(sc.Nodes, -8, 64)
			sc.Load = foldInt(sc.Load, -8, 4096)
		}
		if sys := m.System; sys != nil {
			sys.ProcRate = sys.ProcRate[:min(len(sys.ProcRate), 8)]
			sys.FailRate = sys.FailRate[:min(len(sys.FailRate), 8)]
			sys.RecRate = sys.RecRate[:min(len(sys.RecRate), 8)]
		}
		m.InitialLoad = m.InitialLoad[:min(len(m.InitialLoad), 8)]
		for i, q := range m.InitialLoad {
			m.InitialLoad[i] = foldInt(q, -4, 400)
		}
		m.Rate = foldFloat(m.Rate, 200)
		m.Horizon = foldFloat(m.Horizon, 20)
		m.Batch = foldInt(m.Batch, -2, 4)
		m.Policy.D = foldInt(m.Policy.D, -4, 64)
		out, err := Execute(&m, Hooks{})
		if err == nil && out == nil {
			t.Fatalf("%s: neither an outcome nor an error", b)
		}
	})
}
