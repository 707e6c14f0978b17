package exp

import (
	"fmt"

	"churnlb/internal/mc"
	"churnlb/internal/policy"
	"churnlb/internal/report"
	"churnlb/internal/scenario"
	"churnlb/internal/sim"
)

func init() {
	register(Experiment{ID: "scale", Title: "Large-cluster scenarios: policies at N≫2 (extension)", Run: runScale})
}

// runScale exercises the scenario engine: every scenario family at
// cluster scale, comparing no balancing, the generalised preemptive
// policy and LBP-2. This is the extension the hot-path overhaul exists
// for — the paper's policies evaluated on hundreds of heterogeneous,
// churning nodes instead of two.
func runScale(cfg Config) (*Result, error) {
	n := 100
	totalLoad := 10000
	reps := cfg.reps(40, 400)
	if cfg.Quick {
		n = 40
		totalLoad = 2000
	}
	res := &Result{ID: "scale", Title: fmt.Sprintf("Scenario sweep, N=%d, %d tasks", n, totalLoad)}
	tbl := report.Table{
		Title:   "Mean completion time (s) by scenario and policy",
		Headers: []string{"scenario", "no balancing", "LBP-1-multi(K=0.8)", "LBP-2(K=1)"},
	}
	policies := []policy.Policy{
		policy.NoBalance{},
		policy.LBP1Multi{K: 0.8},
		policy.LBP2{K: 1},
	}
	for _, kind := range scenario.Kinds() {
		sc, err := scenario.Generate(scenario.Spec{
			Kind:      kind,
			N:         n,
			TotalLoad: totalLoad,
			Seed:      cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		cfg.logf("scale: %s (%d queued, burst rate %.1f/s)", sc.Name, sc.TotalQueued(), sc.ArrivalRate)
		row := []string{kind.String()}
		for pi, pol := range policies {
			est, err := sim.MonteCarlo(mc.Options{Reps: reps, Workers: cfg.Workers, Seed: cfg.Seed ^ uint64(kind)<<8 ^ uint64(pi)}, sc.Options(pol, nil))
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%s ±%s", report.F(est.Mean), report.F(est.CI95)))
		}
		tbl.AddRow(row...)
	}
	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes,
		"extension: the scenario engine (internal/scenario) generates heterogeneous clusters — uniform, hotspot, correlated-failure, flash-crowd and diurnal — far beyond the paper's two nodes",
		"the simulator's O(1)-per-event accounting keeps these runs linear in the event count")
	return res, saveArtifacts(cfg, res)
}
