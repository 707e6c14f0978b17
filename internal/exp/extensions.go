package exp

import (
	"fmt"

	"churnlb/internal/markov"
	"churnlb/internal/mc"
	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/report"
	"churnlb/internal/sim"
)

func init() {
	register(Experiment{ID: "ablate", Title: "Ablation of LBP-2's design choices (extension)", Run: runAblate})
	register(Experiment{ID: "churnlaw", Title: "Robustness to non-exponential churn laws (extension)", Run: runChurnLaw})
	register(Experiment{ID: "multinode", Title: "Multi-node volunteer pool (extension)", Run: runMultiNode})
	register(Experiment{ID: "dynamic", Title: "Dynamic re-balancing under external arrivals (extension)", Run: runDynamic})
}

// mcCompletion is the completion-time study under cfg's workers and a salted seed.
func mcCompletion(cfg Config, p model.Params, pol policy.Policy, load []int, reps int, salt uint64, law sim.ChurnLaw) (mc.Estimate, error) {
	return sim.MonteCarlo(mc.Options{Reps: reps, Seed: cfg.Seed ^ salt},
		sim.Options{Params: p, Policy: pol, InitialLoad: load, ChurnLaw: law})
}

// runAblate quantifies the two weighting choices inside LBP-2: the
// availability factor of eq. (8) and the speed-weighted excess of eq. (6).
func runAblate(cfg Config) (*Result, error) {
	res := &Result{ID: "ablate", Title: "LBP-2 ablations, workload (100,60)"}
	p := model.PaperBaseline()
	reps := cfg.reps(800, 6000)
	tbl := report.Table{
		Title:   "Mean completion time (s) of LBP-2 variants",
		Headers: []string{"variant", "δ=0.02", "δ=1.0"},
	}
	variants := []struct {
		name string
		pol  policy.Policy
	}{
		{"full LBP-2 (paper)", policy.LBP2{K: 1}},
		{"availability-blind eq.(8)", policy.LBP2{K: 1, AvailabilityBlind: true}},
		{"speed-blind excess eq.(6)", policy.LBP2{K: 1, SpeedBlind: true}},
		{"no balancing", policy.NoBalance{}},
	}
	for _, v := range variants {
		row := []string{v.name}
		for _, delta := range []float64{0.02, 1.0} {
			est, err := mcCompletion(cfg, p.WithDelay(delta), v.pol, []int{100, 60}, reps, uint64(delta*1000), sim.ChurnExponential)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%s ±%s", report.F(est.Mean), report.F(est.CI95)))
		}
		tbl.AddRow(row...)
	}
	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes, "not part of the paper: isolates the contribution of each weighting factor in LBP-2")
	return res, saveArtifacts(cfg, res)
}

// runChurnLaw probes how the exponential-churn conclusions fare when
// failures/recoveries follow Weibull or deterministic laws with the same
// means.
func runChurnLaw(cfg Config) (*Result, error) {
	res := &Result{ID: "churnlaw", Title: "Churn-law robustness, workload (100,60)"}
	p := model.PaperBaseline()
	reps := cfg.reps(800, 6000)
	tbl := report.Table{
		Title:   "Mean completion time (s) by churn law (same means)",
		Headers: []string{"policy", "exponential", "weibull(k=2)", "deterministic"},
	}
	for _, tc := range []struct {
		name string
		pol  policy.Policy
	}{
		{"LBP-1 K=0.35", policy.LBP1{K: 0.35, Sender: 0}},
		{"LBP-2 K=1", policy.LBP2{K: 1}},
	} {
		row := []string{tc.name}
		for _, law := range []sim.ChurnLaw{sim.ChurnExponential, sim.ChurnWeibull, sim.ChurnDeterministic} {
			est, err := mcCompletion(cfg, p, tc.pol, []int{100, 60}, reps, uint64(law)+0xC0, law)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%s ±%s", report.F(est.Mean), report.F(est.CI95)))
		}
		tbl.AddRow(row...)
	}
	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes, "extension: the analysis assumes exponential churn; the policies themselves keep working under other laws")
	return res, saveArtifacts(cfg, res)
}

// runMultiNode exercises the N-node generalisation on a SETI@home-style
// volunteer pool: one reliable fast node plus flaky volunteers, comparing
// the generalised preemptive policy, LBP-2 and no balancing, and
// cross-checking a small instance against the general analytical solver.
func runMultiNode(cfg Config) (*Result, error) {
	res := &Result{ID: "multinode", Title: "Four-node volunteer pool"}
	p := model.Params{
		// Node 0: dedicated server. Nodes 1–3: volunteers with increasing
		// processing power and flakiness.
		ProcRate:     []float64{2.0, 0.8, 1.2, 1.6},
		FailRate:     []float64{0, 0.05, 0.08, 0.12},
		RecRate:      []float64{1, 0.10, 0.10, 0.10},
		DelayPerTask: 0.02,
	}
	load := []int{160, 0, 0, 0}
	reps := cfg.reps(600, 4000)
	tbl := report.Table{
		Title:   "Mean completion time (s), 160 tasks arriving at the server",
		Headers: []string{"policy", "mean ±CI95"},
	}
	for _, tc := range []struct {
		name string
		pol  policy.Policy
	}{
		{"no balancing", policy.NoBalance{}},
		{"LBP-2 (K=1)", policy.LBP2{K: 1}},
		{"LBP-1-multi (K=1, availability-weighted)", policy.LBP1Multi{K: 1}},
		{"LBP-1-multi (K=0.8)", policy.LBP1Multi{K: 0.8}},
	} {
		est, err := mcCompletion(cfg, p, tc.pol, load, reps, uint64(len(tc.name)), sim.ChurnExponential)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(tc.name, fmt.Sprintf("%s ±%s", report.F(est.Mean), report.F(est.CI95)))
	}
	res.Tables = append(res.Tables, tbl)

	// Analytical cross-check on a downsized instance: the general solver
	// versus Monte-Carlo for the no-balancing policy.
	small := model.Params{
		ProcRate:     []float64{1.0, 1.5, 2.0},
		FailRate:     []float64{0.05, 0.05, 0},
		RecRate:      []float64{0.1, 0.1, 1},
		DelayPerTask: 0.02,
	}
	gs, err := markov.NewGeneralSolver(small)
	if err != nil {
		return nil, err
	}
	want, err := gs.Mean([]int{6, 6, 6}, nil, []bool{true, true, true})
	if err != nil {
		return nil, err
	}
	est, err := mcCompletion(cfg, small, policy.NoBalance{}, []int{6, 6, 6}, reps, 0xABC, sim.ChurnExponential)
	if err != nil {
		return nil, err
	}
	check := report.Table{
		Title:   "General N-node solver vs Monte-Carlo (3 nodes, (6,6,6))",
		Headers: []string{"source", "mean (s)"},
	}
	check.AddRow("general regenerative solver", report.F(want))
	check.AddRow("Monte-Carlo", fmt.Sprintf("%s ±%s", report.F(est.Mean), report.F(est.CI95)))
	res.Tables = append(res.Tables, check)
	res.Notes = append(res.Notes, "extension of the paper's 2-node analysis per its own remark that it generalises")
	return res, saveArtifacts(cfg, res)
}

// runDynamic exercises the conclusion's proposal: re-run the balancing
// episode at every external arrival.
func runDynamic(cfg Config) (*Result, error) {
	res := &Result{ID: "dynamic", Title: "Dynamic re-balancing under Poisson arrivals"}
	p := model.PaperBaseline()
	reps := cfg.reps(400, 3000)
	tbl := report.Table{
		Title:   "Drain time after a 120 s arrival window (rate 0.4/s × 5 tasks)",
		Headers: []string{"policy", "mean ±CI95 (s)"},
	}
	for _, tc := range []struct {
		name string
		pol  policy.Policy
	}{
		{"static LBP-2", policy.LBP2{K: 1}},
		{"dynamic LBP-2 (episode per arrival)", policy.Dynamic{Base: policy.LBP2{K: 1}}},
		{"no balancing", policy.NoBalance{}},
	} {
		est, err := sim.MonteCarlo(mc.Options{Reps: reps, Seed: cfg.Seed ^ 0xD1}, sim.Options{
			Params: p, Policy: tc.pol, InitialLoad: []int{40, 0},
			ArrivalRate: 0.4, ArrivalBatch: 5, ArrivalHorizon: 120,
		})
		if err != nil {
			return nil, err
		}
		tbl.AddRow(tc.name, fmt.Sprintf("%s ±%s", report.F(est.Mean), report.F(est.CI95)))
	}
	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes, "implements the 'simplified approach' sketched in the paper's conclusion")
	return res, saveArtifacts(cfg, res)
}
