package exp

import (
	"fmt"
	"math"
	"time"

	"churnlb/internal/markov"
	"churnlb/internal/mc"
	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/report"
	"churnlb/internal/sim"
	"churnlb/internal/stats"
	"churnlb/internal/workload"
	"churnlb/internal/xrand"
)

// paperProcRates are the empirically fitted processing rates of Fig. 1.
var paperProcRates = [2]float64{1.08, 1.86}

func init() {
	register(Experiment{ID: "fig1", Title: "Per-task processing-time pdfs and exponential fits (paper Fig. 1)", Run: runFig1})
	register(Experiment{ID: "fig2", Title: "Transfer-delay pdf and linear mean delay vs load size (paper Fig. 2)", Run: runFig2})
	register(Experiment{ID: "fig3", Title: "Average completion time vs LB gain K under LBP-1 (paper Fig. 3)", Run: runFig3})
	register(Experiment{ID: "fig4", Title: "Queue sample paths under LBP-1 and LBP-2 (paper Fig. 4)", Run: runFig4})
	register(Experiment{ID: "fig5", Title: "Completion-time CDFs for workloads (50,0) and (25,50) (paper Fig. 5)", Run: runFig5})
}

// runFig1 regenerates the service-time pdfs: the matrix-multiplication
// application with exponential per-task precision induces exponential
// per-task processing times at each node's calibrated rate.
func runFig1(cfg Config) (*Result, error) {
	res := &Result{ID: "fig1", Title: "Per-task processing-time pdfs"}
	n := cfg.reps(5000, 40000)
	tbl := report.Table{
		Title:   "Exponential fits of per-task processing time",
		Headers: []string{"node", "samples", "paper rate (1/s)", "fitted rate (1/s)", "KS distance"},
	}
	for node := 0; node < 2; node++ {
		gen := workload.NewGenerator(32, 64, xrand.NewStream(cfg.Seed, xrand.StreamFig1+uint64(node)))
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = workload.VirtualSeconds(gen.Next(), gen.MeanPrecision(), paperProcRates[node])
		}
		fit, err := stats.FitExponential(samples)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(fmt.Sprint(node+1), fmt.Sprint(n), report.F(paperProcRates[node]), fmt.Sprintf("%.3f", fit.Rate), fmt.Sprintf("%.4f", fit.KS))

		hi := 5.0 / paperProcRates[node]
		h := stats.NewHistogram(0, hi, 40)
		for _, s := range samples {
			h.Add(s)
		}
		dens := h.Density()
		xs := make([]float64, len(dens))
		fitted := make([]float64, len(dens))
		for i := range dens {
			xs[i] = h.BinCenter(i)
			fitted[i] = fit.Rate * math.Exp(-fit.Rate*xs[i])
		}
		res.Series = append(res.Series,
			report.Series{Name: fmt.Sprintf("node%d-empirical", node+1), X: xs, Y: dens},
			report.Series{Name: fmt.Sprintf("node%d-expfit", node+1), X: xs, Y: fitted},
		)
	}
	res.Tables = append(res.Tables, tbl)
	res.Plots = append(res.Plots, report.AsciiPlot(64, 14, res.Series[0], res.Series[1]))
	res.Notes = append(res.Notes,
		"paper: node 1 ≈ 1.08 tasks/s (Crusoe), node 2 ≈ 1.86 tasks/s (P4); shapes exponential",
		"substitution: virtual service times from the matmul app's exponential precision (DESIGN.md §2)")
	return res, saveArtifacts(cfg, res)
}

// runFig2 regenerates the transfer-delay characterisation: per-task delay
// pdf (exponential, mean 0.02 s) and the linear growth of mean bundle
// delay with the number of tasks.
func runFig2(cfg Config) (*Result, error) {
	res := &Result{ID: "fig2", Title: "Transfer-delay characterisation"}
	p := model.PaperBaseline()
	rng := xrand.NewStream(cfg.Seed, xrand.StreamFig2)

	// Top panel: pdf of the per-task delay.
	n := cfg.reps(2000, 20000)
	delays := make([]float64, n)
	for i := range delays {
		delays[i] = rng.ExpMean(p.DelayPerTask)
	}
	fit, err := stats.FitExponential(delays)
	if err != nil {
		return nil, err
	}
	tbl := report.Table{
		Title:   "Per-task transfer delay",
		Headers: []string{"quantity", "paper", "measured"},
	}
	tbl.AddRow("mean delay per task (s)", "0.02", fmt.Sprintf("%.4f", fit.Mean))
	tbl.AddRow("KS vs exponential", "(approx. exp.)", fmt.Sprintf("%.4f", fit.KS))

	// Bottom panel: mean delay of an L-task bundle, 30 realisations per
	// L as in the paper.
	var xs, ys []float64
	const realisations = 30
	for l := 1; l <= 100; l += 3 {
		var w stats.Welford
		for r := 0; r < realisations; r++ {
			w.Add(rng.ExpMean(p.DelayPerTask * float64(l)))
		}
		xs = append(xs, float64(l))
		ys = append(ys, w.Mean())
	}
	lin, err := stats.FitLinear(xs, ys)
	if err != nil {
		return nil, err
	}
	tbl.AddRow("slope of mean delay vs L (s/task)", "0.02 (linear)", fmt.Sprintf("%.4f", lin.Slope))
	tbl.AddRow("linear fit R²", "-", fmt.Sprintf("%.3f", lin.R2))
	res.Tables = append(res.Tables, tbl)
	fitY := make([]float64, len(xs))
	for i, x := range xs {
		fitY[i] = lin.Slope*x + lin.Intercept
	}
	res.Series = append(res.Series,
		report.Series{Name: "mean-delay", X: xs, Y: ys},
		report.Series{Name: "linear-fit", X: xs, Y: fitY},
	)
	res.Plots = append(res.Plots, report.AsciiPlot(64, 12, res.Series...))
	return res, saveArtifacts(cfg, res)
}

// runFig3 regenerates the gain sweep: E[completion] vs K for LBP-1 from
// theory, Monte-Carlo simulation, the no-failure theory, and (optionally)
// the concurrent testbed.
func runFig3(cfg Config) (*Result, error) {
	res := &Result{ID: "fig3", Title: "Completion time vs gain K (LBP-1, workload (100,60))"}
	const m0, m1, sender = 100, 60, 0
	p := model.PaperBaseline()
	ms, err := markov.NewMeanSolver(p)
	if err != nil {
		return nil, err
	}
	msNF, err := markov.NewMeanSolver(p.NoFailure())
	if err != nil {
		return nil, err
	}
	steps := 20
	ks, theo, err := ms.GainSweep(m0, m1, sender, steps)
	if err != nil {
		return nil, err
	}
	_, theoNF, err := msNF.GainSweep(m0, m1, sender, steps)
	if err != nil {
		return nil, err
	}

	// Monte-Carlo curve.
	reps := cfg.reps(400, 4000)
	mcMeans := make([]float64, len(ks))
	for i, k := range ks {
		est, err := sim.MonteCarlo(mc.Options{Reps: reps, Seed: cfg.Seed + uint64(i)},
			sim.Options{Params: p, Policy: policy.LBP1{K: k, Sender: sender}, InitialLoad: []int{m0, m1}})
		if err != nil {
			return nil, err
		}
		mcMeans[i] = est.Mean
	}
	res.Series = append(res.Series,
		report.Series{Name: "theory-failure", X: ks, Y: theo},
		report.Series{Name: "mc-failure", X: ks, Y: mcMeans},
		report.Series{Name: "theory-no-failure", X: ks, Y: theoNF},
	)

	// Optional testbed curve at a coarse grid.
	if cfg.Testbed {
		bedReps := cfg.reps(2, 8)
		var bx, by []float64
		for _, k := range []float64{0, 0.2, 0.35, 0.5, 0.75, 1} {
			var w stats.Welford
			for rep := 0; rep < bedReps; rep++ {
				t, err := testbedRun(p, policy.LBP1{K: k, Sender: sender}, []int{m0, m1},
					1500, cfg.Seed+uint64(rep)+uint64(k*1000), 2*time.Minute)
				if err != nil {
					return nil, err
				}
				w.Add(t)
			}
			bx = append(bx, k)
			by = append(by, w.Mean())
			cfg.logf("fig3 testbed K=%.2f mean=%.1f", k, w.Mean())
		}
		res.Series = append(res.Series, report.Series{Name: "testbed-failure", X: bx, Y: by})
	}

	opt, err := ms.OptimizeLBP1(m0, m1)
	if err != nil {
		return nil, err
	}
	optNF, err := msNF.OptimizeLBP1(m0, m1)
	if err != nil {
		return nil, err
	}
	tbl := report.Table{
		Title:   "Optima of the gain sweep",
		Headers: []string{"curve", "K* (paper)", "K* (ours)", "min mean s (paper)", "min mean s (ours)"},
	}
	tbl.AddRow("with failure/recovery", "0.35", fmt.Sprintf("%.2f", opt.K), "≈117", report.F(opt.Mean))
	tbl.AddRow("no failure", "0.45", fmt.Sprintf("%.2f", optNF.K), "-", report.F(optNF.Mean))
	res.Tables = append(res.Tables, tbl)
	res.Plots = append(res.Plots, report.AsciiPlot(64, 14, res.Series...))
	res.Notes = append(res.Notes, "paper claim reproduced iff K*_failure < K*_no-failure and the failure curve's minimum ≈ 117 s")
	return res, saveArtifacts(cfg, res)
}

// runFig4 regenerates one queue-evolution realisation per policy.
func runFig4(cfg Config) (*Result, error) {
	res := &Result{ID: "fig4", Title: "Queue sample paths, workload (100,60)"}
	p := model.PaperBaseline()
	summary := report.Table{
		Title:   "Realisation summary",
		Headers: []string{"policy", "completion (s)", "failures", "transfers", "tasks moved"},
	}
	for _, tc := range []struct {
		name string
		pol  policy.Policy
	}{
		{"LBP1", policy.LBP1{K: 0.35, Sender: 0}},
		{"LBP2", policy.LBP2{K: 1}},
	} {
		out, err := sim.Run(sim.Options{
			Params: p, Policy: tc.pol, InitialLoad: []int{100, 60},
			Rand: xrand.NewStream(cfg.Seed, xrand.StreamFig4+uint64(len(tc.name))), Trace: true,
		})
		if err != nil {
			return nil, err
		}
		summary.AddRow(tc.name, report.F(out.CompletionTime), fmt.Sprint(out.Failures),
			fmt.Sprint(out.TransfersSent), fmt.Sprint(out.TasksTransferred))
		for nodeID := 0; nodeID < 2; nodeID++ {
			var xs, ys []float64
			for _, tp := range out.Trace {
				xs = append(xs, tp.Time)
				ys = append(ys, float64(tp.Queues[nodeID]))
			}
			res.Series = append(res.Series, report.Series{
				Name: fmt.Sprintf("%s-node%d", tc.name, nodeID+1), X: xs, Y: ys,
			})
		}
	}
	res.Tables = append(res.Tables, summary)
	res.Plots = append(res.Plots, report.AsciiPlot(72, 14, res.Series[0], res.Series[1]))
	res.Notes = append(res.Notes,
		"flat queue segments correspond to node down time; LBP2 shows jumps at failure instants (paper Fig. 4)")
	return res, saveArtifacts(cfg, res)
}

// runFig5 regenerates the completion-time CDFs with and without failure.
func runFig5(cfg Config) (*Result, error) {
	res := &Result{ID: "fig5", Title: "Completion-time CDFs under LBP-1"}
	p := model.PaperBaseline()
	cs, err := markov.NewCDFSolver(p)
	if err != nil {
		return nil, err
	}
	csNF, err := markov.NewCDFSolver(p.NoFailure())
	if err != nil {
		return nil, err
	}
	ms, err := markov.NewMeanSolver(p)
	if err != nil {
		return nil, err
	}
	tbl := report.Table{
		Title:   "CDF summaries (optimal failure-aware gain)",
		Headers: []string{"workload", "K*", "mean fail (s)", "mean no-fail (s)", "median fail (s)", "p95 fail (s)"},
	}
	dt := 0.1
	if cfg.Quick {
		dt = 0.25
	}
	for _, w := range [][2]int{{50, 0}, {25, 50}} {
		opt, err := ms.OptimizeLBP1(w[0], w[1])
		if err != nil {
			return nil, err
		}
		tMax := opt.Mean * 4
		fail, err := cs.CDFLBP1(w[0], w[1], opt.Sender, opt.K, markov.BothUp, tMax, dt)
		if err != nil {
			return nil, err
		}
		noFail, err := csNF.CDFLBP1(w[0], w[1], opt.Sender, opt.K, markov.BothUp, tMax, dt)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("(%d,%d)", w[0], w[1])
		res.Series = append(res.Series,
			report.Series{Name: name + "-failure", X: fail.Times(), Y: fail.F},
			report.Series{Name: name + "-no-failure", X: noFail.Times(), Y: noFail.F},
		)
		tbl.AddRow(name, fmt.Sprintf("%.2f", opt.K), report.F(fail.Mean()), report.F(noFail.Mean()),
			report.F(fail.Quantile(0.5)), report.F(fail.Quantile(0.95)))
	}
	res.Tables = append(res.Tables, tbl)
	res.Plots = append(res.Plots, report.AsciiPlot(72, 14, res.Series...))
	res.Notes = append(res.Notes, "the failure CDF must lie below the no-failure CDF at every t (stochastic dominance)")
	return res, saveArtifacts(cfg, res)
}
