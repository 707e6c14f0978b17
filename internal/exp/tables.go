package exp

import (
	"fmt"
	"time"

	"churnlb/internal/cluster"
	"churnlb/internal/daemon"
	"churnlb/internal/markov"
	"churnlb/internal/mc"
	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/report"
	"churnlb/internal/sim"
	"churnlb/internal/stats"
)

func init() {
	register(Experiment{ID: "table1", Title: "LBP-1 optimal gains and completion times (paper Table 1)", Run: runTable1})
	register(Experiment{ID: "table2", Title: "LBP-2 completion times (paper Table 2)", Run: runTable2})
	register(Experiment{ID: "table3", Title: "LBP-1 vs LBP-2 across transfer delays (paper Table 3)", Run: runTable3})
}

// workloads are the initial distributions of Tables 1 and 2.
var workloads = [][2]int{{200, 200}, {200, 100}, {100, 200}, {200, 50}, {50, 200}}

// paperTable1 holds the published Table 1: optimal gain, theoretical
// prediction, wireless-LAN experimental result, and no-failure theory.
var paperTable1 = map[[2]int]struct{ k, theo, exp, nofail float64 }{
	{200, 200}: {0.15, 274.95, 264.72, 141.94},
	{200, 100}: {0.35, 210.13, 207.32, 106.93},
	{100, 200}: {0.15, 210.13, 229.19, 106.93},
	{200, 50}:  {0.50, 177.09, 172.56, 89.32},
	{50, 200}:  {0.25, 177.09, 215.66, 89.32},
}

// paperTable2 holds the published Table 2: initial gain, MC simulation and
// experimental completion times.
var paperTable2 = map[[2]int]struct{ k, mcv, exp float64 }{
	{200, 200}: {1.00, 277.90, 263.40},
	{200, 100}: {1.00, 202.40, 188.80},
	{100, 200}: {0.80, 203.07, 212.90},
	{200, 50}:  {1.00, 170.81, 171.42},
	{50, 200}:  {0.95, 189.72, 177.60},
}

// paperTable3 holds the published Table 3 delay sweep for workload
// (100,60).
var paperTable3 = []struct{ delta, lbp1, lbp2 float64 }{
	{0.01, 116.82, 112.43},
	{0.50, 117.76, 115.94},
	{1.00, 120.99, 122.25},
	{2.00, 127.62, 133.02},
	{3.00, 131.64, 142.86},
}

// testbedRun is one closed run of the live engine — the Section-3 testbed:
// the workload is the initial backlog — over in-process channels, and
// returns its overall completion time in virtual seconds.
func testbedRun(p model.Params, pol policy.Policy, load []int, scale float64, seed uint64, maxWall time.Duration) (float64, error) {
	tr := cluster.NewChanTransport(p.N() + 1) // the workers plus the idle dispatcher
	defer tr.Close()
	out, err := daemon.Run(daemon.Options{
		Params: p, Policy: pol, InitialLoad: load,
		TimeScale: scale, Seed: seed,
		Transport: tr, MaxWall: maxWall,
	})
	if err != nil {
		return 0, err
	}
	return out.Summary.Elapsed, nil
}

// testbedMean runs the concurrent testbed reps times and summarises.
func testbedMean(cfg Config, p model.Params, pol policy.Policy, load []int, reps int, salt uint64) (stats.Summary, error) {
	var w stats.Welford
	scale := 1000.0
	if cfg.Quick {
		scale = 2500
	}
	for rep := 0; rep < reps; rep++ {
		t, err := testbedRun(p, pol, load, scale, cfg.Seed^salt^uint64(rep*7919), 3*time.Minute)
		if err != nil {
			return stats.Summary{}, err
		}
		w.Add(t)
	}
	return w.Summary(), nil
}

// runTable1 regenerates Table 1: for each workload, the failure-aware
// optimal gain and mean from the regenerative solver, our testbed result
// in place of the paper's wireless-LAN experiment, and the no-failure
// optimum.
func runTable1(cfg Config) (*Result, error) {
	res := &Result{ID: "table1", Title: "LBP-1 with theoretically optimal gains"}
	p := model.PaperBaseline()
	ms, err := markov.NewMeanSolver(p)
	if err != nil {
		return nil, err
	}
	msNF, err := markov.NewMeanSolver(p.NoFailure())
	if err != nil {
		return nil, err
	}
	headers := []string{"workload", "Kopt paper", "Kopt ours", "theory paper", "theory ours", "exp paper", "no-fail paper", "no-fail ours"}
	if cfg.Testbed {
		headers = append(headers, "testbed ours")
	}
	tbl := report.Table{Title: "Average overall completion time (s), LBP-1", Headers: headers}
	for _, w := range workloads {
		cfg.logf("table1: optimising workload (%d,%d)", w[0], w[1])
		opt := ms.OptimizeLBP1(w[0], w[1])
		optNF := msNF.OptimizeLBP1(w[0], w[1])
		ref := paperTable1[w]
		row := []string{
			fmt.Sprintf("(%d,%d)", w[0], w[1]),
			fmt.Sprintf("%.2f", ref.k), fmt.Sprintf("%.2f", opt.K),
			report.F(ref.theo), report.F(opt.Mean),
			report.F(ref.exp),
			report.F(ref.nofail), report.F(optNF.Mean),
		}
		if cfg.Testbed {
			bed, err := testbedMean(cfg, p,
				policy.LBP1{K: opt.K, Sender: opt.Sender}, []int{w[0], w[1]},
				cfg.reps(3, 15), 0x7A1)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%s ±%s", report.F(bed.Mean), report.F(bed.CI95)))
		}
		tbl.AddRow(row...)
	}
	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes,
		"'exp paper' is the authors' physical wireless-LAN measurement; our analogue is the goroutine testbed column",
		"symmetric workload pairs (200,100)/(100,200) and (200,50)/(50,200) must produce near-identical theory values")
	return res, saveArtifacts(cfg, res)
}

// runTable2 regenerates Table 2: LBP-2 with the initial gain optimised
// under the no-failure model, Monte-Carlo and testbed completion times.
func runTable2(cfg Config) (*Result, error) {
	res := &Result{ID: "table2", Title: "LBP-2 with no-failure-optimal initial gains"}
	p := model.PaperBaseline()
	headers := []string{"workload", "K paper", "K ours", "MC paper", "MC ours", "exp paper"}
	if cfg.Testbed {
		headers = append(headers, "testbed ours")
	}
	tbl := report.Table{Title: "Average overall completion time (s), LBP-2", Headers: headers}
	reps := cfg.reps(500, 5000)
	for _, w := range workloads {
		k, _, _, err := markov.LBP2InitialGain(p, w[0], w[1])
		if err != nil {
			return nil, err
		}
		cfg.logf("table2: workload (%d,%d) K=%.2f", w[0], w[1], k)
		pol := policy.LBP2{K: k}
		est, err := sim.MonteCarlo(mc.Options{Reps: reps, Workers: cfg.Workers, Seed: cfg.Seed + uint64(w[0]*3+w[1])},
			sim.Options{Params: p, Policy: pol, InitialLoad: []int{w[0], w[1]}})
		if err != nil {
			return nil, err
		}
		ref := paperTable2[w]
		row := []string{
			fmt.Sprintf("(%d,%d)", w[0], w[1]),
			fmt.Sprintf("%.2f", ref.k), fmt.Sprintf("%.2f", k),
			report.F(ref.mcv), fmt.Sprintf("%s ±%s", report.F(est.Mean), report.F(est.CI95)),
			report.F(ref.exp),
		}
		if cfg.Testbed {
			bed, err := testbedMean(cfg, p, pol, []int{w[0], w[1]}, cfg.reps(3, 15), 0x7A2)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%s ±%s", report.F(bed.Mean), report.F(bed.CI95)))
		}
		tbl.AddRow(row...)
	}
	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes, "LBP-2 outperforms LBP-1 on every workload at δ=0.02 s (compare with table1)")
	return res, saveArtifacts(cfg, res)
}

// runTable3 regenerates the delay sweep: LBP-1's theory optimum and
// LBP-2's Monte-Carlo mean (gain re-optimised per delay under the
// no-failure model, as the authors did) as the per-task delay grows.
func runTable3(cfg Config) (*Result, error) {
	res := &Result{ID: "table3", Title: "Policy crossover as transfer delay grows (workload (100,60))"}
	tbl := report.Table{
		Title:   "Average overall completion time (s) vs mean delay per task",
		Headers: []string{"δ (s)", "LBP-1 paper", "LBP-1 ours (theory)", "LBP-2 paper", "LBP-2 ours (MC)", "winner paper", "winner ours"},
	}
	reps := cfg.reps(800, 6000)
	var xs, y1, y2 []float64
	for _, ref := range paperTable3 {
		p := model.PaperBaseline().WithDelay(ref.delta)
		ms, err := markov.NewMeanSolver(p)
		if err != nil {
			return nil, err
		}
		opt := ms.OptimizeLBP1(100, 60)
		k2, _, _, err := markov.LBP2InitialGain(p, 100, 60)
		if err != nil {
			return nil, err
		}
		est, err := sim.MonteCarlo(mc.Options{Reps: reps, Workers: cfg.Workers, Seed: cfg.Seed + uint64(ref.delta*100)},
			sim.Options{Params: p, Policy: policy.LBP2{K: k2}, InitialLoad: []int{100, 60}})
		if err != nil {
			return nil, err
		}
		winnerPaper := "LBP-2"
		if ref.lbp1 < ref.lbp2 {
			winnerPaper = "LBP-1"
		}
		winnerOurs := "LBP-2"
		if opt.Mean < est.Mean {
			winnerOurs = "LBP-1"
		}
		cfg.logf("table3: δ=%.2f lbp1=%.2f lbp2=%.2f", ref.delta, opt.Mean, est.Mean)
		tbl.AddRow(fmt.Sprintf("%.2f", ref.delta),
			report.F(ref.lbp1), report.F(opt.Mean),
			report.F(ref.lbp2), fmt.Sprintf("%s ±%s", report.F(est.Mean), report.F(est.CI95)),
			winnerPaper, winnerOurs)
		xs = append(xs, ref.delta)
		y1 = append(y1, opt.Mean)
		y2 = append(y2, est.Mean)
	}
	res.Tables = append(res.Tables, tbl)
	res.Series = append(res.Series,
		report.Series{Name: "LBP1-theory", X: xs, Y: y1},
		report.Series{Name: "LBP2-mc", X: xs, Y: y2},
	)
	res.Plots = append(res.Plots, report.AsciiPlot(60, 12, res.Series...))
	res.Notes = append(res.Notes, "paper claim: LBP-2 wins below δ≈1 s, LBP-1 wins above — the crossover must reproduce")
	return res, saveArtifacts(cfg, res)
}
