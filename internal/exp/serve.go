package exp

import (
	"fmt"
	"io"

	"churnlb/internal/metrics"
	"churnlb/internal/policy"
	"churnlb/internal/report"
	"churnlb/internal/scenario"
	"churnlb/internal/serve"
	"churnlb/internal/sim"
)

func init() {
	register(Experiment{ID: "serve", Title: "Open-system serving: routing policies vs dynamic rebalancing under churn (extension)", Run: runServe})
}

// serveConfig pairs a dispatcher router factory with a balancing policy.
type serveConfig struct {
	name      string
	newRouter func() policy.Router // nil = uniform dispatch
	policy    policy.Policy
}

// serveConfigs is the comparison family: the paper's dynamic LBP-2
// extension (uniform dispatch, rebalance at every arrival) against pure
// routing — churn-blind JSQ and power-of-two-choices, and the
// churn-aware least-expected-work router.
func serveConfigs() []serveConfig {
	return []serveConfig{
		{"dynlbp2", nil, policy.Dynamic{Base: policy.LBP2{K: 1}}},
		{"jsq", func() policy.Router { return policy.JSQ{} }, policy.NoBalance{}},
		{"pod2", func() policy.Router { return policy.PowerOfD{D: 2} }, policy.NoBalance{}},
		{"lew", func() policy.Router { return policy.LeastExpectedWork{} }, policy.NoBalance{}},
	}
}

// runServe asks the paper's question in serving terms: how should
// balancing aggressiveness change when transfers are expensive relative
// to recovery? Dynamic LBP-2 rebalances at every arrival — the aggressive
// end; the routers never transfer at all — the lazy end, differing only
// in how informed each placement is. The system is purely open (no
// initial backlog), so tail latency is driven by placement decisions
// under churn (MTBF 80 s, MTTR 25 s ⇒ ~24% of nodes down at any time):
// a task routed to a down node waits out the residual recovery unless a
// transfer rescues it, and at the large delay a rescue bundle's flight
// time δ·L exceeds the recovery time itself.
func runServe(cfg Config) (*Result, error) {
	n := 50
	rate := 42.0
	horizon := 60.0
	reps := cfg.reps(6, 30)
	if cfg.Quick {
		n = 30
		rate = 24.0
		horizon = 40.0
	}
	deltas := []float64{0.02, 30.0}

	res := &Result{
		ID:    "serve",
		Title: fmt.Sprintf("Serving under churn, N=%d, rate %.0f/s, horizon %.0fs", n, rate, horizon),
	}
	tbl := report.Table{
		Title:   "Sojourn time and throughput by transfer delay and policy (mean over replications)",
		Headers: []string{"delta_s", "policy", "p50_s", "p99_s", "throughput_/s", "inflight", "availability"},
	}

	// p99/inflight[delta][config] for the crossover notes.
	p99s := make(map[float64]map[string]float64)
	flights := make(map[float64]map[string]float64)
	var tsWindows []metrics.WindowStats
	for _, delta := range deltas {
		sc, err := scenario.Generate(scenario.Spec{
			Kind:         scenario.Uniform,
			N:            n,
			TotalLoad:    0,
			Seed:         cfg.Seed,
			MTBF:         80,
			MTTR:         25,
			DelayPerTask: delta,
		})
		if err != nil {
			return nil, err
		}
		opt := serve.Options{
			Sim: sim.Options{
				Params:         sc.Params,
				InitialLoad:    sc.InitialLoad,
				InitialUp:      sc.InitialUp,
				ArrivalRate:    rate,
				ArrivalHorizon: horizon,
			},
		}
		p99s[delta] = make(map[string]float64)
		flights[delta] = make(map[string]float64)
		for _, sv := range serveConfigs() {
			cfg.logf("serve: delta=%.2f %s (%d reps)", delta, sv.name, reps)
			o := opt
			o.Sim.Policy = sv.policy
			o.NewRouter = sv.newRouter
			o.Seed = cfg.Seed
			// Replications fan out over the mc worker pool with the
			// MixSeed(cfg.Seed, rep) layout of a serial loop, folded in
			// replication order, so the statistics are bit-identical to it.
			agg, err := serve.RunManyPooled(o, reps, 0)
			if err != nil {
				return nil, err
			}
			p99s[delta][sv.name] = agg.P99.Mean
			flights[delta][sv.name] = agg.InFlight.Mean
			tbl.AddRow(
				report.F(delta), sv.name,
				fmt.Sprintf("%s ±%s", report.F(agg.P50.Mean), report.F(agg.P50.CI95)),
				fmt.Sprintf("%s ±%s", report.F(agg.P99.Mean), report.F(agg.P99.CI95)),
				report.F(agg.Throughput.Mean),
				report.F(agg.InFlight.Mean),
				report.F(agg.Availability.Mean),
			)
		}
		if delta == deltas[len(deltas)-1] && cfg.OutDir != "" {
			// One representative telemetry time series (the churn-aware
			// router at the large delay) for downstream plotting.
			o := opt
			o.Sim.Policy = policy.NoBalance{}
			o.NewRouter = func() policy.Router { return policy.LeastExpectedWork{} }
			o.Seed = cfg.Seed
			run, err := serve.Run(o)
			if err != nil {
				return nil, err
			}
			tsWindows = run.Windows
		}
	}
	res.Tables = append(res.Tables, tbl)

	small, large := deltas[0], deltas[1]
	if p99s[large]["lew"] < p99s[large]["jsq"] {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"churn-aware routing beats churn-blind JSQ on p99 when transfers are expensive relative to recovery: %.1f s vs %.1f s at delta=%.1f",
			p99s[large]["lew"], p99s[large]["jsq"], large))
	}
	ratioSmall := p99s[small]["dynlbp2"] / p99s[small]["lew"]
	ratioLarge := p99s[large]["dynlbp2"] / p99s[large]["lew"]
	res.Notes = append(res.Notes, fmt.Sprintf(
		"the paper's crossover in serving terms: aggressive churn-blind rebalancing costs %.2fx the churn-aware router's p99 at delta=%.2f and %.2fx at delta=%.1f — balance less as transfers get expensive",
		ratioSmall, small, ratioLarge, large))
	res.Notes = append(res.Notes, fmt.Sprintf(
		"the rebalancer's work floats in the network as delta grows: dynlbp2 keeps %.1f tasks in flight on average at delta=%.1f vs %.2f at delta=%.2f, while the routers keep none",
		flights[large]["dynlbp2"], large, flights[small]["dynlbp2"], small))

	if tsWindows != nil {
		path, err := report.SaveCSV(cfg.OutDir, "serve_timeseries.csv", func(w io.Writer) error {
			return metrics.WriteWindowsCSV(w, tsWindows)
		})
		if err != nil {
			return nil, err
		}
		res.Files = append(res.Files, path)
	}
	return res, saveArtifacts(cfg, res)
}
