// Package rerun is the run path of the manifest-writing CLIs: an
// obs.Manifest is a JSON-serialisable description of one run (cluster,
// workload, policy, laws, engine, seeds, reps), and Execute turns that
// description into the run. lbsim, lbserve and lbd translate their flags
// into a manifest, Execute it, print from the Outcome and save the
// manifest with the Outcome's metrics (lbd runs its live half from the
// same manifest, through DaemonOptions); `reproduce -manifest` loads a
// saved one and calls Run — Execute again, plus a bit-for-bit comparison
// of the metrics (and, for traced runs, the decision-stream hash) against
// the recorded values. The run a manifest records and the run a replay
// executes are therefore the same function.
//
// Spellings are not defined here: policies and routers resolve through
// internal/policy, laws through the Parse function beside each enum
// (sim.ParseTransferMode, sim.ParseChurnLaw). This package adds only what
// a run description adds: lbserve's "dynlbp2" (uniform dispatch under the
// dynamic policy), the scenario runs' reading of "lbp1" as its N-node
// form and the daemon runs' refusal of it on any fleet but two workers.
package rerun

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"churnlb"
	"churnlb/internal/calib"
	"churnlb/internal/daemon"
	"churnlb/internal/mc"
	"churnlb/internal/model"
	"churnlb/internal/obs"
	"churnlb/internal/policy"
	"churnlb/internal/scenario"
	"churnlb/internal/serve"
	"churnlb/internal/sim"
	"churnlb/internal/xrand"
)

// Hooks are the two inputs of a run that are not data.
type Hooks struct {
	// DecisionLog receives the JSONL decision records of a traced serving
	// run (a manifest with a Decisions block); nil keeps only the summary.
	DecisionLog io.Writer
	// Interrupt, once closed, cuts the arrival stream of a single serving
	// run, which then drains (see churnlb.ServeOptions.Interrupt). Sweeps
	// finish.
	Interrupt <-chan struct{}
}

// Outcome is what one executed manifest produced.
type Outcome struct {
	// Metrics is the manifest metric map of the run.
	Metrics map[string]float64
	// Scenario is the generated cluster of a scenario run (nil for System
	// runs) and Policy the balancing policy of a closed run — what the
	// CLIs label their reports with.
	Scenario *scenario.Scenario
	Policy   policy.Policy
	// The rich result, by mode: Sim for sim and sim-scenario, Estimate for
	// mc and mc-scenario, Serve for serve, ServeMany for serve-many, Twin
	// (the simulator twin) for daemon.
	Sim       *sim.Result
	Estimate  churnlb.Estimate
	Serve     churnlb.ServeResult
	ServeMany churnlb.ServeEstimate
	Twin      *serve.Result
}

// SpecError marks a fault in the description itself — an unknown
// spelling, a malformed system block, a scenario that cannot be
// generated — as opposed to a failure of the run it describes. The CLIs
// exit 2 on it, 1 on anything else.
type SpecError struct{ Err error }

func (e *SpecError) Error() string { return e.Err.Error() }
func (e *SpecError) Unwrap() error { return e.Err }

// ExitCode is the CLIs' exit status for an error of Execute or Run: 2 for
// a SpecError, 1 for a run that failed.
func ExitCode(err error) int {
	var bad *SpecError
	if errors.As(err, &bad) {
		return 2
	}
	return 1
}

// Execute runs the realisation (or study) m describes. A diurnal serving
// manifest that records no wave shape has it resolved in place — the
// scenario's own wave when -load generated one, else two cycles across
// the horizon — so the manifest the caller saves describes the run that
// happened and a replay never re-derives it. A manifest that records
// shards ran on the domain-sharded engine, which no longer exists: it is
// a SpecError, not a run whose metrics would merely differ.
func Execute(m *obs.Manifest, hooks Hooks) (*Outcome, error) {
	if m.Shards > 0 {
		return nil, &SpecError{fmt.Errorf("rerun: manifest records shards %d: the domain-sharded engine that ran it has been removed, and the sequential engine draws a different realisation", m.Shards)}
	}
	switch m.Mode {
	case obs.ModeServe, obs.ModeServeMany:
		return serveRun(m, hooks)
	case obs.ModeSim, obs.ModeMC, obs.ModeSimScenario, obs.ModeMCScenario:
		return closedRun(m)
	case obs.ModeDaemon:
		return twinRun(m)
	default:
		return nil, &SpecError{fmt.Errorf("rerun: unknown manifest mode %q", m.Mode)}
	}
}

// params rebuilds validated model parameters from a manifest's system
// block.
func params(r *obs.SystemRef) (model.Params, error) {
	if r == nil {
		return model.Params{}, fmt.Errorf("rerun: manifest records no system")
	}
	if len(r.ProcRate) != len(r.FailRate) || len(r.ProcRate) != len(r.RecRate) {
		return model.Params{}, fmt.Errorf("rerun: system ref has mismatched rate vectors")
	}
	p := model.Params{
		ProcRate:     append([]float64(nil), r.ProcRate...),
		FailRate:     append([]float64(nil), r.FailRate...),
		RecRate:      append([]float64(nil), r.RecRate...),
		DelayPerTask: r.DelayPerTask,
	}
	return p, p.Validate()
}

// generate regenerates the scenario a manifest pinned.
func generate(m *obs.Manifest) (*scenario.Scenario, error) {
	if m.Scenario == nil {
		return nil, fmt.Errorf("rerun: manifest records no scenario")
	}
	kind, err := scenario.ParseKind(m.Scenario.Kind)
	if err != nil {
		return nil, err
	}
	return scenario.Generate(scenario.Spec{
		Kind:         kind,
		N:            m.Scenario.Nodes,
		TotalLoad:    m.Scenario.Load,
		Seed:         m.Seed,
		DelayPerTask: m.Scenario.Delta,
	})
}

// laws parses the manifest's law spellings. A manifest omits unset
// fields, so "" means each enum's default.
func laws(m *obs.Manifest) (tm sim.TransferMode, cl sim.ChurnLaw, err error) {
	orDefault := func(s, def string) string {
		if s == "" {
			return def
		}
		return s
	}
	if tm, err = sim.ParseTransferMode(orDefault(m.Transfer, "bundle")); err != nil {
		return
	}
	cl, err = sim.ParseChurnLaw(orDefault(m.Churn, "exp"))
	return
}

// closedRun executes the four lbsim modes, which are one builder: cluster
// source (System + InitialLoad | Scenario) × one realisation | a
// Monte-Carlo study.
func closedRun(m *obs.Manifest) (*Outcome, error) {
	out := &Outcome{}
	single := m.Mode == obs.ModeSim || m.Mode == obs.ModeSimScenario
	fromScenario := m.Mode == obs.ModeSimScenario || m.Mode == obs.ModeMCScenario

	var opt sim.Options
	name := m.Policy.Name
	if fromScenario {
		sc, err := generate(m)
		if err != nil {
			return nil, &SpecError{err}
		}
		out.Scenario = sc
		opt = sc.Options(nil, nil)
		if name == "lbp1" {
			name = "lbp1multi" // the N-node generalisation of LBP-1
		}
	} else {
		p, err := params(m.System)
		if err != nil {
			return nil, &SpecError{err}
		}
		opt = sim.Options{Params: p, InitialLoad: m.InitialLoad}
	}
	spec, err := policy.ParseSpec(name, m.Policy.K, m.Policy.Sender)
	if err != nil {
		return nil, &SpecError{err}
	}
	if opt.Policy, err = spec.Build(); err != nil {
		return nil, &SpecError{err}
	}
	out.Policy = opt.Policy
	if opt.TransferMode, opt.ChurnLaw, err = laws(m); err != nil {
		return nil, &SpecError{err}
	}
	opt.LazyChurn = m.LazyChurn

	if single {
		// The seeds are each mode's historical ones: recorded manifests
		// must keep replaying.
		if fromScenario {
			opt.Rand = xrand.NewStream(m.Seed, 0)
		} else {
			opt.Rand = xrand.New(m.Seed)
			opt.Trace = true // sim is lbsim -trace; tracing never perturbs the run
		}
		res, err := sim.Run(opt)
		if err != nil {
			return nil, err
		}
		out.Sim = res
		out.Metrics = simMetrics(res, fromScenario)
		return out, nil
	}
	est, err := sim.MonteCarlo(mc.Options{Reps: m.Reps, Seed: m.Seed}, opt)
	if err != nil {
		return nil, err
	}
	out.Estimate = est.Summary
	out.Metrics = mcMetrics(est.Summary)
	return out, nil
}

// serveRun executes the lbserve modes through the public serving API.
func serveRun(m *obs.Manifest, hooks Hooks) (*Outcome, error) {
	// lbserve's one spelling that is not a router: the paper's dynamic
	// extension, uniform dispatch with LBP-2 rebalancing at every arrival.
	var router churnlb.RouterSpec
	pol := churnlb.PolicySpec{Kind: churnlb.PolicyNone}
	if m.Policy.Name == "dynlbp2" {
		if err := policy.CheckGain(m.Policy.K); err != nil {
			return nil, &SpecError{err}
		}
		pol = churnlb.PolicySpec{Kind: churnlb.PolicyDynamicLBP2, K: m.Policy.K}
	} else {
		var err error
		if router, err = policy.ParseRouterSpec(m.Policy.Name, m.Policy.D); err != nil {
			return nil, &SpecError{fmt.Errorf("unknown policy %q (want %s or dynlbp2)",
				m.Policy.Name, strings.Join(policy.RouterNames(), ", "))}
		}
	}
	tm, cl, err := laws(m)
	if err != nil {
		return nil, &SpecError{err}
	}
	sc, err := generate(m)
	if err != nil {
		return nil, &SpecError{err}
	}
	if m.Scenario.Kind == scenario.Diurnal.String() && m.WavePeriod <= 0 {
		m.WaveAmplitude, m.WavePeriod = sc.WaveAmplitude, sc.WavePeriod
		if m.WavePeriod <= 0 {
			m.WaveAmplitude, m.WavePeriod = 0.8, m.Horizon/2
		}
	}
	opt := churnlb.ServeOptions{
		Rate:          m.Rate,
		Batch:         m.Batch,
		Horizon:       m.Horizon,
		InitialLoad:   sc.InitialLoad,
		InitialUp:     sc.InitialUp,
		Window:        m.Window,
		TransferMode:  tm,
		ChurnLaw:      cl,
		WaveAmplitude: m.WaveAmplitude,
		WavePeriod:    m.WavePeriod,
	}
	sys := churnlb.System{DelayPerTask: sc.Params.DelayPerTask, Nodes: make([]churnlb.Node, sc.Params.N())}
	for i := range sys.Nodes {
		sys.Nodes[i] = churnlb.Node{
			ProcRate: sc.Params.ProcRate[i], FailRate: sc.Params.FailRate[i], RecRate: sc.Params.RecRate[i],
		}
	}
	out := &Outcome{Scenario: sc}
	if m.Mode == obs.ModeServeMany {
		opt.Workers = m.Workers
		if out.ServeMany, err = churnlb.ServeMany(sys, pol, router, m.Reps, m.Seed, opt); err != nil {
			return nil, err
		}
		out.Metrics = serveManyMetrics(out.ServeMany)
		return out, nil
	}
	if m.Decisions != nil {
		opt.TraceDecisions = true
		opt.DecisionK = m.Decisions.K
		opt.DecisionLog = hooks.DecisionLog
	}
	opt.Interrupt = hooks.Interrupt
	if out.Serve, err = churnlb.Serve(sys, pol, router, m.Seed, opt); err != nil {
		return nil, err
	}
	out.Metrics = serveMetrics(out.Serve)
	return out, nil
}

// daemonSpec is a daemon manifest resolved: what both halves of an lbd
// calibration run — the live daemon and its simulator twin — are built
// from.
type daemonSpec struct {
	params model.Params
	// newRouter builds one router per half: routers may be stateful (a
	// round-robin's rotation), and the live run's must not leak into the
	// twin's.
	newRouter func() policy.Router
	policy    policy.Policy
	churn     sim.ChurnLaw
	trace     []sim.ArrivalAt
}

// resolveDaemon resolves a daemon manifest — cluster, t = 0 backlog,
// router and balancing-policy spellings, churn law, and the recorded
// trace spec regenerated into its arrival schedule. A manifest with rate
// 0 records no trace: its run is closed, and its backlog is the workload.
// Every fault is a SpecError: a run with neither a trace nor a backlog,
// a backlog that does not fit the fleet, and two-node LBP-1 on any other
// fleet size among them.
func resolveDaemon(m *obs.Manifest) (*daemonSpec, error) {
	d := &daemonSpec{}
	var err error
	if d.params, err = params(m.System); err != nil {
		return nil, &SpecError{err}
	}
	n := d.params.N()
	if m.InitialLoad != nil && len(m.InitialLoad) != n {
		return nil, &SpecError{fmt.Errorf("rerun: initial load has %d entries for %d workers", len(m.InitialLoad), n)}
	}
	backlog := 0
	for i, q := range m.InitialLoad {
		if q < 0 {
			return nil, &SpecError{fmt.Errorf("rerun: negative initial load %d at worker %d", q, i)}
		}
		backlog += q
	}
	if _, d.churn, err = laws(m); err != nil {
		return nil, &SpecError{err}
	}
	router, err := policy.ParseRouterSpec(m.Policy.Name, m.Policy.D)
	if err != nil {
		return nil, &SpecError{err}
	}
	if d.newRouter, err = router.Factory(); err != nil {
		return nil, &SpecError{err}
	}
	bal, err := policy.ParseSpec(m.Balance, m.Policy.K, policy.AutoSender)
	if err != nil {
		return nil, &SpecError{err}
	}
	if bal.Kind == policy.KindLBP1 && n != 2 {
		return nil, &SpecError{fmt.Errorf("balance policy lbp1 is two-node only, and the fleet has %d workers (want lbp1multi, lbp2, none or dynamic)", n)}
	}
	if d.policy, err = bal.Build(); err != nil {
		return nil, &SpecError{err}
	}
	if m.Rate != 0 {
		d.trace, err = calib.TraceSpec{Seed: m.Seed, Rate: m.Rate, Horizon: m.Horizon, Batch: m.Batch}.Generate()
		if err != nil {
			return nil, &SpecError{err}
		}
	} else if backlog == 0 {
		return nil, &SpecError{fmt.Errorf("rerun: daemon manifest records neither an arrival rate nor a backlog: nothing to run")}
	}
	return d, nil
}

// DaemonOptions resolves a daemon manifest into the live daemon's options:
// everything the manifest records (the wall-clock knobs TimeScale and
// StateInterval included). The caller adds what no manifest records — the
// front-door knobs, Interrupt and MaxWall.
func DaemonOptions(m *obs.Manifest) (daemon.Options, error) {
	d, err := resolveDaemon(m)
	if err != nil {
		return daemon.Options{}, err
	}
	return daemon.Options{
		Params:        d.params,
		Router:        d.newRouter(),
		Policy:        d.policy,
		InitialLoad:   m.InitialLoad,
		ChurnLaw:      d.churn,
		Trace:         d.trace,
		Batch:         m.Batch,
		Window:        m.Window,
		Seed:          m.Seed,
		TimeScale:     m.TimeScale,
		StateInterval: m.StateInterval,
	}, nil
}

// twinRun replays a daemon manifest's deterministic half: the recorded
// backlog and trace through the discrete-event simulator under the
// manifest's policy configuration re-derives the Metrics fingerprint. The
// live side (LiveMetrics) is a measurement of a real system and is not
// replayed.
func twinRun(m *obs.Manifest) (*Outcome, error) {
	d, err := resolveDaemon(m)
	if err != nil {
		return nil, err
	}
	res, err := serve.Run(serve.Options{
		Sim: sim.Options{Params: d.params, Policy: d.policy, InitialLoad: m.InitialLoad,
			ChurnLaw: d.churn, ArrivalTrace: d.trace},
		NewRouter: d.newRouter,
		Window:    m.Window,
		Seed:      m.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Outcome{Metrics: calib.TwinMetrics(res), Twin: res}, nil
}

// serveMetrics is the manifest metric map of a single serving run.
func serveMetrics(res churnlb.ServeResult) map[string]float64 {
	m := map[string]float64{}
	m["arrived"] = float64(res.Arrived)
	m["completed"] = float64(res.Completed)
	m["duration"] = res.Duration
	obs.PutFinite(m, "p50", res.P50)
	obs.PutFinite(m, "p90", res.P90)
	obs.PutFinite(m, "p99", res.P99)
	obs.PutFinite(m, "mean_sojourn", res.MeanSojourn)
	obs.PutFinite(m, "mean_wait", res.MeanWait)
	obs.PutFinite(m, "throughput", res.Throughput)
	obs.PutFinite(m, "availability", res.Availability)
	obs.PutFinite(m, "queue_depth", res.QueueDepth)
	obs.PutFinite(m, "in_flight", res.InFlight)
	obs.PutFinite(m, "fairness", res.Fairness)
	m["failures"] = float64(res.Failures)
	m["recoveries"] = float64(res.Recoveries)
	m["transfers_sent"] = float64(res.TransfersSent)
	m["tasks_transferred"] = float64(res.TasksTransferred)
	return m
}

// serveManyMetrics is the manifest metric map of a serving sweep.
func serveManyMetrics(est churnlb.ServeEstimate) map[string]float64 {
	m := map[string]float64{}
	m["n"] = float64(est.N)
	obs.PutFinite(m, "p50_mean", est.P50.Mean)
	obs.PutFinite(m, "p50_ci95", est.P50.CI95)
	obs.PutFinite(m, "p99_mean", est.P99.Mean)
	obs.PutFinite(m, "p99_ci95", est.P99.CI95)
	obs.PutFinite(m, "throughput_mean", est.Throughput.Mean)
	obs.PutFinite(m, "throughput_ci95", est.Throughput.CI95)
	obs.PutFinite(m, "availability_mean", est.Availability.Mean)
	obs.PutFinite(m, "availability_ci95", est.Availability.CI95)
	obs.PutFinite(m, "pooled_p50", est.PooledP50)
	obs.PutFinite(m, "pooled_p90", est.PooledP90)
	obs.PutFinite(m, "pooled_p99", est.PooledP99)
	obs.PutFinite(m, "pooled_fairness", est.PooledFairness)
	return m
}

// mcMetrics is the manifest metric map of a completion-time Monte-Carlo
// estimate (two-node or scenario).
func mcMetrics(est churnlb.Estimate) map[string]float64 {
	m := map[string]float64{}
	m["n"] = float64(est.N)
	obs.PutFinite(m, "mean", est.Mean)
	obs.PutFinite(m, "std", est.Std)
	obs.PutFinite(m, "ci95", est.CI95)
	return m
}

// simMetrics is the manifest metric map of a single closed realisation;
// scenario runs record two counters more than the two-node mode ever did.
func simMetrics(res *sim.Result, fromScenario bool) map[string]float64 {
	m := map[string]float64{}
	m["completion_time"] = res.CompletionTime
	m["failures"] = float64(res.Failures)
	m["transfers_sent"] = float64(res.TransfersSent)
	m["tasks_transferred"] = float64(res.TasksTransferred)
	if fromScenario {
		m["recoveries"] = float64(res.Recoveries)
		m["external_arrivals"] = float64(res.ExternalArrivals)
	}
	return m
}

// Diff is one metric whose replayed value differs from the recorded one.
type Diff struct {
	Key       string
	Want, Got float64
}

// Report is the outcome of replaying one manifest.
type Report struct {
	// Mode echoes the manifest mode that was replayed.
	Mode string
	// Metrics holds the replay's metric map.
	Metrics map[string]float64
	// Diffs lists metrics with differing values; Missing the recorded
	// keys the replay did not produce; Extra the replayed keys the
	// manifest lacks.
	Diffs          []Diff
	Missing, Extra []string
	// HashWant and HashGot compare the decision-stream hashes when the
	// manifest carries a decisions block ("" otherwise).
	HashWant, HashGot string
	// Decisions summarises the replay's decision trace, when traced.
	Decisions *obs.DecisionStats
}

// OK reports whether the replay reproduced the manifest exactly.
func (r *Report) OK() bool {
	return len(r.Diffs) == 0 && len(r.Missing) == 0 && len(r.Extra) == 0 &&
		r.HashWant == r.HashGot
}

// compare fills the report's diff lists from the recorded and replayed
// metric maps. Values compare with ==: both sides are float64 that
// round-tripped through JSON's shortest-form encoding, so a
// deterministic replay matches bit-for-bit.
func (r *Report) compare(want map[string]float64) {
	keys := make([]string, 0, len(want)+len(r.Metrics))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	prev := ""
	for i, k := range keys {
		if i > 0 && k == prev {
			continue // union: a key in both maps appears twice
		}
		prev = k
		w, haveW := want[k]
		g, haveG := r.Metrics[k]
		switch {
		case !haveW:
			r.Extra = append(r.Extra, k)
		case !haveG:
			r.Missing = append(r.Missing, k)
		case w != g:
			r.Diffs = append(r.Diffs, Diff{Key: k, Want: w, Got: g})
		}
	}
}

// Run replays a manifest — Execute, then compare — and reports how
// faithfully the replay matched. For manifests with a decisions block the
// replay re-attaches the decision tracer at the recorded counterfactual
// depth and compares the stream hash; decisionLog, when non-nil,
// additionally receives the replayed JSONL records.
func Run(m *obs.Manifest, decisionLog io.Writer) (*Report, error) {
	out, err := Execute(m, Hooks{DecisionLog: decisionLog})
	if err != nil {
		return nil, err
	}
	rep := &Report{Mode: m.Mode, Metrics: out.Metrics, Decisions: out.Serve.Decisions}
	rep.compare(m.Metrics)
	if m.Decisions != nil {
		rep.HashWant = m.Decisions.Hash
		if rep.Decisions != nil {
			rep.HashGot = obs.HashString(rep.Decisions.Hash)
		}
	}
	return rep, nil
}
