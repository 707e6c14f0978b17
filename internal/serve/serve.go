// Package serve is the open-system serving core shared by the manifest
// runner, the public churnlb.Serve API and the experiment harness: it
// wires a dispatcher router, a balancing policy and the fixed-memory
// telemetry collector into one simulator realisation driven by external
// arrivals. The
// per-task records (a sim.Ledger), the collector and, when one rides the
// run, the decision tracer run on a goroutine of their own, fed the
// observer hooks in order (pipe.go), so their output is the same bits it
// would be inline. The observer stream is the only thing the simulator
// hands out: the tracer's routing decisions are its arrivals after Armed,
// priced over the ledger's view.
package serve

import (
	"fmt"
	"slices"

	"churnlb/internal/metrics"
	"churnlb/internal/model"
	"churnlb/internal/obs"
	"churnlb/internal/policy"
	"churnlb/internal/sim"
	"churnlb/internal/xrand"
)

// Options configures one serving realisation: the simulator run it is
// (Sim) plus what serving adds around it.
type Options struct {
	// Sim is the realisation: cluster, policy, t = 0 state, laws and the
	// arrival stream — a Poisson stream (ArrivalRate and ArrivalHorizon
	// positive) or an ArrivalTrace. Without one (ArrivalRate 0) the run is
	// closed, and InitialLoad must hold tasks. A nil InitialLoad means
	// empty queues. Run supplies Rand, Router and TaskObserver itself and
	// refuses options that set any of them. Sim.Interrupt cuts a single
	// run's arrival stream (see sim.Options.Interrupt).
	// (LazyChurn is accepted and never granted: the telemetry observer
	// must see every node-state change in time order.)
	Sim sim.Options
	// NewRouter builds the dispatcher for this run; nil routes each
	// arrival to a uniformly random node. A factory rather than an
	// instance because routers may be stateful per run.
	NewRouter func() policy.Router
	// Window is the telemetry window width; 0 derives the arrival horizon
	// (a trace's last entry time) / 100, at least 0.1 s.
	Window float64
	// Seed drives all randomness.
	Seed uint64
	// Tracer, when non-nil, is told every routing decision and every
	// completion of the run, from the telemetry goroutine: before each
	// arrival after the realisation is armed, Decision with the ledger's
	// view of the state the router decided on and the rule's
	// policy.Considered, and every completion the ledger rebuilds. It
	// reads the stream the collector reads, so the simulator does the same
	// work traced or not; its log is written by the time Run returns, and
	// a write error fails Run. Single runs only — RunManyPooled's
	// replications run concurrently and would interleave through one
	// tracer's state, so it refuses one (and a Sim.Interrupt).
	Tracer *obs.DecisionTracer
}

// Result reports one serving realisation.
type Result struct {
	// Summary is the whole-run telemetry aggregate.
	Summary metrics.Summary
	// Windows is the telemetry time series.
	Windows []metrics.WindowStats
	// Latency holds the run's sojourn-time percentile sketches, retained
	// so replication aggregators can pool latency across runs.
	Latency metrics.LatencySketch
	// Fairness holds the run's per-node completed-work tally, retained so
	// replication aggregators can pool the Jain index exactly across runs.
	Fairness metrics.Fairness
	// Sim is the underlying simulator result (completion time, churn and
	// transfer counters, per-node processed counts, and Interrupted: a
	// cut arrival stream, whose telemetry covers a shorter run than
	// requested).
	Sim *sim.Result
}

// Utilization is each node's processed work as a fraction of its
// capacity over the run, processed/(λd·duration); all zeros for a run
// that took no time.
func (r *Result) Utilization(p model.Params) []float64 {
	u := make([]float64, p.N())
	if d := r.Sim.CompletionTime; d > 0 {
		for i, done := range r.Sim.Processed {
			u[i] = float64(done) / (p.ProcRate[i] * d)
		}
	}
	return u
}

// Run executes one serving realisation. Deterministic for a given seed.
func Run(opt Options) (*Result, error) {
	so := opt.Sim
	for _, f := range [...]struct {
		name string
		set  bool
	}{
		{"Rand", so.Rand != nil},
		{"Router", so.Router != nil},
		{"TaskObserver", so.TaskObserver != nil},
	} {
		if f.set {
			return nil, fmt.Errorf("serve: Sim.%s is set; Run supplies it (Seed, NewRouter, the collector)", f.name)
		}
	}
	horizon := so.ArrivalHorizon
	switch {
	case len(so.ArrivalTrace) > 0:
		if horizon <= 0 {
			// Telemetry horizon defaults to the recorded stream's span.
			horizon = so.ArrivalTrace[len(so.ArrivalTrace)-1].Time
			if horizon <= 0 {
				horizon = 1
			}
		}
	case so.ArrivalRate == 0 && slices.ContainsFunc(so.InitialLoad, func(q int) bool { return q > 0 }):
		// A closed realisation: the t = 0 backlog is the whole workload.
		horizon = 0
	case !(so.ArrivalRate > 0) || !(horizon > 0):
		// Written as negated > so a NaN fails here, not in the event loop.
		return nil, fmt.Errorf("serve: needs positive ArrivalRate and ArrivalHorizon, an ArrivalTrace, or a backlog and no arrival stream; got ArrivalRate = %v, ArrivalHorizon = %v", so.ArrivalRate, horizon)
	}
	window, err := metrics.WindowFor(opt.Window, horizon)
	if err != nil {
		return nil, err
	}
	n := so.Params.N()
	if so.InitialLoad == nil {
		so.InitialLoad = make([]int, n)
	}
	so.Rand = xrand.New(opt.Seed)
	if opt.NewRouter != nil {
		so.Router = opt.NewRouter()
	}
	col := metrics.NewCollector(n, window)
	out, err := realise(so, opt.Tracer, col)
	if err != nil {
		return nil, err
	}
	if opt.Tracer != nil {
		if err := opt.Tracer.Err(); err != nil {
			return nil, fmt.Errorf("serve: decision log: %w", err)
		}
	}
	return &Result{
		Summary:  col.Finalize(out.CompletionTime),
		Windows:  col.Windows(),
		Latency:  col.Sketches(),
		Fairness: col.FairnessCounts(),
		Sim:      out,
	}, nil
}

// realise runs the realisation with its telemetry piped to a ledger
// feeding col, and tracer when set, on a goroutine of its own, and
// returns — on every path, a panic included — only once that goroutine has
// replayed every record and exited.
func realise(so sim.Options, tracer *obs.DecisionTracer, col *metrics.Collector) (*sim.Result, error) {
	n := so.Params.N()
	p := openPipe(n, col, tracer, policy.Considered(so.Router, n))
	defer p.join()
	so.TaskObserver = p
	return sim.Run(so)
}
