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

	"churnlb/internal/mc"
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
	// refuses options that set any of them.
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
	// a write error fails Run. Single runs only — RunMany replications run concurrently
	// and would interleave through one tracer's state, so it refuses one.
	Tracer *obs.DecisionTracer
	// Interrupt, when non-nil, requests early termination: once the
	// channel is closed the arrival stream stops at the next event and the
	// realisation drains what is already queued, so the run still produces
	// a complete Result (Interrupted reports the cut). The channel is
	// polled between events — closing it never corrupts a realisation.
	// Single runs only; RunMany refuses it like Tracer.
	Interrupt <-chan struct{}
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
	// transfer counters, per-node processed counts).
	Sim *sim.Result
	// Interrupted reports that Options.Interrupt fired: the arrival
	// stream was cut early and the realisation drained what remained, so
	// the telemetry covers a shorter run than requested.
	Interrupted bool
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
	out, interrupted, err := realise(so, opt, col)
	if err != nil {
		return nil, err
	}
	if opt.Tracer != nil {
		if err := opt.Tracer.Err(); err != nil {
			return nil, fmt.Errorf("serve: decision log: %w", err)
		}
	}
	return &Result{
		Summary:     col.Finalize(out.CompletionTime),
		Windows:     col.Windows(),
		Latency:     col.Sketches(),
		Fairness:    col.FairnessCounts(),
		Sim:         out,
		Interrupted: interrupted,
	}, nil
}

// realise runs the realisation with its telemetry piped to a ledger
// feeding col, and opt.Tracer when set, on a goroutine of its own, and
// returns — on every path, a panic included — only once that goroutine has
// replayed every record and exited.
func realise(so sim.Options, opt Options, col *metrics.Collector) (*sim.Result, bool, error) {
	n := so.Params.N()
	p := openPipe(n, col, opt.Tracer, policy.Considered(so.Router, n))
	defer p.join()
	so.TaskObserver = p
	return drive(so, opt.Interrupt)
}

// drive runs the realisation so describes through the simulator's step
// primitives (Start, the Done/ProcessNext loop, Finish) rather than the
// one-shot sim.Run: the loop polls interrupt between events, and routing
// every serving run through it keeps the step API exercised by the entire
// serving test suite. The two forms are bit-identical by construction
// (sim.Run is this exact loop).
func drive(so sim.Options, interrupt <-chan struct{}) (*sim.Result, bool, error) {
	r, err := sim.Start(so)
	if err != nil {
		return nil, false, err
	}
	interrupted := false
	for !r.Done() {
		if interrupt != nil && !interrupted {
			select {
			case <-interrupt:
				// Cut the arrival stream and keep stepping: the queued work
				// drains, accounting stays conserved, and the Result covers
				// everything up to the cut.
				interrupted = true
				r.CloseArrivals()
			default:
			}
		}
		if !r.ProcessNext() {
			break
		}
	}
	out, err := r.Finish()
	return out, interrupted, err
}

// RunMany executes reps independent realisations of opt in parallel on
// the mc worker pool (workers caps the goroutines; 0 = GOMAXPROCS),
// replication rep reseeded with xrand.MixSeed(opt.Seed, rep) — exactly the
// seeds a serial loop over Run would use. Each completed replication is
// handed to visit(rep, res) from the worker goroutine that ran it and
// released afterwards, so only what visit retains stays in memory no
// matter how many replications run. visit must tolerate concurrent calls
// with distinct reps — write into rep-indexed storage; folding that
// storage in index order afterwards also makes the aggregate
// bit-identical for any worker count. The first replication error (by
// index) aborts the run. Tracer and Interrupt are single-run hooks —
// concurrent replications would interleave through one tracer's state and
// race on one cut — so RunMany refuses options that set either.
func RunMany(opt Options, reps, workers int, visit func(rep int, r *Result)) error {
	if reps <= 0 {
		return fmt.Errorf("serve: RunMany needs positive reps")
	}
	if opt.Tracer != nil || opt.Interrupt != nil {
		return fmt.Errorf("serve: RunMany takes no Tracer or Interrupt (single-run hooks)")
	}
	// The eq.-(8) plan depends only on Params: build it once (unless opt
	// brings one) and share the immutable result across all replications
	// (and workers) instead of rebuilding O(n log n) per rep. Invalid
	// Params skip the build so the first Run can report the validation
	// error.
	if opt.Sim.FailurePlan == nil && opt.Sim.Params.Validate() == nil {
		opt.Sim.FailurePlan = policy.PlanFor(opt.Sim.Policy, opt.Sim.Params)
	}
	return mc.ForEach(mc.Options{Reps: reps, Workers: workers}, func(rep int) error {
		o := opt
		o.Seed = xrand.MixSeed(opt.Seed, rep)
		r, err := Run(o)
		if err != nil {
			return err
		}
		visit(rep, r)
		return nil
	})
}
