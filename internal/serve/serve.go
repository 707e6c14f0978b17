// Package serve is the open-system serving core shared by the public
// churnlb.Serve API and the experiment harness: it wires a dispatcher
// router, a balancing policy and the fixed-memory telemetry collector
// into one simulator realisation driven by external arrivals.
package serve

import (
	"fmt"
	"math"

	"churnlb/internal/mc"
	"churnlb/internal/metrics"
	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/sim"
	"churnlb/internal/xrand"
)

// Options configures one serving realisation.
type Options struct {
	// Params describes the cluster; required.
	Params model.Params
	// Policy moves queued work (nil = no balancing).
	Policy policy.Policy
	// NewRouter builds the dispatcher for this run; nil routes each
	// arrival to a uniformly random node. A factory rather than an
	// instance because routers may be stateful per run.
	NewRouter func() policy.Router
	// InitialLoad and InitialUp set the t = 0 state; nil means empty
	// queues and all nodes up.
	InitialLoad []int
	InitialUp   []bool
	// Rate and Horizon (both required positive) drive the Poisson
	// arrival stream; Batch is tasks per arrival (default 1).
	Rate    float64
	Batch   int
	Horizon float64
	// ArrivalTrace, when non-empty, replaces the Poisson stream with a
	// recorded schedule (see sim.Options.ArrivalTrace): Rate and Horizon
	// are then forbidden, the telemetry horizon is the last entry's time,
	// and the run is the simulator half of the sim-vs-live calibration
	// harness — the identical trace drives a live daemon cluster.
	ArrivalTrace []sim.ArrivalAt
	// WaveAmplitude and WavePeriod modulate the arrival rate
	// sinusoidally when WavePeriod > 0 (diurnal pattern).
	WaveAmplitude, WavePeriod float64
	// Window is the telemetry window width; 0 derives Horizon/100
	// (at least 0.1 s).
	Window float64
	// TransferMode and ChurnLaw select the delay and churn laws.
	// (sim.Options.LazyChurn is deliberately not plumbed here: a serving
	// run installs the telemetry TaskObserver, which must see every
	// node-state change in time order, so the simulator's safety gate
	// would always fall back to eager churn timers anyway.)
	TransferMode sim.TransferMode
	ChurnLaw     sim.ChurnLaw
	// Seed drives all randomness.
	Seed uint64
	// Instrument, when non-nil, is invoked once per realisation with the
	// telemetry collector and returns the TaskObserver and DecisionSink
	// to install in its place — the seam internal/obs's decision tracer
	// plugs into (it wraps the collector, delegating every lifecycle hook,
	// and matches completions back to routing decisions). Attaching an
	// instrument never perturbs the realisation: the simulator consumes
	// the same random stream either way. Single runs only — RunMany
	// replications run concurrently and would interleave through one
	// instrument's state, so it resets the hook.
	Instrument func(inner sim.TaskObserver) (sim.TaskObserver, sim.DecisionSink)
	// Interrupt, when non-nil, requests early termination: once the
	// channel is closed the arrival stream stops at the next event and the
	// realisation drains what is already queued, so the run still produces
	// a complete Result (Interrupted reports the cut). The channel is
	// polled between events — closing it never corrupts a realisation.
	// Single runs only; RunMany resets it like Instrument.
	Interrupt <-chan struct{}
	// failurePlan, when non-nil, is the precomputed eq.-(8) plan shared
	// across the replications of a RunMany sweep (plans depend only on
	// Params and are immutable, so concurrent reads are safe). Single
	// Run calls leave it nil and let the simulator build its own.
	failurePlan *policy.FailurePlan
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

// Run executes one serving realisation. Deterministic for a given seed.
func Run(opt Options) (*Result, error) {
	horizon := opt.Horizon
	if len(opt.ArrivalTrace) > 0 {
		if opt.Rate > 0 {
			return nil, fmt.Errorf("serve: ArrivalTrace and Rate are mutually exclusive")
		}
		if horizon <= 0 {
			// Telemetry horizon defaults to the recorded stream's span.
			horizon = opt.ArrivalTrace[len(opt.ArrivalTrace)-1].Time
			if horizon <= 0 {
				horizon = 1
			}
		}
	} else if !(opt.Rate > 0) || !(opt.Horizon > 0) {
		// Written as negated > so a NaN fails here, not in the event loop.
		return nil, fmt.Errorf("serve: needs positive Rate and Horizon (or an ArrivalTrace), got Rate = %v, Horizon = %v", opt.Rate, opt.Horizon)
	}
	if math.IsNaN(opt.Window) {
		return nil, fmt.Errorf("serve: Window = %v must be a number (0 derives Horizon/100)", opt.Window)
	}
	load := opt.InitialLoad
	if load == nil {
		load = make([]int, opt.Params.N())
	}
	window := metrics.WindowFor(opt.Window, horizon)
	var router policy.Router
	if opt.NewRouter != nil {
		router = opt.NewRouter()
	}
	col := metrics.NewCollector(opt.Params.N(), window)
	var tobs sim.TaskObserver = col
	var sink sim.DecisionSink
	if opt.Instrument != nil {
		tobs, sink = opt.Instrument(col)
	}
	// The realisation is driven through the simulator's step primitives
	// (Start, the Done/ProcessNext loop, Finish) rather than the one-shot
	// sim.Run: the loop polls Interrupt between events, and routing every
	// serving run through it keeps the step API exercised by the entire
	// serving test suite. The two forms are bit-identical by construction
	// (sim.Run is this exact loop).
	r, err := sim.Start(sim.Options{
		Params:         opt.Params,
		Policy:         opt.Policy,
		InitialLoad:    load,
		InitialUp:      opt.InitialUp,
		Rand:           xrand.New(opt.Seed),
		TransferMode:   opt.TransferMode,
		ChurnLaw:       opt.ChurnLaw,
		ArrivalRate:    opt.Rate,
		ArrivalBatch:   opt.Batch,
		ArrivalHorizon: opt.Horizon,
		ArrivalWave:    sim.Wave{Amplitude: opt.WaveAmplitude, Period: opt.WavePeriod},
		ArrivalTrace:   opt.ArrivalTrace,
		Router:         router,
		TaskObserver:   tobs,
		DecisionSink:   sink,
		FailurePlan:    opt.failurePlan,
	})
	if err != nil {
		return nil, err
	}
	interrupted := false
	for !r.Done() {
		if opt.Interrupt != nil && !interrupted {
			select {
			case <-opt.Interrupt:
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
	if err != nil {
		return nil, err
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
// index) aborts the run.
func RunMany(opt Options, reps, workers int, visit func(rep int, r *Result)) error {
	if reps <= 0 {
		return fmt.Errorf("serve: RunMany needs positive reps")
	}
	// The eq.-(8) plan depends only on Params: build it once and share
	// the immutable result across all replications (and workers) instead
	// of rebuilding O(n log n) per rep. Invalid Params skip the build so
	// the first Run can report the validation error.
	var plan *policy.FailurePlan
	if opt.Params.Validate() == nil {
		plan = policy.PlanFor(opt.Policy, opt.Params)
	}
	return mc.ForEach(mc.Options{Reps: reps, Workers: workers}, func(rep int) error {
		o := opt
		o.Seed = xrand.MixSeed(opt.Seed, rep)
		o.failurePlan = plan
		o.Instrument = nil // single-run hook: reps would interleave through it
		o.Interrupt = nil  // likewise: a shared cut would make reps racy
		r, err := Run(o)
		if err != nil {
			return err
		}
		visit(rep, r)
		return nil
	})
}
