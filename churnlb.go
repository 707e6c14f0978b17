// Package churnlb reproduces "Load Balancing in the Presence of Random
// Node Failure and Recovery" (Dhakal, Hayat, Pezoa, Abdallah, Birdwell,
// Chiasson — IPDPS 2006) as a reusable Go library.
//
// A distributed system of computational elements processes a divisible
// workload while nodes randomly fail and recover and load transfers incur
// size-dependent random delays. The package exposes:
//
//   - the regenerative-process analysis of the two-node system: exact
//     expected completion times (eq. 4) and full completion-time
//     distributions (eq. 5);
//   - the two load-balancing policies: preemptive LBP-1 (a single gain-K
//     transfer at t = 0, with K optimised against failure statistics) and
//     reactive LBP-2 (failure-agnostic initial balance plus compensating
//     transfers at every failure instant);
//   - an exact Monte-Carlo simulator of the same stochastic model for
//     arbitrary node counts and policies, with an event loop doing O(1)
//     work per event — policies and routers read zero-copy state views,
//     and LBP-2's eq.-(8) failure transfers come from a precomputed
//     per-run plan, so neither dispatch nor failure episodes scale with
//     cluster size;
//   - a scenario engine (internal/scenario) generating large
//     heterogeneous clusters — uniform, hotspot, correlated-failure and
//     flash-crowd — that extend the paper's two-node experiments to
//     production scale (see cmd/lbsim -scenario and the "scale"
//     experiment);
//   - an open-system serving layer (Serve/ServeMany): Poisson or
//     diurnal-wave arrivals placed by dispatcher routing policies
//     (round-robin, JSQ, power-of-d-choices, and a churn-aware
//     least-expected-work router), with fixed-memory telemetry — P²
//     latency-percentile sketches and windowed throughput, queue-depth
//     and availability series (internal/metrics);
//   - a concurrent testbed that executes the paper's three-layer system
//     architecture with goroutine CEs and (optionally) real UDP/TCP
//     loopback communication.
//
// The spirit of the paper in one sentence: when transfer delays are small
// relative to recovery times, react to failures (LBP-2); when they are
// large, preempt them (LBP-1) — and under uncertainty, balance less
// aggressively than you would in a reliable system.
package churnlb

import (
	"fmt"
	"io"
	"time"

	"churnlb/internal/cluster"
	"churnlb/internal/daemon"
	"churnlb/internal/des"
	"churnlb/internal/markov"
	"churnlb/internal/mc"
	"churnlb/internal/metrics"
	"churnlb/internal/model"
	"churnlb/internal/obs"
	"churnlb/internal/policy"
	"churnlb/internal/serve"
	"churnlb/internal/sim"
	"churnlb/internal/stats"
	"churnlb/internal/xrand"
)

// Node describes one computational element. All rates are per second.
type Node struct {
	// ProcRate is the processing rate λd in tasks/second while up.
	ProcRate float64
	// FailRate is the failure rate λf while up (0 = never fails).
	FailRate float64
	// RecRate is the recovery rate λr while down.
	RecRate float64
}

// System describes the distributed system.
type System struct {
	Nodes []Node
	// DelayPerTask is the mean transfer delay per task δ in seconds; a
	// bundle of L tasks arrives after an exponential delay of mean δ·L.
	DelayPerTask float64
}

// PaperSystem returns the two-node system measured in the paper:
// processing rates 1.08 and 1.86 tasks/s, mean failure time 20 s, mean
// recovery times 10 s and 20 s, per-task delay 0.02 s.
func PaperSystem() System {
	return fromParams(model.PaperBaseline())
}

// NoFailure returns a copy with all failure rates zeroed.
func (s System) NoFailure() System {
	c := s.clone()
	for i := range c.Nodes {
		c.Nodes[i].FailRate = 0
	}
	return c
}

// WithDelay returns a copy with the per-task delay replaced.
func (s System) WithDelay(delta float64) System {
	c := s.clone()
	c.DelayPerTask = delta
	return c
}

func (s System) clone() System {
	return System{Nodes: append([]Node(nil), s.Nodes...), DelayPerTask: s.DelayPerTask}
}

func fromParams(p model.Params) System {
	s := System{DelayPerTask: p.DelayPerTask}
	for i := 0; i < p.N(); i++ {
		s.Nodes = append(s.Nodes, Node{ProcRate: p.ProcRate[i], FailRate: p.FailRate[i], RecRate: p.RecRate[i]})
	}
	return s
}

func (s System) params() (model.Params, error) {
	p := model.Params{DelayPerTask: s.DelayPerTask}
	for _, n := range s.Nodes {
		p.ProcRate = append(p.ProcRate, n.ProcRate)
		p.FailRate = append(p.FailRate, n.FailRate)
		p.RecRate = append(p.RecRate, n.RecRate)
	}
	return p, p.Validate()
}

func (s System) markovParams() (markov.Params, error) {
	p, err := s.params()
	if err != nil {
		return markov.Params{}, err
	}
	return markov.FromModel(p)
}

// PolicyKind selects a load-balancing policy.
type PolicyKind = policy.Kind

// Available policies.
const (
	// PolicyNone performs no balancing.
	PolicyNone = policy.KindNone
	// PolicyLBP1 is the paper's preemptive policy (two nodes).
	PolicyLBP1 = policy.KindLBP1
	// PolicyLBP2 is the paper's on-failure policy.
	PolicyLBP2 = policy.KindLBP2
	// PolicyLBP1Multi is the documented N-node preemptive extension.
	PolicyLBP1Multi = policy.KindLBP1Multi
	// PolicyDynamicLBP2 re-runs LBP-2's balance at every external
	// arrival (the conclusion's dynamic extension).
	PolicyDynamicLBP2 = policy.KindDynamicLBP2
)

// PolicySpec configures a policy instance: Kind, the load-balancing gain
// K in [0, 1], and LBP-1's Sender (AutoSender picks the more loaded node).
type PolicySpec = policy.Spec

// AutoSender lets LBP-1 choose the sender by queue length.
const AutoSender = policy.AutoSender

// --- analytical API (two nodes) ---

// LBP1Optimum is the result of the preemptive-gain optimisation.
type LBP1Optimum struct {
	// Sender is the optimal sending node (0 or 1).
	Sender int
	// K is the optimal gain; Tasks the corresponding transfer size.
	K     float64
	Tasks int
	// Mean is the minimised expected overall completion time in seconds.
	Mean float64
}

// OptimizeLBP1 computes the failure-aware optimal gain and sender for a
// two-node workload — the quantity behind the paper's Table 1.
func OptimizeLBP1(s System, load0, load1 int) (LBP1Optimum, error) {
	mp, err := s.markovParams()
	if err != nil {
		return LBP1Optimum{}, err
	}
	ms, err := markov.NewMeanSolver(mp)
	if err != nil {
		return LBP1Optimum{}, err
	}
	opt := ms.OptimizeLBP1(load0, load1)
	return LBP1Optimum{Sender: opt.Sender, K: opt.K, Tasks: opt.L, Mean: opt.Mean}, nil
}

// MeanCompletionLBP1 returns the expected overall completion time under
// LBP-1 with an explicit gain and sender, both nodes initially up.
func MeanCompletionLBP1(s System, load0, load1, sender int, k float64) (float64, error) {
	mp, err := s.markovParams()
	if err != nil {
		return 0, err
	}
	ms, err := markov.NewMeanSolver(mp)
	if err != nil {
		return 0, err
	}
	if sender != 0 && sender != 1 {
		return 0, fmt.Errorf("churnlb: sender must be 0 or 1, got %d", sender)
	}
	return ms.MeanLBP1(load0, load1, sender, k), nil
}

// GainSweepLBP1 evaluates the expected completion time across an evenly
// spaced gain grid (the curve of Fig. 3).
func GainSweepLBP1(s System, load0, load1, sender, steps int) (ks, means []float64, err error) {
	mp, err := s.markovParams()
	if err != nil {
		return nil, nil, err
	}
	ms, err := markov.NewMeanSolver(mp)
	if err != nil {
		return nil, nil, err
	}
	if sender != 0 && sender != 1 {
		return nil, nil, fmt.Errorf("churnlb: sender must be 0 or 1, got %d", sender)
	}
	ks, means = ms.GainSweep(load0, load1, sender, steps)
	return ks, means, nil
}

// CompletionCDF computes the full completion-time distribution under
// LBP-1 (Fig. 5): times[i] with F[i] = P{T ≤ times[i]}.
func CompletionCDF(s System, load0, load1, sender int, k, tMax, dt float64) (times, f []float64, err error) {
	mp, err := s.markovParams()
	if err != nil {
		return nil, nil, err
	}
	cs, err := markov.NewCDFSolver(mp)
	if err != nil {
		return nil, nil, err
	}
	r, err := cs.CDFLBP1(load0, load1, sender, k, markov.BothUp, tMax, dt)
	if err != nil {
		return nil, nil, err
	}
	return r.Times(), r.F, nil
}

// LBP2InitialGain returns the gain the paper uses for LBP-2's initial
// balance: optimised under the no-failure, delay-aware model against the
// excess load of eq. (6).
func LBP2InitialGain(s System, load0, load1 int) (float64, error) {
	mp, err := s.markovParams()
	if err != nil {
		return 0, err
	}
	k, _, _, err := markov.LBP2InitialGain(mp, load0, load1)
	return k, err
}

// --- simulation API (any node count) ---

// TracePoint records the queue vector after a simulation event.
type TracePoint struct {
	Time   float64
	Event  string
	Node   int
	Queues []int
}

// tracePoints converts the engines' shared trace records to the public
// form; nil in, nil out.
func tracePoints(in []model.TracePoint) []TracePoint {
	if len(in) == 0 {
		return nil
	}
	out := make([]TracePoint, len(in))
	for i, tp := range in {
		out[i] = TracePoint{Time: tp.Time, Event: string(tp.Kind), Node: tp.Node, Queues: tp.Queues}
	}
	return out
}

// SimResult reports one simulated realisation.
type SimResult struct {
	CompletionTime                  float64
	Processed                       []int
	Failures, Recoveries            int
	TransfersSent, TasksTransferred int
	Trace                           []TracePoint
}

// TransferMode selects how transfer delays are drawn.
type TransferMode = sim.TransferMode

// Transfer-delay laws.
const (
	// TransferBundle draws one exponential delay of mean δ·L for the
	// whole bundle — the paper's analytical assumption.
	TransferBundle = sim.TransferBundle
	// TransferPerTask sums L exponential stages of mean δ, closer to the
	// physical network.
	TransferPerTask = sim.TransferPerTask
)

// ChurnLaw selects the failure/recovery time distribution.
type ChurnLaw = sim.ChurnLaw

// Churn laws.
const (
	// ChurnExponential is the paper's memoryless law.
	ChurnExponential = sim.ChurnExponential
	// ChurnWeibull uses shape-2 Weibull laws with the same means.
	ChurnWeibull = sim.ChurnWeibull
	// ChurnDeterministic uses fixed intervals equal to the means.
	ChurnDeterministic = sim.ChurnDeterministic
)

// EventQueue names a pending-event backend of the simulation kernel.
//
// Deprecated: ignored; the simulator picks the queue from the node count.
type EventQueue = des.QueueKind

// Event-queue backends.
//
// Deprecated: ignored; the simulator picks the queue from the node count.
const (
	QueueHeap     = des.QueueHeap
	QueueCalendar = des.QueueCalendar
)

// SimOptions tunes Simulate beyond the defaults.
type SimOptions struct {
	// Trace records queue evolution (Fig. 4).
	Trace bool
	// ArrivalRate, ArrivalBatch, ArrivalHorizon inject external Poisson
	// workload (dynamic extension); zero disables.
	ArrivalRate    float64
	ArrivalBatch   int
	ArrivalHorizon float64
	// TransferMode selects the transfer-delay law (default TransferBundle).
	TransferMode TransferMode
	// ChurnLaw selects the failure/recovery law (default ChurnExponential).
	ChurnLaw ChurnLaw
	// Deprecated: ignored; the simulator picks the queue from the node count.
	EventQueue EventQueue
	// LazyChurn asks the simulator to keep churn timers only for nodes
	// holding tasks, resolving idle nodes' memoryless up/down processes
	// on demand. Honoured only when nothing can observe an idle node's
	// unrealised state (exponential churn, no trace, a planned or
	// no-balance policy); otherwise the run silently falls back to eager
	// timers. Lazy runs are statistically — not bit — identical to eager
	// ones for the same seed.
	LazyChurn bool
	// Shards, when positive, runs each realisation on the simulator's
	// domain-sharded engine: up to Shards worker goroutines advance a
	// fixed failure-domain partition in conservative time windows. The
	// result is bit-identical for every positive Shards value (and any
	// GOMAXPROCS), but is a different realisation of the same stochastic
	// process than the default Shards == 0 single-stream engine. Sharded
	// runs reject Trace and policies whose failure episodes read
	// cluster-wide state outside a precomputed plan.
	Shards int
}

// options assembles the simulator options Simulate and MonteCarloOpts
// share; the caller adds the random stream.
func (opt SimOptions) options(p model.Params, pol policy.Policy, load []int) sim.Options {
	return sim.Options{
		Params:         p,
		Policy:         pol,
		InitialLoad:    load,
		TransferMode:   opt.TransferMode,
		ChurnLaw:       opt.ChurnLaw,
		ArrivalRate:    opt.ArrivalRate,
		ArrivalBatch:   opt.ArrivalBatch,
		ArrivalHorizon: opt.ArrivalHorizon,
		LazyChurn:      opt.LazyChurn,
		Shards:         opt.Shards,
	}
}

// Simulate runs one exact stochastic realisation of the churn model.
func Simulate(s System, spec PolicySpec, load []int, seed uint64, opt SimOptions) (SimResult, error) {
	p, err := s.params()
	if err != nil {
		return SimResult{}, err
	}
	pol, err := spec.Build()
	if err != nil {
		return SimResult{}, err
	}
	so := opt.options(p, pol, load)
	so.Rand = xrand.New(seed)
	so.Trace = opt.Trace
	out, err := sim.Run(so)
	if err != nil {
		return SimResult{}, err
	}
	res := SimResult{
		CompletionTime:   out.CompletionTime,
		Processed:        out.Processed,
		Failures:         out.Failures,
		Recoveries:       out.Recoveries,
		TransfersSent:    out.TransfersSent,
		TasksTransferred: out.TasksTransferred,
	}
	res.Trace = tracePoints(out.Trace)
	return res, nil
}

// Estimate summarises a Monte-Carlo study: sample count N, Mean, Std, the
// 95% confidence half-width CI95, and the sample Min and Max.
type Estimate = stats.Summary

// MonteCarlo estimates the expected completion time over reps independent
// replications, parallelised across CPUs, deterministic for a given seed.
func MonteCarlo(s System, spec PolicySpec, load []int, reps int, seed uint64) (Estimate, error) {
	return MonteCarloOpts(s, spec, load, reps, seed, SimOptions{})
}

// MonteCarloOpts is MonteCarlo with per-realisation SimOptions (transfer
// mode, churn law, external arrivals); Trace is ignored.
func MonteCarloOpts(s System, spec PolicySpec, load []int, reps int, seed uint64, opt SimOptions) (Estimate, error) {
	p, err := s.params()
	if err != nil {
		return Estimate{}, err
	}
	pol, err := spec.Build()
	if err != nil {
		return Estimate{}, err
	}
	est, err := sim.MonteCarlo(mc.Options{Reps: reps, Seed: seed}, opt.options(p, pol, load))
	return est.Summary, err
}

// --- testbed API ---

// TestbedOptions tunes the concurrent testbed.
type TestbedOptions struct {
	// TimeScale is virtual seconds per wall second (default 500).
	TimeScale float64
	// UseSockets routes communication over real loopback UDP/TCP.
	UseSockets bool
	// RealCompute executes the matrix arithmetic for every task.
	RealCompute bool
	// Trace records queue evolution.
	Trace bool
	// MaxWall aborts a wedged run: tasks outstanding for a whole MaxWall
	// with none completed or declared lost (default 2 min). A slow run
	// that keeps progressing is not cut.
	MaxWall time.Duration
}

// TestbedResult reports a concurrent testbed run.
type TestbedResult struct {
	CompletionTime                  float64
	Processed                       []int
	Failures, Recoveries            int
	TransfersSent, TasksTransferred int
	StatePackets                    int
	// Lost counts tasks declared lost because the transfer carrying them
	// failed; sum(Processed) + Lost is the initial workload.
	Lost  int
	Trace []TracePoint
}

// RunTestbed executes the Section-3 architecture: one goroutine set per
// CE (application, communication, LB/failure and backup roles), with
// state exchange and task transfer over the selected transport. It is a
// closed run of the live engine (internal/daemon): the workload is the
// initial backlog, and nothing arrives afterwards.
func RunTestbed(s System, spec PolicySpec, load []int, seed uint64, opt TestbedOptions) (TestbedResult, error) {
	p, err := s.params()
	if err != nil {
		return TestbedResult{}, err
	}
	pol, err := spec.Build()
	if err != nil {
		return TestbedResult{}, err
	}
	if len(load) != p.N() {
		// A nil load would not be a closed run at all: it starts an idle daemon.
		return TestbedResult{}, fmt.Errorf("churnlb: load has %d entries for %d nodes", len(load), p.N())
	}
	// n workers plus the (idle) dispatcher endpoint.
	var tr cluster.Transport
	if opt.UseSockets {
		if tr, err = cluster.NewNetTransport(p.N() + 1); err != nil {
			return TestbedResult{}, err
		}
	} else {
		tr = cluster.NewChanTransport(p.N() + 1)
	}
	defer tr.Close()
	timeScale := opt.TimeScale
	if timeScale <= 0 {
		timeScale = 500
	}
	out, err := daemon.Run(daemon.Options{
		Params:      p,
		Policy:      pol,
		InitialLoad: load,
		TimeScale:   timeScale,
		Seed:        seed,
		Transport:   tr,
		RealCompute: opt.RealCompute,
		MatrixDim:   32,
		QueueTrace:  opt.Trace,
		MaxWall:     opt.MaxWall,
	})
	if err != nil {
		return TestbedResult{}, err
	}
	res := TestbedResult{
		CompletionTime:   out.Summary.Elapsed,
		Processed:        out.Processed,
		Failures:         out.Failures,
		Recoveries:       out.Recoveries,
		TransfersSent:    out.TransfersSent,
		TasksTransferred: out.TasksTransferred,
		StatePackets:     out.StatePackets,
		Lost:             out.Lost,
	}
	res.Trace = tracePoints(out.QueueTrace)
	return res, nil
}

// --- open-system serving API ---

// RouterKind selects a dispatcher routing policy for Serve.
type RouterKind = policy.RouterKind

// Available routers.
const (
	// RouterUniform sends each arrival to a uniformly random node (the
	// closed-model default).
	RouterUniform = policy.RouterUniform
	// RouterRoundRobin cycles through nodes in index order.
	RouterRoundRobin = policy.RouterRoundRobin
	// RouterJSQ joins the shortest queue over all nodes (churn-blind).
	RouterJSQ = policy.RouterJSQ
	// RouterPowerOfD joins the shortest of D sampled queues (churn-blind).
	RouterPowerOfD = policy.RouterPowerOfD
	// RouterLeastExpectedWork joins the node with the least expected
	// work, discounting down nodes by their expected recovery time (the
	// churn-aware router). D = 0 scans all nodes; D > 0 samples D.
	RouterLeastExpectedWork = policy.RouterLeastExpectedWork
)

// RouterSpec configures a dispatcher routing policy: Kind, and D, the
// number of choices for RouterPowerOfD (default 2) and
// RouterLeastExpectedWork (0 = scan all nodes).
type RouterSpec = policy.RouterSpec

// ServeOptions configures one open-system serving realisation.
type ServeOptions struct {
	// Rate is the external arrival rate in tasks/second (required
	// positive); Batch is the tasks per arrival (default 1); Horizon the
	// arrival window in seconds (required positive). The run ends when
	// the backlog drains after the horizon.
	Rate    float64
	Batch   int
	Horizon float64
	// WaveAmplitude and WavePeriod, when WavePeriod > 0, modulate the
	// arrival rate sinusoidally (diurnal pattern).
	WaveAmplitude float64
	WavePeriod    float64
	// InitialLoad holds the tasks queued at t = 0; nil means empty queues.
	InitialLoad []int
	// InitialUp marks the nodes up at t = 0; nil means all up.
	InitialUp []bool
	// Window is the telemetry window width in seconds; 0 derives
	// Horizon/100 (at least 0.1 s).
	Window float64
	// TransferMode and ChurnLaw select the delay and churn laws.
	TransferMode TransferMode
	ChurnLaw     ChurnLaw
	// Deprecated: ignored; the simulator picks the queue from the node count.
	EventQueue EventQueue
	// Workers caps the goroutines ServeMany spreads its replications
	// over; 0 means GOMAXPROCS. The estimate is bit-identical for any
	// worker count. Ignored by Serve.
	Workers int
	// Shards, when positive, runs each realisation on the simulator's
	// domain-sharded parallel engine (up to Shards worker goroutines per
	// run, conservative time-window sync). The result is bit-identical
	// for every positive Shards value but is a different realisation of
	// the same process than the Shards == 0 single-stream engine.
	// Sharded serving rejects decision tracing and policies the sharded
	// engine cannot gate (see the package README).
	Shards int
	// TraceDecisions attaches the decision tracer to the run: every
	// routed arrival is priced against its DecisionK best untaken
	// candidates (0 means the default depth of 3) and ServeResult
	// carries the summary in Decisions. When DecisionLog is non-nil the
	// tracer additionally streams one JSONL record per decision to it
	// (a non-nil DecisionLog implies TraceDecisions). Tracing never
	// perturbs the realisation — the simulator consumes the same random
	// stream either way, so a traced run stays bit-identical to an
	// untraced one. Single runs only: ServeMany rejects these options.
	TraceDecisions bool
	DecisionK      int
	DecisionLog    io.Writer
	// Interrupt, when non-nil, requests graceful early termination: once
	// the channel is closed the arrival stream stops at the next event
	// and the realisation drains what is already queued, still producing
	// a complete ServeResult (Interrupted reports the cut). Single runs
	// only; ServeMany ignores it.
	Interrupt <-chan struct{}
}

// DecisionStats summarises a decision-traced serving run: record and
// unmatched counts, the counterfactual depth, the FNV-1a 64 hash of the
// JSONL record stream (the run's fixed-seed fingerprint), the mean
// regret versus the best untaken candidate, and the misroute fraction.
type DecisionStats = obs.DecisionStats

// ServeWindow is one telemetry window of a serving run: Start and Width
// bound it in simulated seconds; Completions counts tasks finished inside
// it and Throughput is Completions/Width; P99 is the window-local sojourn
// 99th percentile (NaN when nothing completed); QueueDepth, InFlight and
// Availability are time-weighted averages; Fairness is the cumulative Jain
// index over per-node completed work at the window's close (NaN until
// anything completes).
type ServeWindow = metrics.WindowStats

// ServeResult reports one open-system serving realisation.
type ServeResult struct {
	// Arrived and Completed count tasks injected and finished; Duration
	// is the completion time of the last task in seconds.
	Arrived, Completed int
	Duration           float64
	// P50, P90, P99 are sojourn-time percentiles (seconds) from
	// fixed-memory P² sketches; MeanSojourn and MeanWait the averages of
	// completion-arrival and first-service-arrival.
	P50, P90, P99         float64
	MeanSojourn, MeanWait float64
	// Throughput is Completed/Duration; Availability the time-averaged
	// fraction of nodes up; QueueDepth and InFlight time-averaged totals.
	Throughput, Availability float64
	QueueDepth, InFlight     float64
	// Failures, Recoveries, TransfersSent, TasksTransferred mirror the
	// closed-model counters.
	Failures, Recoveries            int
	TransfersSent, TasksTransferred int
	// Utilization is each node's processed work as a fraction of its
	// capacity over the run: processed/(λd·Duration).
	Utilization []float64
	// Fairness is the Jain index over per-node completed-work shares:
	// 1 when every node completed the same amount, 1/n when one node did
	// everything, NaN when nothing completed.
	Fairness float64
	// Windows holds the telemetry time series.
	Windows []ServeWindow
	// Decisions summarises the decision trace when
	// ServeOptions.TraceDecisions (or DecisionLog) was set; nil otherwise.
	Decisions *DecisionStats
	// Interrupted reports that ServeOptions.Interrupt fired and the
	// arrival stream was cut early.
	Interrupted bool
}

// Serve runs one open-system serving realisation: tasks arrive as a
// (possibly wave-modulated) Poisson stream, the router places each
// arrival, the policy moves queued work, and fixed-memory telemetry
// tracks per-task latency percentiles and windowed throughput, queue
// depth, in-flight transfers and availability. Deterministic for a given
// seed.
func Serve(s System, spec PolicySpec, router RouterSpec, seed uint64, opt ServeOptions) (ServeResult, error) {
	so, err := buildServeOptions(s, spec, router, seed, opt)
	if err != nil {
		return ServeResult{}, err
	}
	var tracer *obs.DecisionTracer
	if opt.TraceDecisions || opt.DecisionLog != nil {
		so.Instrument = func(inner sim.TaskObserver) (sim.TaskObserver, sim.DecisionSink) {
			tracer = obs.NewDecisionTracer(so.Params, obs.TraceOptions{
				K: opt.DecisionK, W: opt.DecisionLog, Observer: inner,
			})
			return tracer, tracer
		}
	}
	so.Interrupt = opt.Interrupt
	run, err := serve.Run(so)
	if err != nil {
		return ServeResult{}, err
	}
	p := so.Params
	sum, out := run.Summary, run.Sim
	res := ServeResult{
		Interrupted:      run.Interrupted,
		Arrived:          sum.Arrived,
		Completed:        sum.Completed,
		Duration:         out.CompletionTime,
		P50:              sum.P50,
		P90:              sum.P90,
		P99:              sum.P99,
		MeanSojourn:      sum.MeanSojourn,
		MeanWait:         sum.MeanWait,
		Throughput:       sum.Throughput,
		Availability:     sum.Availability,
		QueueDepth:       sum.QueueDepth,
		InFlight:         sum.InFlight,
		Fairness:         sum.Fairness,
		Failures:         out.Failures,
		Recoveries:       out.Recoveries,
		TransfersSent:    out.TransfersSent,
		TasksTransferred: out.TasksTransferred,
		Utilization:      make([]float64, p.N()),
		Windows:          run.Windows,
	}
	if out.CompletionTime > 0 {
		for i, done := range out.Processed {
			res.Utilization[i] = float64(done) / (p.ProcRate[i] * out.CompletionTime)
		}
	}
	if tracer != nil {
		if err := tracer.Err(); err != nil {
			return ServeResult{}, fmt.Errorf("churnlb: decision log: %w", err)
		}
		st := tracer.Stats()
		res.Decisions = &st
	}
	return res, nil
}

// ServeEstimate aggregates ServeMany replications: mean ± half-width of
// the 95% CI for each serving statistic. Throughput and Availability
// fold in every replication (a replication that completes nothing has
// throughput 0, not a missing sample); the latency percentiles are
// undefined for empty replications and skip them, so N — the latency
// sample count — may be below Throughput.N.
type ServeEstimate struct {
	N                    int
	P50, P99, Throughput Estimate
	Availability         Estimate
	// PooledP50, PooledP90 and PooledP99 estimate the percentiles of the
	// pooled task population of every replication, obtained by merging
	// the per-replication P² latency sketches pairwise in replication
	// order — a task-weighted view, where P50.Mean and P99.Mean weight
	// every replication equally.
	PooledP50, PooledP90, PooledP99 float64
	// PooledFairness is the Jain index over the per-node completed-work
	// tallies summed across every replication — exact, unlike the sketch
	// percentiles, because counts merge by addition.
	PooledFairness float64
}

// ServeMany runs reps independent serving realisations in parallel on the
// Monte-Carlo worker pool (ServeOptions.Workers caps the goroutines; 0
// means GOMAXPROCS) and aggregates p50, p99, throughput and availability
// across them. Every replication draws its seed from the deterministic
// MixSeed(seed, rep) scheme and results are folded in replication order,
// so the estimate is bit-identical for any worker count.
func ServeMany(s System, spec PolicySpec, router RouterSpec, reps int, seed uint64, opt ServeOptions) (ServeEstimate, error) {
	if reps <= 0 {
		return ServeEstimate{}, fmt.Errorf("churnlb: ServeMany needs positive reps")
	}
	if opt.TraceDecisions || opt.DecisionLog != nil {
		return ServeEstimate{}, fmt.Errorf("churnlb: decision tracing is single-run only (use Serve)")
	}
	so, err := buildServeOptions(s, spec, router, seed, opt)
	if err != nil {
		return ServeEstimate{}, err
	}
	// The folding itself lives in serve.RunManyPooled — the single
	// aggregation path shared with the run-manifest reproducer, so a
	// manifest replay cannot drift from this API.
	agg, err := serve.RunManyPooled(so, reps, opt.Workers)
	if err != nil {
		return ServeEstimate{}, fmt.Errorf("churnlb: %w", err)
	}
	if agg.N == 0 {
		return ServeEstimate{}, fmt.Errorf("churnlb: no serving replication completed a task")
	}
	return ServeEstimate{
		N:              agg.N,
		P50:            agg.P50,
		P99:            agg.P99,
		Throughput:     agg.Throughput,
		Availability:   agg.Availability,
		PooledP50:      agg.Latency.P50.Value(),
		PooledP90:      agg.Latency.P90.Value(),
		PooledP99:      agg.Latency.P99.Value(),
		PooledFairness: agg.Fairness.Jain(),
	}, nil
}

// buildServeOptions validates the serving inputs shared by Serve and
// ServeMany and assembles the internal serve.Options, so the two entry
// points cannot drift apart.
func buildServeOptions(s System, spec PolicySpec, router RouterSpec, seed uint64, opt ServeOptions) (serve.Options, error) {
	p, err := s.params()
	if err != nil {
		return serve.Options{}, err
	}
	if !(opt.Rate > 0) || !(opt.Horizon > 0) { // negated > so NaN is refused too
		return serve.Options{}, fmt.Errorf("churnlb: serving needs positive Rate and Horizon, got Rate = %v, Horizon = %v", opt.Rate, opt.Horizon)
	}
	pol, err := spec.Build()
	if err != nil {
		return serve.Options{}, err
	}
	newRouter, err := router.Factory()
	if err != nil {
		return serve.Options{}, err
	}
	return serve.Options{
		Params:        p,
		Policy:        pol,
		NewRouter:     newRouter,
		InitialLoad:   opt.InitialLoad,
		InitialUp:     opt.InitialUp,
		Rate:          opt.Rate,
		Batch:         opt.Batch,
		Horizon:       opt.Horizon,
		WaveAmplitude: opt.WaveAmplitude,
		WavePeriod:    opt.WavePeriod,
		Window:        opt.Window,
		TransferMode:  opt.TransferMode,
		ChurnLaw:      opt.ChurnLaw,
		Seed:          seed,
		Shards:        opt.Shards,
	}, nil
}
