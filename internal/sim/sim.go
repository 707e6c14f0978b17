// Package sim is the exact stochastic simulator of the churn model: an
// event-driven realisation of the continuous-time process analysed in
// internal/markov, generalised to N nodes and arbitrary policies. One call
// to Run produces one realisation; internal/mc aggregates replications.
//
// The simulator reproduces the semantics of the paper's model precisely:
//
//   - node i processes tasks one at a time at rate λd_i while up;
//   - node i fails at rate λf_i while up; a failure freezes its queue (the
//     backup preserves tasks) and may trigger the policy's on-failure
//     transfers; recovery occurs at rate λr_i;
//   - a transfer of L tasks leaves the sender immediately and arrives at
//     the receiver after a random delay: Exp(1/(δ·L)) in TransferBundle
//     mode (the analytical model) or a sum of L Exp(1/δ) stages in
//     TransferPerTask mode (closer to the physical network);
//   - the run completes when every queue is empty and nothing is in
//     flight.
//
// The event loop does O(1) work per event beyond the event queue's own
// operation — a binary heap below 16 nodes, the amortised-O(1) calendar
// queue from there (queueFor; both fire in the same order, so the choice
// shows in no output): the remaining-task total is maintained incrementally
// at every completion and external arrival (transfers move tasks between
// queues and flight without changing it), per-node process closures are
// allocated once per run, and stale completion timers are cancelled eagerly
// through des.Handle instead of left to fire as no-ops. Routers and
// policies read the system through a zero-copy StateView that dies with the
// call (keep model.AsState(v).Clone() to retain what it showed), an indexed
// router (JSQ, full-scan LeastExpectedWork) gets its argmin from an
// incremental load index maintained O(log n) at every queue and up/down
// mutation, and a failure-planning policy (LBP-2) gets eq. (8)'s receiver
// lists precomputed once per run so a failure episode walks only the
// receivers with nonzero transfers — O(1) when the plan row is empty — into
// a reusable transfer buffer. Per-task dispatch and per-failure episode
// cost are therefore both independent of cluster size. This keeps 1000-node
// realisations allocation-free per event while staying bit-identical, for a
// given random stream, with the original per-event-scan implementation.
//
// Observation never selects an algorithm: there are two buses
// (TaskObserver, DecisionSink) and one per-event seam (see eventProbe), and
// a run with any of them attached is otherwise the run every unobserved
// caller gets — same view, same plan, same index, same stream. (What an
// observer does rule out is LazyChurn, which needs nobody watching idle
// nodes.)
//
// Realisations reuse their memory. Finish hands the sequential engine's
// arena — the des.Scheduler with its record slabs, free list and queue
// arrays, the hot array, the flight table, the episode buffer (which also
// carries the t = 0 balance when the policy is a policy.InitialAppender)
// and, once an observed run has built them, the per-node task deques with
// their backing arrays — to a package-level idle list, and the next Start
// takes it back, so a study of thousands of short realisations allocates
// its state once per worker instead of once per run. Only capacity is
// kept: Start zeroes or truncates every array and Finish resets the
// scheduler, record, bucket and slice layout never decide pop order, and
// every output of a run is bit-identical whichever arena it ran on, used
// or new (arena_test.go). The list is a mutex-guarded slice capped at
// GOMAXPROCS arenas and holds them strongly: a serial caller always gets
// its last arena back, a parallel study keeps one per worker, a Finish
// that finds the list full drops its arena, and an idle arena stays
// resident — at the size of the largest run that used it — until the
// process ends. A Start nobody finishes just lets its arena be collected.
// The sharded engine (shard.go) does not take part.
package sim

import (
	"fmt"
	"math"

	"churnlb/internal/des"
	"churnlb/internal/mc"
	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/xrand"
)

// TransferMode selects how transfer delays are drawn.
type TransferMode int

const (
	// TransferBundle draws one exponential delay for the whole bundle with
	// mean δ·L — the paper's analytical assumption.
	TransferBundle TransferMode = iota
	// TransferPerTask draws the delay as a sum of L exponential stages of
	// mean δ, matching the empirically linear mean with lower variance.
	TransferPerTask
)

// String returns the CLI spelling of the mode.
func (m TransferMode) String() string {
	switch m {
	case TransferBundle:
		return "bundle"
	case TransferPerTask:
		return "pertask"
	default:
		return fmt.Sprintf("TransferMode(%d)", int(m))
	}
}

// Delay draws the delay of a batch of tasks in flight under mode m, δ =
// perTask seconds per task: the one transfer-delay law of the tree, called
// by both simulator engines and the live daemon. δ = 0 is an instantaneous
// channel and draws nothing.
//
//churnlb:hotpath
func (m TransferMode) Delay(rng *xrand.Rand, perTask float64, tasks int) float64 {
	if perTask == 0 {
		return 0
	}
	switch m {
	case TransferPerTask:
		d := 0.0
		for t := 0; t < tasks; t++ {
			d += rng.ExpMean(perTask)
		}
		return d
	default:
		return rng.ExpMean(perTask * float64(tasks))
	}
}

// ParseTransferMode converts a CLI spelling into a TransferMode.
func ParseTransferMode(s string) (TransferMode, error) {
	switch s {
	case "bundle":
		return TransferBundle, nil
	case "pertask":
		return TransferPerTask, nil
	default:
		return 0, fmt.Errorf("unknown transfer mode %q (want bundle or pertask)", s)
	}
}

// ChurnLaw selects the distribution of failure and recovery times. The
// analytical model assumes exponential laws; the alternatives probe
// robustness of the conclusions (an extension beyond the paper).
type ChurnLaw int

const (
	// ChurnExponential is the paper's memoryless law.
	ChurnExponential ChurnLaw = iota
	// ChurnWeibull uses Weibull laws with shape 2 (aging nodes) and the
	// same means as the exponential fit.
	ChurnWeibull
	// ChurnDeterministic uses fixed failure/recovery intervals equal to
	// the means.
	ChurnDeterministic
)

// String returns the CLI spelling of the law.
func (c ChurnLaw) String() string {
	switch c {
	case ChurnExponential:
		return "exp"
	case ChurnWeibull:
		return "weibull"
	case ChurnDeterministic:
		return "det"
	default:
		return fmt.Sprintf("ChurnLaw(%d)", int(c))
	}
}

// Sample draws one up or down period of the given mean under law c: the
// one churn law of the tree, called by the simulator and the live daemon,
// so a live churn episode is statistically the one the simulator twin
// draws (and, under the deterministic law, numerically the one).
//
//churnlb:hotpath
func (c ChurnLaw) Sample(rng *xrand.Rand, mean float64) float64 {
	switch c {
	case ChurnWeibull:
		// Shape 2, scale chosen so the mean matches: scale = mean/Γ(1.5).
		return rng.Weibull(2, mean/math.Gamma(1.5))
	case ChurnDeterministic:
		return mean
	default:
		return rng.ExpMean(mean)
	}
}

// ParseChurnLaw converts a CLI spelling into a ChurnLaw.
func ParseChurnLaw(s string) (ChurnLaw, error) {
	switch s {
	case "exp":
		return ChurnExponential, nil
	case "weibull":
		return ChurnWeibull, nil
	case "det":
		return ChurnDeterministic, nil
	default:
		return 0, fmt.Errorf("unknown churn law %q (want exp, weibull or det)", s)
	}
}

// EventKind labels trace entries; aliased from the shared model package.
type EventKind = model.EventKind

// Trace event kinds, re-exported for convenience.
const (
	EvStart      = model.EvStart
	EvCompletion = model.EvCompletion
	EvFailure    = model.EvFailure
	EvRecovery   = model.EvRecovery
	EvSend       = model.EvSend
	EvArrival    = model.EvArrival
	EvExternal   = model.EvExternal
	EvDone       = model.EvDone
)

// TracePoint records the queue vector after an event.
type TracePoint = model.TracePoint

// Options configures a single realisation.
type Options struct {
	Params model.Params
	Policy policy.Policy
	// InitialLoad holds the number of tasks queued at each node at t = 0.
	InitialLoad []int
	// InitialUp marks which nodes start in the working state; nil means
	// all up (the paper's experiments always start with all nodes up).
	InitialUp []bool
	// Rand supplies all randomness; required.
	Rand *xrand.Rand
	// TransferMode selects the delay law for transfers.
	TransferMode TransferMode
	// ChurnLaw selects the failure/recovery law.
	ChurnLaw ChurnLaw
	// Trace, when true, records a TracePoint per event (Fig. 4) into
	// Result.Trace. It only observes: a traced run is bit-identical to the
	// untraced one and takes the same code paths (the one thing a
	// per-event observer rules out is LazyChurn, see there).
	Trace bool
	// MaxTime aborts a runaway realisation; 0 means no limit.
	MaxTime float64
	// ArrivalRate, if positive, injects external workload as a Poisson
	// process (the dynamic extension). Each arrival adds ArrivalBatch
	// tasks to a uniformly random node — or to the node chosen by Router
	// when one is installed. The run then completes when the backlog
	// drains after ArrivalHorizon (no arrivals beyond it).
	ArrivalRate    float64
	ArrivalBatch   int
	ArrivalHorizon float64
	// ArrivalWave, when Period > 0, modulates the arrival rate
	// sinusoidally: rate(t) = ArrivalRate·(1 + Amplitude·sin(2πt/Period)),
	// realised by thinning a Poisson stream at the peak rate. Extra
	// randomness is consumed only when the wave is active, so plain
	// Poisson runs stay bit-identical.
	ArrivalWave Wave
	// ArrivalTrace, when non-empty, replaces the Poisson arrival process
	// with an explicit recorded schedule: entry k injects its Batch tasks
	// (ArrivalBatch, then 1, when unset) at exactly its Time, routed like
	// any other external arrival. Times must be non-negative and
	// non-decreasing. Mutually exclusive with ArrivalRate/ArrivalWave;
	// ArrivalHorizon is ignored (the stream closes after the last entry).
	// This is the seam the sim-vs-live calibration harness uses: the same
	// trace replays through the simulator and the real daemon.
	ArrivalTrace []ArrivalAt
	// Router, when non-nil, picks the destination node of every external
	// arrival instead of the uniform default — the dispatcher of the
	// open-system serving layer. Routers may be stateful: supply a fresh
	// instance per run.
	Router policy.Router
	// TaskObserver, when non-nil, receives per-task lifecycle events and
	// state changes (see observer.go). nil costs nothing on the hot path.
	TaskObserver TaskObserver
	// DecisionSink, when non-nil, receives every external-arrival routing
	// decision (see observer.go). Like TaskObserver it is strictly opt-in
	// — nil costs nothing on the hot path — and it only observes: the
	// decision is the one Route makes on every run, over the same view, the
	// same load index and the same stream.
	DecisionSink DecisionSink
	// Deprecated: ignored; the simulator picks the queue from the node count.
	EventQueue des.QueueKind
	// LazyChurn, when true, asks the simulator to keep churn timers only
	// for nodes that hold tasks, exploiting the memoryless exponential
	// churn law: an idle node's up/down process is left unrealised and
	// resolved on demand (transition by transition, at full fidelity) when
	// the node next receives work, instead of occupying ~2 live timers per
	// node for the whole run. This changes the order in which the random
	// stream is consumed, so lazy realisations are statistically — not
	// bit — identical to eager ones. The request is honoured only when
	// nothing can observe an idle node's unrealised state: exponential
	// churn, no per-event observer (Trace), no TaskObserver, no Router, and
	// a policy whose failure episodes come from a precomputed FailurePlan
	// (or NoBalance); otherwise the simulator silently falls back to eager
	// timers.
	LazyChurn bool
	// FailurePlan, when non-nil, supplies the precomputed eq.-(8)
	// transfer plan instead of having the run build its own. Plans are a
	// pure function of Params and immutable once built (see
	// policy.PlanFor), so Monte-Carlo drivers construct one per
	// parameter set and share it — concurrently — across replications,
	// dropping the O(n log n) per-rep rebuild. The plan must have been
	// built for a cluster of exactly Params.N() nodes, by the same
	// policy configuration installed in Policy; it is honoured whenever a
	// run would plan for itself (the installed policy is a
	// FailurePlanner) and ignored otherwise.
	FailurePlan *policy.FailurePlan
	// Shards, when positive, runs the realisation on the domain-sharded
	// engine (see shard.go): nodes partition into failure domains, each
	// with its own event queue and rng stream, advanced by up to Shards
	// worker goroutines in conservative time windows. The result is
	// bit-identical for every positive Shards value and any GOMAXPROCS —
	// shard count chooses only how much hardware executes the fixed
	// domain decomposition — but it is a different (equally valid)
	// realisation of the same stochastic process than the Shards == 0
	// single-stream engine, which remains the default and the reference
	// for the golden suite. Sharded runs reject Trace and DecisionSink,
	// require an episode-inert or failure-planning policy, and silently
	// run eager churn timers (see StartSharded).
	Shards int
	// ShardWindow overrides the conservative window width Δ of a sharded
	// run in simulated seconds; 0 derives it from Params (see
	// defaultShardWindow). The window is part of the sharded semantics —
	// cross-domain deliveries quantise to window boundaries — so two runs
	// agree bit-for-bit only when their windows agree; leave it 0 outside
	// tests so the width stays a pure function of Params.
	ShardWindow float64
	// probe is how in-package tests watch the sequential engine's
	// internals after every event (see eventProbe); it runs after the Trace
	// recorder when both are set.
	probe eventProbe
}

// eventProbe is the per-event observation seam of the sequential engine,
// the only observation mechanism beside TaskObserver and DecisionSink. A
// run holds at most one (simState.probe, nil when nobody watches event by
// event): the TracePoint recorder under Options.Trace, a test's probe
// under Options.probe. It is called once the event of the given kind has
// mutated s and before the handler re-arms a timer, from EvStart to EvDone
// (node is -1 for those two); it reads s and must neither mutate it nor
// draw from its stream.
type eventProbe func(s *simState, kind EventKind, node int)

// ArrivalAt is one entry of a recorded arrival trace: Batch tasks
// (defaulted from Options.ArrivalBatch, then 1, when <= 0) arriving at
// simulated second Time.
type ArrivalAt struct {
	Time  float64
	Batch int
}

// Wave describes a sinusoidal arrival-rate modulation (diurnal pattern).
// Period <= 0 disables it; Amplitude must lie in [0, 1].
type Wave struct {
	Amplitude, Period float64
}

// Result reports one realisation.
type Result struct {
	// CompletionTime is the overall completion time of the workload.
	CompletionTime float64
	// Processed counts tasks executed per node.
	Processed []int
	// Failures, Recoveries count churn events up to completion.
	Failures, Recoveries int
	// TransfersSent counts transfer bundles; TasksTransferred the tasks
	// inside them (including initial balancing).
	TransfersSent, TasksTransferred int
	// ExternalArrivals counts injected tasks (dynamic extension).
	ExternalArrivals int
	// Trace is non-nil when Options.Trace was set.
	Trace []TracePoint
}

// Per-node dispatch kinds: the simulator's three node processes fire
// through des's indexed-event dispatcher with the node index as arg, so a
// run holds zero per-node closures (previously 3n, one per process per
// node — a quarter of the per-node footprint and a scattered heap of
// funcval allocations the garbage collector had to trace).
const (
	evKindComplete int32 = iota
	evKindFail
	evKindRecover
	evKindArrival // the Poisson arrival tick; arg unused
	// evKindDeliver lands a batch in flight: arg is its row in
	// simState.flights (see park and land).
	evKindDeliver
)

// flight is one batch in flight, a row of simState.flights: the whole
// cost of a transfer between its send and its landing, next to the one
// indexed event that carries the row's index.
type flight struct {
	// to is the receiving node. A sharded run's front door routes external
	// arrivals through the same table; those rows store ^node (negative).
	to    int32
	tasks int32
}

type simState struct {
	opt   Options
	p     model.Params
	sched *des.Scheduler
	rng   *xrand.Rand
	// hot is the struct-of-arrays hot split: every per-node field the
	// event loop touches per event, one packed struct per node (see
	// nodeHot). Cold per-node state — task-lifecycle mirrors, the queue
	// vectors of trace points — lives outside it and is materialized only
	// on the opt-in paths that need it.
	hot      []nodeHot
	inFlight int
	// remaining is queued plus in-flight tasks, maintained incrementally:
	// it only changes at completions (-1) and external arrivals (+batch);
	// transfers move tasks between a queue and flight without changing it.
	remaining int
	res       *Result
	probe     eventProbe
	// lazy marks a run with lazy churn timers (Options.LazyChurn granted):
	// hot[i].churnTimer and hot[i].lazyFrom are then live, and lazyTouch
	// resolves a detached node's unrealised churn on demand.
	lazy bool
	// live is the zero-copy StateView handed to routers and policy
	// callbacks, built once per run so neither allocates anything.
	live model.StateView
	// fplan, when non-nil, is the installed policy's precomputed eq.-(8)
	// failure plan: episodes walk only receivers with nonzero transfer
	// sizes instead of scanning the cluster, appending into the reusable
	// transferBuf so churn-heavy runs stop allocating per failure.
	fplan       *policy.FailurePlan
	transferBuf []model.Transfer
	// flights is the table of batches in flight and freeFlights its free
	// rows; flightRecs, parallel to flights, carries the per-task records
	// riding with a batch and exists only on observed runs.
	flights     []flight
	freeFlights []int32
	flightRecs  [][]taskRec
	// batching is set while applyTransfers applies a large episode: park
	// then books deliveries into the scheduler's open batch.
	batching bool
	// ab caches the policy's ArrivalBalancer capability, asserted once per
	// run instead of once per arrival.
	ab policy.ArrivalBalancer
	// lidx and scoreFn exist only when the installed Router registered an
	// indexable routing score: the index is refreshed at every queue and
	// up/down mutation, so Route reads its argmin in O(1).
	lidx    *scoreIndex
	scoreFn policy.RouteScore
	// drainTime records the instant the system last became empty; with
	// external arrivals the final scheduler event may be a post-horizon
	// arrival tick, so Now() can overshoot the true completion.
	drainTime    float64
	arrivalsOpen bool
	// traceIdx is the cursor into Options.ArrivalTrace when a recorded
	// schedule replaces the Poisson arrival process.
	traceIdx int
	// obs is set, and taskq in use, only when Options.TaskObserver is set:
	// taskq mirrors each queue with per-task lifecycle records. (Otherwise
	// taskq is whatever the arena holds, on its way to the next Start.)
	obs   TaskObserver
	taskq []taskQueue
	// sink is Options.DecisionSink and considered the constant it is told
	// with every decision: how many nodes the installed router's rule
	// consults (policy.Considered), computed once per run.
	sink       DecisionSink
	considered int
	// shard, when non-nil, marks this state as one failure domain of a
	// sharded run (see shard.go): hot, taskq and res.Processed are shared
	// arrays of which this domain owns a contiguous slice, remaining and
	// inFlight count only this domain's tasks, and cross-domain transfers
	// leave through shard.outbox instead of the domain's own flight table.
	// nil on the single-stream engine — every shard hook below is a
	// nil-check no-op there.
	shard *shardLink
}

// Run executes one realisation and returns its Result: Start, a loop
// over the step primitives, Finish. Options.Shards > 0 dispatches to the
// domain-sharded engine (RunSharded) instead.
func Run(opt Options) (*Result, error) {
	if opt.Shards > 0 {
		return RunSharded(opt)
	}
	r, err := Start(opt)
	if err != nil {
		return nil, err
	}
	for !r.Done() {
		if !r.ProcessNext() {
			break
		}
	}
	return r.Finish()
}

// MonteCarlo is the completion-time study: mo.Reps independent
// realisations of opt, replication k on stream (mo.Seed, k) — opt.Rand is
// ignored — reduced to the estimate of Result.CompletionTime. The eq.-(8)
// plan is a pure function of Params, so it is built once here (unless opt
// brings one) and shared read-only by every replication, bit-identically
// to per-run builds.
func MonteCarlo(mo mc.Options, opt Options) (mc.Estimate, error) {
	if opt.FailurePlan == nil {
		opt.FailurePlan = policy.PlanFor(opt.Policy, opt.Params)
	}
	return mc.Run(mo, func(r *xrand.Rand, _ int) (float64, error) {
		o := opt
		o.Rand = r
		res, err := Run(o)
		if err != nil {
			return 0, err
		}
		return res.CompletionTime, nil
	})
}

// Realisation is one in-progress realisation exposed through step
// primitives. A driver processes exactly one event at a time and checks
// the termination predicate itself, which is what the serving layer's
// interruptible loop needs; Run is the thin single-realisation loop over
// the same calls. A Realisation is single-goroutine and single-use: drive
// it to Done (or to a drained queue) and call Finish exactly once.
type Realisation struct {
	s *simState
}

// validateOptions checks the option set both engines share and applies
// the in-place defaults (a nil Policy becomes NoBalance), returning the
// cluster size. Engine-specific gates — Start's rejection of Shards,
// StartSharded's rejection of Trace and non-shardable policies — stay
// with their engines. A NaN fails every comparison and an infinite rate
// never advances the clock, so either must stop here or it wedges the loop.
func validateOptions(opt *Options) (int, error) {
	if err := opt.Params.Validate(); err != nil {
		return 0, err
	}
	n := opt.Params.N()
	if len(opt.InitialLoad) != n {
		return 0, fmt.Errorf("sim: InitialLoad has %d entries for %d nodes", len(opt.InitialLoad), n)
	}
	// Transfers can pile the whole backlog onto one queue (an int32, like
	// the task count of a batch in flight), so the cap binds the total.
	total := 0
	for i, q := range opt.InitialLoad {
		if q < 0 {
			return 0, fmt.Errorf("sim: negative initial load %d at node %d", q, i)
		}
		if q > math.MaxInt32 {
			return 0, fmt.Errorf("sim: initial load %d at node %d exceeds the %d per-queue cap", q, i, math.MaxInt32)
		}
		if q > math.MaxInt32-total {
			return 0, fmt.Errorf("sim: total initial load exceeds the %d per-queue cap at node %d (any queue can receive the whole backlog)", math.MaxInt32, i)
		}
		total += q
	}
	if opt.InitialUp != nil && len(opt.InitialUp) != n {
		return 0, fmt.Errorf("sim: InitialUp has %d entries for %d nodes", len(opt.InitialUp), n)
	}
	if opt.Rand == nil {
		return 0, fmt.Errorf("sim: Options.Rand is required for reproducibility")
	}
	if opt.Policy == nil {
		opt.Policy = policy.NoBalance{}
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"ArrivalRate", opt.ArrivalRate},
		{"ArrivalHorizon", opt.ArrivalHorizon},
		{"ArrivalWave.Amplitude", opt.ArrivalWave.Amplitude},
		{"ArrivalWave.Period", opt.ArrivalWave.Period},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return 0, fmt.Errorf("sim: %s = %v must be finite", f.name, f.v)
		}
	}
	if math.IsNaN(opt.MaxTime) || opt.MaxTime < 0 {
		return 0, fmt.Errorf("sim: MaxTime = %v must be non-negative (0 means no limit)", opt.MaxTime)
	}
	// A batch joins one queue in one step, so it obeys the per-queue cap.
	if opt.ArrivalBatch > math.MaxInt32 {
		return 0, fmt.Errorf("sim: ArrivalBatch = %d exceeds the %d per-queue cap", opt.ArrivalBatch, math.MaxInt32)
	}
	if opt.ArrivalRate > 0 && opt.ArrivalHorizon <= 0 {
		return 0, fmt.Errorf("sim: ArrivalRate needs a positive ArrivalHorizon")
	}
	if len(opt.ArrivalTrace) > 0 {
		if opt.ArrivalRate > 0 {
			return 0, fmt.Errorf("sim: ArrivalTrace and ArrivalRate are mutually exclusive")
		}
		if opt.ArrivalWave.Period > 0 {
			return 0, fmt.Errorf("sim: ArrivalTrace and ArrivalWave are mutually exclusive")
		}
		prev := 0.0
		for i, a := range opt.ArrivalTrace {
			if a.Time < 0 || math.IsNaN(a.Time) || math.IsInf(a.Time, 0) {
				return 0, fmt.Errorf("sim: ArrivalTrace[%d].Time = %v must be finite and non-negative", i, a.Time)
			}
			if a.Time < prev {
				return 0, fmt.Errorf("sim: ArrivalTrace[%d].Time = %v precedes entry %d at %v", i, a.Time, i-1, prev)
			}
			prev = a.Time
			if a.Batch > math.MaxInt32 {
				return 0, fmt.Errorf("sim: ArrivalTrace[%d].Batch = %d exceeds the %d per-queue cap", i, a.Batch, math.MaxInt32)
			}
		}
	}
	// The hot-path switches on these two treat anything unknown as the
	// default law, so an out-of-range value must stop here.
	if opt.TransferMode < TransferBundle || opt.TransferMode > TransferPerTask {
		return 0, fmt.Errorf("sim: unknown %v", opt.TransferMode)
	}
	if opt.ChurnLaw < ChurnExponential || opt.ChurnLaw > ChurnDeterministic {
		return 0, fmt.Errorf("sim: unknown %v", opt.ChurnLaw)
	}
	if opt.ArrivalWave.Period > 0 {
		if opt.ArrivalRate <= 0 {
			return 0, fmt.Errorf("sim: ArrivalWave needs a positive ArrivalRate")
		}
		if a := opt.ArrivalWave.Amplitude; a < 0 || a > 1 {
			return 0, fmt.Errorf("sim: ArrivalWave.Amplitude = %v must be in [0,1]", a)
		}
	}
	if opt.FailurePlan != nil && opt.FailurePlan.Nodes() != n {
		// Rejected even on runs that would not consult it: a plan built
		// for a different cluster always indicates miswired sharing.
		return 0, fmt.Errorf("sim: FailurePlan built for %d nodes, Params has %d",
			opt.FailurePlan.Nodes(), n)
	}
	return n, nil
}

// Start validates opt, builds the realisation's state — the hot array,
// the load index, the failure plan, the initial balancing transfers —
// and arms every per-node process, leaving the clock at the first
// pending event. It consumes randomness only as far as arming does, so
// Start + step loop + Finish replays exactly the stream Run consumes.
func Start(opt Options) (*Realisation, error) {
	if opt.Shards > 0 {
		// Run dispatches automatically; direct step-surface callers must
		// choose the engine explicitly because the two surfaces differ
		// (ProcessNext fires one event here, one window there).
		return nil, fmt.Errorf("sim: Shards = %d needs StartSharded (or Run/RunSharded)", opt.Shards)
	}
	n, err := validateOptions(&opt)
	if err != nil {
		return nil, err
	}

	// The state's arrays come from the arena the last finished realisation
	// left (a zero one when none is idle): same contents as freshly made
	// ones, whatever capacity that run grew them to.
	a := takeArena()
	if kind := queueFor(n); a.sched == nil || a.queue != kind {
		a.sched = des.NewWithQueue(kind)
	}
	s := &simState{
		opt:         opt,
		p:           opt.Params,
		sched:       a.sched,
		rng:         opt.Rand,
		hot:         zeroed(a.hot, n),
		res:         &Result{Processed: make([]int, n)},
		transferBuf: a.transferBuf[:0],
		flights:     a.flights[:0],
		freeFlights: a.freeFlights[:0],
		flightRecs:  a.flightRecs[:0],
		taskq:       a.taskq,
	}
	s.sched.SetDispatcher(s.dispatch)
	for i := range s.hot {
		s.hot[i].queue = int32(opt.InitialLoad[i])
		s.hot[i].up = opt.InitialUp == nil || opt.InitialUp[i]
		s.remaining += opt.InitialLoad[i]
	}
	s.live = &liveView{s}
	if ab, ok := opt.Policy.(policy.ArrivalBalancer); ok {
		s.ab = ab
	}
	// A failure-planning policy gets eq. (8)'s transfer sizes precomputed
	// once per run (they depend only on Params): failure episodes then
	// cost O(active receivers) instead of the O(n) per-receiver scan, which
	// stays the path of policies without the capability.
	// Monte-Carlo drivers running many realisations of one Params supply
	// the plan prebuilt (Options.FailurePlan, immutable and shared);
	// otherwise it is built here.
	if fp, ok := opt.Policy.(policy.FailurePlanner); ok {
		if opt.FailurePlan != nil {
			s.fplan = opt.FailurePlan
		} else {
			s.fplan = fp.FailurePlan(opt.Params)
		}
	}
	if opt.DecisionSink != nil {
		s.sink = opt.DecisionSink
		s.considered = policy.Considered(opt.Router, n)
	}
	// An indexed router turns every Route into an O(1) argmin lookup
	// (routers without the capability keep their reference scan).
	if opt.Router != nil {
		if ir, ok := opt.Router.(policy.IndexedRouter); ok {
			if fn := ir.RouteScore(opt.Params); fn != nil {
				s.scoreFn = fn
				s.lidx = newScoreIndex(s.hot)
				for i := 0; i < n; i++ {
					s.lidx.set(i, fn(i, s.queueOf(i), s.hot[i].up))
				}
			}
		}
	}
	s.probe = opt.probe
	if opt.Trace {
		s.probe = recordTracePoint
		if inner := opt.probe; inner != nil { // capture the func, not opt: opt must not escape
			s.probe = func(s *simState, kind EventKind, node int) {
				recordTracePoint(s, kind, node)
				inner(s, kind, node)
			}
		}
	}
	// Lazy churn timers are granted only when nothing can observe an idle
	// node's unrealised up/down state: the churn law must be memoryless
	// (discarding an unfired timer and redrawing on demand is then exactly
	// the residual law), no per-event probe or observer may record state
	// changes, no router, arrival balancer or decision sink may read Up(i)
	// of an arbitrary node between events, and failure episodes must come
	// from the precomputed plan (or a NoBalance policy), which never reads
	// peer state.
	if opt.LazyChurn && opt.ChurnLaw == ChurnExponential && s.probe == nil &&
		opt.TaskObserver == nil && opt.Router == nil && s.ab == nil &&
		opt.DecisionSink == nil {
		_, noBal := opt.Policy.(policy.NoBalance)
		if s.fplan != nil || noBal {
			s.lazy = true
		}
	}
	if opt.TaskObserver != nil {
		s.obs = opt.TaskObserver
		s.taskq = emptied(s.taskq, n)
		for i := range s.hot {
			q := s.queueOf(i)
			for t := 0; t < q; t++ {
				s.taskq[i].push(taskRec{arrival: 0, firstService: -1})
			}
			if q > 0 {
				s.obs.TasksArrived(i, q, 0)
			}
			if !s.hot[i].up {
				s.obs.NodeStateChanged(i, false, 0)
			}
		}
	}
	s.observe(EvStart, -1)

	// Initial balancing, into the episode buffer when the policy can.
	if ia, ok := opt.Policy.(policy.InitialAppender); ok {
		s.transferBuf = ia.AppendInitial(s.transferBuf[:0], s.live, s.p)
		s.applyTransfers(s.transferBuf)
	} else {
		s.applyTransfers(opt.Policy.Initial(s.live, s.p))
	}

	// Arm per-node processes. A lazy run leaves idle nodes detached: their
	// churn process stays unrealised (lazyFrom = 0) until work arrives.
	for i := 0; i < n; i++ {
		if s.lazy && s.hot[i].queue == 0 {
			continue
		}
		if s.hot[i].up {
			s.scheduleCompletion(i)
			s.scheduleFailure(i)
		} else {
			s.scheduleRecovery(i)
		}
	}
	if opt.ArrivalRate > 0 || len(opt.ArrivalTrace) > 0 {
		s.arrivalsOpen = true
		s.scheduleArrival()
	}
	return &Realisation{s: s}, nil
}

// dispatch routes every indexed event — the three per-node processes,
// the arrival tick and the landing of a batch in flight — to its handler:
// the one dispatch point replacing 3n per-node closures and one closure
// per transfer.
//
//churnlb:hotpath
func (s *simState) dispatch(kind, arg int32) {
	switch kind {
	case evKindComplete:
		s.complete(int(arg))
	case evKindFail:
		s.fail(int(arg))
	case evKindRecover:
		s.recover(int(arg))
	case evKindDeliver:
		s.land(arg)
	default:
		s.externalArrival()
	}
}

// ProcessNext fires exactly one event, advancing the clock to its time.
// It returns false when the queue has drained.
func (r *Realisation) ProcessNext() bool { return r.s.sched.ProcessNext() }

// CloseArrivals shuts the external arrival stream early: no further
// arrivals are injected (an already-scheduled arrival tick becomes a
// no-op) and Done flips as soon as the queued work drains. This is the
// graceful-interrupt primitive — a driver that must stop (SIGINT, a
// deadline) closes arrivals and keeps stepping, so the realisation still
// finishes with conserved accounting instead of being abandoned mid-run.
func (r *Realisation) CloseArrivals() { r.s.arrivalsOpen = false }

// Done reports the termination predicate Run loops on: the workload has
// drained with no arrivals still open, or MaxTime was reached. Drivers
// must check it before every ProcessNext — with external arrivals the
// scheduler never drains on its own (the arrival process keeps ticking
// past the horizon).
func (r *Realisation) Done() bool {
	s := r.s
	if s.remaining == 0 && !s.pendingArrivals() {
		return true
	}
	return s.opt.MaxTime > 0 && s.sched.Now() >= s.opt.MaxTime
}

// Finish closes the realisation and returns its Result. Call it exactly
// once, after the step loop stopped on Done or on a drained queue: it
// hands the realisation's memory to the next Start (see arena), so the
// Realisation is unusable afterwards — any further call panics.
func (r *Realisation) Finish() (*Result, error) {
	s := r.s
	r.s = nil
	defer s.release()
	if s.opt.MaxTime > 0 && s.remaining > 0 {
		return nil, fmt.Errorf("sim: aborted at MaxTime=%v with %d tasks remaining", s.opt.MaxTime, s.remaining)
	}
	if s.lazy {
		// Realise every detached node's churn up to the last event, so the
		// Failures/Recoveries counters cover the same window an eager run
		// observes (armed nodes' pending timers lie beyond it, exactly like
		// eager timers that never fire).
		end := s.sched.Now()
		for i := range s.hot {
			if !s.hot[i].churnTimer.Active() {
				s.lazyResolve(i, end)
			}
		}
	}
	s.res.CompletionTime = s.drainTime
	s.observe(EvDone, -1)
	return s.res, nil
}

// liveView is the zero-copy model.StateView over the running realisation:
// its accessors read the simulator's hot array directly, so handing it to
// a router costs nothing regardless of cluster size. It is valid only for
// the duration of a callback — the array mutates at every event.
type liveView struct{ s *simState }

// Time implements model.StateView.
func (v *liveView) Time() float64 { return v.s.sched.Now() }

// N implements model.StateView.
func (v *liveView) N() int { return len(v.s.hot) }

// Queue implements model.StateView.
//
//churnlb:hotpath
func (v *liveView) Queue(i int) int { return v.s.queueOf(i) }

// Up implements model.StateView.
//
//churnlb:hotpath
func (v *liveView) Up(i int) bool { return v.s.hot[i].up }

// InFlight implements model.StateView.
func (v *liveView) InFlight() int { return v.s.inFlight }

// MinScoreNode implements model.ScoreIndexed: the argmin of the
// incrementally maintained routing-score index, when one is active.
func (v *liveView) MinScoreNode() (int, bool) {
	if v.s.lidx == nil {
		return -1, false
	}
	return v.s.lidx.min(), true
}

// reindex refreshes node i's entry in the incremental load index after a
// queue or up/down mutation; a nil-check no-op when no index is active.
//
//churnlb:hotpath
func (s *simState) reindex(i int) {
	if s.lidx != nil {
		s.lidx.set(i, s.scoreFn(i, s.queueOf(i), s.hot[i].up))
	}
	// On a sharded run with a router front door, the same mutation hook
	// marks the node dirty so the window barrier patches the router's
	// stale mirror incrementally instead of rescanning the cluster.
	if sh := s.shard; sh != nil && sh.dirtyAt != nil {
		if sh.dirtyAt[i] != sh.epoch {
			sh.dirtyAt[i] = sh.epoch
			sh.dirty = append(sh.dirty, int32(i))
		}
	}
}

func (s *simState) pendingArrivals() bool {
	if len(s.opt.ArrivalTrace) > 0 {
		// Trace mode closes the stream itself when the cursor runs off the
		// end; the horizon is not consulted.
		return s.arrivalsOpen
	}
	return s.arrivalsOpen && s.sched.Now() < s.opt.ArrivalHorizon
}

// observe calls the run's eventProbe, if any.
//
//churnlb:hotpath
func (s *simState) observe(kind EventKind, node int) {
	if s.probe != nil {
		s.probe(s, kind, node)
	}
}

// recordTracePoint is the eventProbe Options.Trace installs.
func recordTracePoint(s *simState, kind EventKind, node int) {
	q := make([]int, len(s.hot))
	for i := range s.hot {
		q[i] = int(s.hot[i].queue)
	}
	s.res.Trace = append(s.res.Trace, TracePoint{Time: s.sched.Now(), Kind: kind, Node: node, Queues: q})
}

// --- task processing ---

// scheduleCompletion (re)arms node i's completion timer, cancelling any
// outstanding one: a restarted service draws a fresh exponential stage
// exactly as the epoch-based implementation did.
//
//churnlb:hotpath
func (s *simState) scheduleCompletion(i int) {
	s.armCompletion(i, s.restartService(i))
}

// restartService is scheduleCompletion up to the calendar insert: it
// cancels node i's outstanding completion timer and, if the node is up
// with work queued, draws the fresh service stage and stamps the front
// task. It returns the stage for armCompletion, negative when there is
// nothing to arm.
//
//churnlb:hotpath
func (s *simState) restartService(i int) float64 {
	h := &s.hot[i]
	h.complTimer.Cancel()
	h.complTimer = des.Handle{}
	if !h.up || h.queue == 0 {
		return -1
	}
	d := s.rng.Exp(s.p.ProcRate[i])
	if s.obs != nil {
		// The front task is (re)entering service; stamp its first
		// service start if it has none yet.
		if f := s.taskq[i].front(); f.firstService < 0 {
			f.firstService = s.sched.Now()
		}
	}
	return d
}

// armCompletion inserts node i's completion timer stage seconds from
// now; a no-op for a negative stage (nothing to arm) or node (no sender
// held yet, see applyTransfers).
//
//churnlb:hotpath
func (s *simState) armCompletion(i int, stage float64) {
	if i >= 0 && stage >= 0 {
		s.hot[i].complTimer = s.sched.AfterIndexed(stage, evKindComplete, int32(i))
	}
}

//churnlb:hotpath
func (s *simState) complete(i int) {
	h := &s.hot[i]
	h.complTimer = des.Handle{} // this timer just fired
	if !h.up || h.queue == 0 {
		return // unreachable with eager cancellation; kept defensively
	}
	h.queue--
	s.reindex(i)
	if h.queue == 0 {
		s.lazyDisarm(i) // idle: the up node's failure timer detaches
	}
	s.res.Processed[i]++
	s.remaining--
	if s.remaining == 0 {
		s.drainTime = s.sched.Now()
	}
	if s.obs != nil {
		rec := s.taskq[i].pop()
		s.obs.TaskCompleted(i, rec.arrival, rec.firstService, s.sched.Now())
	}
	s.observe(EvCompletion, i)
	s.scheduleCompletion(i)
}

// --- churn ---

// lazyResolve realises node i's detached churn process over
// (lazyFrom[i], until]: memoryless up/down switching sampled transition
// by transition from the shared stream, so the counters and the final
// state are exactly what an eager run of the same process would have
// produced — only batched at the moment someone needs them. The draw
// that overshoots until is discarded; by memorylessness, redrawing when
// the node is next armed is the residual law.
//
//churnlb:hotpath
func (s *simState) lazyResolve(i int, until float64) {
	h := &s.hot[i]
	t := h.lazyFrom
	for {
		var rate float64
		if h.up {
			rate = s.p.FailRate[i]
		} else {
			rate = s.p.RecRate[i]
		}
		if rate == 0 {
			break
		}
		d := s.opt.ChurnLaw.Sample(s.rng, 1/rate)
		if t+d > until {
			break
		}
		t += d
		if h.up {
			h.up = false
			s.res.Failures++
		} else {
			h.up = true
			s.res.Recoveries++
		}
	}
	h.lazyFrom = until
}

// lazyTouch brings a detached node's state up to the clock before the
// caller reads or mutates it; armed nodes (live churn timer) are already
// current. A no-op on eager runs.
//
//churnlb:hotpath
func (s *simState) lazyTouch(i int) {
	if !s.lazy || s.hot[i].churnTimer.Active() {
		return
	}
	s.lazyResolve(i, s.sched.Now())
}

// lazyArm re-attaches a node that just received work: its next churn
// transition gets a live timer again. Callers must have touched the node
// first and must only arm nodes holding tasks.
//
//churnlb:hotpath
func (s *simState) lazyArm(i int) {
	if !s.lazy || s.hot[i].churnTimer.Active() {
		return
	}
	if s.hot[i].up {
		s.scheduleFailure(i)
	} else {
		s.scheduleRecovery(i)
	}
}

// lazyDisarm detaches a node whose queue just drained: its pending churn
// timer is cancelled and the process goes unrealised from now until the
// next touch. A no-op on eager runs.
//
//churnlb:hotpath
func (s *simState) lazyDisarm(i int) {
	if !s.lazy {
		return
	}
	h := &s.hot[i]
	h.churnTimer.Cancel()
	h.churnTimer = des.Handle{}
	h.lazyFrom = s.sched.Now()
}

//churnlb:hotpath
func (s *simState) scheduleFailure(i int) {
	if s.p.FailRate[i] == 0 {
		return
	}
	d := s.opt.ChurnLaw.Sample(s.rng, 1/s.p.FailRate[i])
	h := s.sched.AfterIndexed(d, evKindFail, int32(i))
	if s.lazy {
		s.hot[i].churnTimer = h
	}
}

//churnlb:hotpath
func (s *simState) fail(i int) {
	h := &s.hot[i]
	if !h.up {
		return // already down via some other path
	}
	h.up = false
	s.reindex(i)
	// Cancel the outstanding completion: its in-service task is frozen.
	h.complTimer.Cancel()
	h.complTimer = des.Handle{}
	s.res.Failures++
	if s.obs != nil {
		s.obs.NodeStateChanged(i, false, s.sched.Now())
	}
	s.observe(EvFailure, i)
	if s.fplan != nil {
		// O(active receivers): walk the precomputed eq.-(8) row, capping
		// against the frozen queue, into the reusable episode buffer.
		s.transferBuf = s.fplan.Transfers(s.transferBuf[:0], i, int(h.queue))
		s.applyTransfers(s.transferBuf)
	} else if s.shard == nil {
		s.applyTransfers(s.opt.Policy.OnFailure(i, s.live, s.p))
	}
	// A sharded domain without a plan skips the episode call entirely:
	// StartSharded gates plan-less runs to episode-inert policies (their
	// OnFailure statically returns nil), and the live view must not be
	// read mid-window — it spans nodes other domains are mutating.
	if s.lazy && h.queue == 0 {
		// The failure shipped (or found) an empty queue: nothing to
		// recover for, so the node detaches instead of arming a recovery
		// timer. lazyTouch realises the recovery when work next arrives.
		h.lazyFrom = s.sched.Now()
		return
	}
	s.scheduleRecovery(i)
}

//churnlb:hotpath
func (s *simState) scheduleRecovery(i int) {
	if s.p.RecRate[i] == 0 {
		return // permanently down; Validate guarantees no tasks strand here
	}
	d := s.opt.ChurnLaw.Sample(s.rng, 1/s.p.RecRate[i])
	h := s.sched.AfterIndexed(d, evKindRecover, int32(i))
	if s.lazy {
		s.hot[i].churnTimer = h
	}
}

//churnlb:hotpath
func (s *simState) recover(i int) {
	if s.hot[i].up {
		return
	}
	s.hot[i].up = true
	s.reindex(i)
	s.res.Recoveries++
	if s.obs != nil {
		s.obs.NodeStateChanged(i, true, s.sched.Now())
	}
	s.observe(EvRecovery, i)
	s.scheduleCompletion(i)
	s.scheduleFailure(i)
}

// --- transfers ---

// episodeRunMin is the episode size from which applyTransfers books the
// deliveries as one batch — a sorted run of the scheduler, fired front to
// back — instead of one queue event each, and sizes the flight table
// ahead of the sends. It sits above the measured break-even: on a warm
// 1001-node realisation (calendar queue), an episode booked, fired and
// landed cost as much per transfer either way at 64 transfers, and
// 145–228 ns (run) against 233–358 (queue) at 128 (2-vCPU Xeon 2.10 GHz
// guest, go1.24.0; README "Runs"). At 64 the run's fixed cost — six
// count tables cleared and summed — already eats what it saves on queue
// inserts.
const episodeRunMin = 128

// applyTransfers executes one balancing episode. Each transfer does to
// the sender's random stream and task records exactly what re-arming its
// completion process would — cancel the live timer and, if the node is up
// with work left, draw a fresh service stage and stamp the front task —
// but the calendar insert is held while consecutive transfers share a
// sender: only the last draw of such a run can ever fire, so the timer is
// armed once, at now + that draw, when the sender changes or the slice
// ends. Policies emit an episode sender by sender, which turns k
// cancel/insert pairs into one per sender; a slice that returns to an
// earlier sender is still correct — its armed timer is cancelled again.
//
// An episode of at least episodeRunMin transfers books its deliveries
// into the scheduler's batch (see park) and commits it at the end. A
// delivery takes its sequence number when it is booked, between the
// completion timers armed around it, and the scheduler fires its run and
// its queue in one (time, seq) order, so the episode fires exactly as if
// every delivery were a queue event.
//
//churnlb:hotpath
func (s *simState) applyTransfers(ts []model.Transfer) {
	if len(ts) >= episodeRunMin {
		s.reserveEpisode(len(ts))
		s.batching = true
	}
	held, stage := -1, -1.0 // the sender being held and its last draw, < 0 for none
	for _, tr := range ts {
		if tr.From != held {
			s.armCompletion(held, stage)
			held, stage = tr.From, -1
		}
		if d, sent := s.send(tr); sent {
			stage = d
		}
	}
	s.armCompletion(held, stage)
	if s.batching {
		s.batching = false
		s.sched.CommitBatch()
	}
}

// reserveEpisode sizes the flight table for an episode of k transfers in
// one step. Deliberately not a hot path: large episodes are the t = 0
// balance and the odd big failure.
func (s *simState) reserveEpisode(k int) {
	if spare := len(s.freeFlights) + cap(s.flights) - len(s.flights); spare >= k {
		return
	}
	rows := len(s.flights) + k
	s.flights = append(make([]flight, 0, rows), s.flights...)
	s.freeFlights = append(make([]int32, 0, rows), s.freeFlights...)
	if s.obs != nil {
		s.flightRecs = append(make([][]taskRec, 0, rows), s.flightRecs...)
	}
}

// send ships one transfer. sent reports whether anything left the
// sender; stage is then the service stage drawn for what it keeps — the
// completion timer applyTransfers still has to arm — or negative when the
// sender is down or was emptied.
//
//churnlb:hotpath
func (s *simState) send(tr model.Transfer) (stage float64, sent bool) {
	if tr.Tasks <= 0 {
		return 0, false
	}
	if tr.From < 0 || tr.From >= len(s.hot) || tr.To < 0 || tr.To >= len(s.hot) || tr.From == tr.To {
		panic(fmt.Sprintf("sim: invalid transfer %+v", tr))
	}
	from := &s.hot[tr.From]
	if tr.Tasks > int(from.queue) {
		tr.Tasks = int(from.queue) // policies may race with processing
	}
	if tr.Tasks == 0 {
		return 0, false
	}
	from.queue -= int32(tr.Tasks)
	s.reindex(tr.From)
	if from.queue == 0 {
		s.lazyDisarm(tr.From) // whole queue shipped away: sender detaches
	}
	var recs []taskRec
	if s.obs != nil {
		recs = s.taskq[tr.From].takeTail(tr.Tasks)
		s.obs.TransferDeparted(tr.From, tr.To, tr.Tasks, s.sched.Now())
	}
	// The task being processed may have been shipped: restart the sender's
	// completion process against whatever remains, leaving the insert to
	// applyTransfers.
	stage = s.restartService(tr.From)
	s.inFlight += tr.Tasks
	s.res.TransfersSent++
	s.res.TasksTransferred += tr.Tasks
	s.observe(EvSend, tr.From)

	delay := s.opt.TransferMode.Delay(s.rng, s.p.DelayPerTask, tr.Tasks)
	if sh := s.shard; sh != nil && sh.owner[tr.To] != sh.self {
		// Cross-domain: the batch leaves this domain's accounting now and
		// joins the receiver's at the next window barrier, where the
		// coordinator parks the delivery (quantised to the boundary if the
		// drawn delay would land inside the current window). The delay
		// was drawn above in the same stream position an intra-domain
		// transfer consumes, so the domain's stream is destination-blind.
		s.inFlight -= tr.Tasks
		s.remaining -= tr.Tasks
		sh.outbox = append(sh.outbox, shardMsg{
			at:    s.sched.Now() + delay,
			to:    int32(tr.To),
			tasks: int32(tr.Tasks),
			recs:  recs,
		})
		return stage, true
	}
	s.park(s.sched.Now()+delay, flight{to: int32(tr.To), tasks: int32(tr.Tasks)}, recs)
	return stage, true
}

// park books a batch in flight: a row of the flight table and the one
// indexed event that lands it at time at — in the scheduler's open batch
// while a large episode is being applied, on its queue otherwise.
//
//churnlb:hotpath
func (s *simState) park(at float64, f flight, recs []taskRec) {
	var row int32
	if n := len(s.freeFlights); n > 0 {
		row = s.freeFlights[n-1]
		s.freeFlights = s.freeFlights[:n-1]
		s.flights[row] = f
	} else {
		row = int32(len(s.flights))
		s.flights = append(s.flights, f)
		if s.obs != nil {
			s.flightRecs = append(s.flightRecs, nil)
		}
	}
	if s.obs != nil {
		s.flightRecs[row] = recs
	}
	if s.batching {
		s.sched.BatchIndexed(at, evKindDeliver, row)
	} else {
		s.sched.AtIndexed(at, evKindDeliver, row)
	}
}

// land is the receiving half of every batch in flight, on both engines:
// a transfer's tasks join their destination queue, or — a sharded run's
// front door only — a routed external batch enters the system.
//
//churnlb:hotpath
func (s *simState) land(row int32) {
	f := s.flights[row]
	s.freeFlights = append(s.freeFlights, row)
	to, tasks := int(f.to), int(f.tasks)
	external := to < 0
	if external {
		to = ^to
	}
	s.inFlight -= tasks
	s.lazyTouch(to) // a detached receiver's state resolves before use
	dst := &s.hot[to]
	dst.queue += int32(tasks)
	s.reindex(to)
	if s.obs != nil {
		now := s.sched.Now()
		if external {
			for t := 0; t < tasks; t++ {
				s.taskq[to].push(taskRec{arrival: now, firstService: -1})
			}
			s.obs.TasksArrived(to, tasks, now)
		} else {
			s.taskq[to].recs = append(s.taskq[to].recs, s.flightRecs[row]...)
			s.flightRecs[row] = nil
			s.obs.TransferArrived(to, tasks, now)
		}
	}
	s.observe(EvArrival, to)
	// A previously empty queue needs its completion process re-armed; a
	// busy one keeps its outstanding timer (the service law is memoryless,
	// and for non-exponential laws the approximation only affects one
	// in-service task).
	if dst.up && int(dst.queue) == tasks {
		s.scheduleCompletion(to)
	}
	s.lazyArm(to)
}

// --- external arrivals (dynamic extension) ---

//churnlb:hotpath
func (s *simState) scheduleArrival() {
	if tr := s.opt.ArrivalTrace; len(tr) > 0 {
		if s.traceIdx >= len(tr) {
			s.arrivalsOpen = false
			return
		}
		s.sched.AtIndexed(tr[s.traceIdx].Time, evKindArrival, 0)
		return
	}
	rate := s.opt.ArrivalRate
	if s.opt.ArrivalWave.Period > 0 {
		// Generate at the peak rate; externalArrival thins to rate(t).
		rate *= 1 + s.opt.ArrivalWave.Amplitude
	}
	d := s.rng.Exp(rate)
	s.sched.AfterIndexed(d, evKindArrival, 0)
}

//churnlb:hotpath
func (s *simState) externalArrival() {
	if !s.arrivalsOpen {
		// CloseArrivals fired with this tick already scheduled.
		return
	}
	batch := s.opt.ArrivalBatch
	if batch <= 0 {
		batch = 1
	}
	if tr := s.opt.ArrivalTrace; len(tr) > 0 {
		// Recorded schedule: the entry's batch (when set) overrides the
		// default, the horizon and wave thinning do not apply, and the
		// cursor advances so scheduleArrival arms the next entry (or closes
		// the stream).
		if b := tr[s.traceIdx].Batch; b > 0 {
			batch = b
		}
		s.traceIdx++
	} else {
		if s.sched.Now() >= s.opt.ArrivalHorizon {
			s.arrivalsOpen = false
			return
		}
		if w := s.opt.ArrivalWave; w.Period > 0 {
			// Thinning: accept with probability rate(t)/peak.
			accept := (1 + w.Amplitude*math.Sin(2*math.Pi*s.sched.Now()/w.Period)) / (1 + w.Amplitude)
			if s.rng.Float64() >= accept {
				s.scheduleArrival()
				return
			}
		}
	}
	// The router and the decision sink read the zero-copy live view before
	// the batch lands, the arrival balancer after.
	var node int
	if s.opt.Router != nil {
		node = s.opt.Router.Route(s.live, s.p, s.rng)
		if node < 0 || node >= s.p.N() {
			panic(fmt.Sprintf("sim: router %s returned invalid node %d", s.opt.Router.Name(), node))
		}
	} else {
		node = s.rng.Intn(s.p.N())
	}
	if s.sink != nil {
		// Pre-mutation: the sink prices counterfactual candidates against
		// exactly the state the router decided on.
		s.sink.Decision(s.live, node, batch, s.considered)
	}
	s.lazyTouch(node) // resolve a detached target before reading its state
	s.hot[node].queue += int32(batch)
	s.reindex(node)
	s.remaining += batch
	s.res.ExternalArrivals += batch
	if s.obs != nil {
		now := s.sched.Now()
		for t := 0; t < batch; t++ {
			s.taskq[node].push(taskRec{arrival: now, firstService: -1})
		}
		s.obs.TasksArrived(node, batch, now)
	}
	s.observe(EvExternal, node)
	if s.hot[node].up && int(s.hot[node].queue) == batch {
		s.scheduleCompletion(node)
	}
	s.lazyArm(node)
	if s.ab != nil {
		// zero-copy: sampling balancers pay O(1) per arrival
		s.applyTransfers(s.ab.OnArrival(node, s.live, s.p))
	}
	s.scheduleArrival()
}
