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
// queues and flight without changing it), every timer is an indexed des
// event (no closure per node or per event), and stale completion timers
// are cancelled eagerly
// through des.Handle instead of left to fire as no-ops. Routers and
// policies read the system through a zero-copy StateView that dies with the
// call (keep model.AsState(v).Clone() to retain what it showed), an indexed
// router (JSQ, full-scan LeastExpectedWork) gets its argmin from an
// incremental load index maintained O(log n) at every queue and up/down
// mutation, and a policy is its t = 0 episode plus its failure plan
// (policy.Policy): LBP-2's plan holds eq. (8)'s receiver lists, built once
// per study or prepared System and shared by its runs (a lone Run builds
// its own), so a failure episode walks only the receivers with nonzero
// transfers — O(1) when the plan row is empty — shipping each as it goes,
// and a planless policy moves nothing on a failure. Per-task
// dispatch and per-failure episode cost are therefore both independent of
// cluster size. This keeps 1000-node realisations allocation-free per
// event while staying bit-identical, for a given random stream, with the
// original per-event-scan implementation.
//
// Observation never selects an algorithm: there is one bus (TaskObserver)
// and one per-event seam (see eventProbe), and a run with either attached
// is otherwise the run every unobserved caller gets — same view, same plan,
// same index, same stream. Routing decisions need no bus of their own:
// every TasksArrived after Armed is one, and a Ledger mirroring the stream
// holds the view the router decided on (Ledger.View). (What an observer
// does rule out is LazyChurn, which needs nobody watching idle nodes.)
//
// Realisations reuse their memory. The end of a run hands its arena — the
// des.Scheduler with its record slabs (a dead record links its free
// list), queue arrays and batch, the hot array and the flight table; no
// episode is held, its transfers stream into the scheduler — to a
// package-level idle list, and the next run takes it back, so a study of
// thousands of short realisations allocates its state once per worker
// instead of once per run. Only capacity is kept: a run
// zeroes or truncates every array it takes and resets the scheduler it
// hands back; record, bucket and slice layout never decide pop order, and
// every output of a run is bit-identical whichever arena it ran on, used
// or new (arena_test.go). The list is a mutex-guarded slice capped at
// GOMAXPROCS arenas and holds them strongly: a serial caller always gets
// its last arena back, a parallel study keeps one per worker, a run that
// ends with the list full drops its arena, and an idle arena stays
// resident — at the size of the largest run that used it — until the
// process ends. A run that panics just lets its arena be collected. A
// Ledger's task deques are reused the same way, from a list of their own.
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
// by the simulator and the live daemon. δ = 0 is an instantaneous
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

// EventKind labels the trace entries a traced realisation records.
type EventKind string

// Trace event kinds.
const (
	EvStart      EventKind = "start"
	EvCompletion EventKind = "completion"
	EvFailure    EventKind = "failure"
	EvRecovery   EventKind = "recovery"
	EvSend       EventKind = "send"
	EvArrival    EventKind = "arrival"
	EvExternal   EventKind = "external"
	EvDone       EventKind = "done"
)

// TracePoint records the queue vector after an event — the raw material of
// the paper's Fig. 4 sample paths.
type TracePoint struct {
	Time   float64
	Kind   EventKind
	Node   int // primary node of the event (-1 when not applicable)
	Queues []int
}

// Options configures a single realisation.
type Options struct {
	Params model.Params
	Policy policy.Policy
	// InitialLoad holds the number of tasks queued at each node at t = 0.
	InitialLoad []int
	// InitialUp marks which nodes start in the working state; nil means
	// all up (the paper's experiments always start with all nodes up). A
	// node that starts down needs a positive RecRate.
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
	// TaskObserver, when non-nil, receives every queue and up/down change
	// and, through its arrivals, every routing decision (see observer.go;
	// a Ledger turns them into per-task records). nil costs nothing on the
	// hot path.
	TaskObserver TaskObserver
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
	// churn, no per-event observer (Trace), no TaskObserver, no Router, no
	// ArrivalBalancer, and a policy with a failure plan (LBP-2) or
	// NoBalance; otherwise the simulator silently falls back to eager
	// timers.
	LazyChurn bool
	// FailurePlan, when non-nil, supplies the plan Policy.FailurePlan
	// would build instead of having the run build its own. Plans are a
	// pure function of Params and immutable once built (see
	// policy.PlanFor), so whoever runs many realisations of one
	// parameter set builds one and shares it — concurrently — across
	// them, dropping the O(n log n) per-run rebuild: MonteCarlo and
	// serve.RunManyPooled per study, the churnlb facade per prepared
	// System, across calls. The plan must have been built for a cluster
	// of exactly Params.N() nodes, by the policy configuration installed
	// in Policy: the run serves every failure from it.
	FailurePlan *policy.FailurePlan
	// Interrupt, when non-nil, requests early termination: once the
	// channel is closed the arrival stream stops at the next event and the
	// realisation drains what is already queued, so the run still produces
	// a complete Result (Result.Interrupted reports the cut). Run polls it
	// between events, so closing it never corrupts a realisation.
	Interrupt <-chan struct{}
	// probe is how in-package tests watch the simulator's internals after
	// every event (see eventProbe); it runs after the Trace recorder when
	// both are set.
	probe eventProbe
}

// eventProbe is the per-event observation seam of the simulator, the only
// observation mechanism beside TaskObserver. A run holds at most one
// (simState.probe, nil when nobody watches event by event): the TracePoint
// recorder under Options.Trace, a test's probe under Options.probe. It is
// called once the event of the given kind has mutated s and before the
// handler re-arms a timer, from EvStart to EvDone (node is -1 for those
// two); it reads s and must neither mutate it nor draw from its stream.
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
	// Interrupted reports that Options.Interrupt fired: the arrival stream
	// was cut early and the realisation drained what remained, so it
	// covers a shorter run than requested. churnlb.Simulate takes no
	// interrupt, so the SimResult it returns never has this set.
	Interrupted bool
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

// MaxNodes caps the cluster size of a realisation, so a request for more
// memory than any host has fails before anything is allocated. It sits
// four times above the largest documented run (10⁶ nodes).
const MaxNodes = 1 << 22

// flight is one batch in flight, a row of simState.flights: the whole
// cost of a transfer between its send and its landing, next to the one
// indexed event that carries the row's index.
type flight struct {
	to    int32 // the receiving node; in a free row, the next free row
	tasks int32
}

type simState struct {
	opt   Options
	p     model.Params
	sched *des.Scheduler
	rng   *xrand.Rand
	// hot is the struct-of-arrays hot split: every per-node field the
	// event loop touches per event, one packed struct per node (see
	// nodeHot). Cold per-node state — the queue vectors of trace points —
	// lives outside it and is materialized only on the opt-in path that
	// needs it.
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
	// sizes instead of scanning the cluster, shipping each as they reach
	// it, so churn-heavy runs allocate nothing per failure.
	fplan *policy.FailurePlan
	// flights is the table of batches in flight; a row's index is the
	// flight id the TaskObserver is told. Its free rows form a stack
	// threaded through their to fields: freeFlight is the top, -1 for
	// none, and freeRows counts them.
	flights    []flight
	freeFlight int32
	freeRows   int
	// batching is set while a large episode ships: park then books
	// deliveries into the scheduler's open batch.
	batching bool
	// held is the sender whose completion insert the open episode holds
	// and heldU its last draw, < 0 for none (see ship).
	held  int
	heldU float64
	// opening is set while the t = 0 episode streams: the policy's view
	// then reads the initial queues (see openingView).
	opening bool
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
	// obs is Options.TaskObserver.
	obs TaskObserver
}

// Run executes one realisation and returns its Result: start, the event
// loop, finish. It is the simulator's only loop. Between two events it
// polls Options.Interrupt; once that channel is closed the arrival stream
// is shut (an already-scheduled arrival tick becomes a no-op) and the loop
// runs on until the queued work drains, so an interrupted realisation
// still ends with conserved accounting, and Result.Interrupted says so.
func Run(opt Options) (*Result, error) {
	s, err := start(opt)
	if err != nil {
		return nil, err
	}
	// With external arrivals the scheduler never drains on its own (the
	// arrival process keeps ticking past the horizon), so the loop stops
	// on the workload: nothing queued or in flight, no arrival to come.
	interrupt := opt.Interrupt
	for s.remaining > 0 || s.pendingArrivals() {
		if interrupt != nil {
			select {
			case <-interrupt:
				s.res.Interrupted, s.arrivalsOpen, interrupt = true, false, nil
			default:
			}
		}
		if !s.sched.ProcessNext() {
			break
		}
	}
	return s.finish(), nil
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

// validateOptions checks a run's options and applies the in-place
// defaults (a nil Policy becomes NoBalance), returning the cluster size.
// A NaN fails every comparison and an infinite rate never advances the
// clock, so either must stop here or it wedges the loop.
func validateOptions(opt *Options) (int, error) {
	if n := opt.Params.N(); n > MaxNodes {
		return 0, fmt.Errorf("sim: %d nodes is above the %d-node cap", n, MaxNodes)
	}
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
	// A node down with no recovery rate never comes back, yet its own
	// backlog, a balancing episode or a router can leave tasks on it,
	// stranded when the run ends.
	for i, up := range opt.InitialUp {
		if !up && opt.Params.RecRate[i] == 0 {
			return 0, fmt.Errorf("sim: node %d starts down and never recovers (RecRate 0)", i)
		}
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
	// Any queue can also receive every arrival, so the stream's expected
	// task count joins the backlog under the same cap: rate × horizon ×
	// batch, or the trace's total.
	batch := float64(max(opt.ArrivalBatch, 1))
	expected := 0.0
	if opt.ArrivalRate > 0 {
		expected = opt.ArrivalRate * opt.ArrivalHorizon * batch
	}
	for _, a := range opt.ArrivalTrace {
		if a.Batch > 0 {
			expected += float64(a.Batch)
		} else {
			expected += batch
		}
	}
	if float64(total)+expected > math.MaxInt32 {
		return 0, fmt.Errorf("sim: %.4g expected arrivals and a backlog of %d exceed the %d per-queue cap (any queue can receive every task)",
			expected, total, math.MaxInt32)
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

// start validates opt, builds the realisation's state — the hot array,
// the load index, the failure plan, the initial balancing transfers —
// and arms every per-node process, leaving the clock at the first
// pending event.
func start(opt Options) (*simState, error) {
	n, err := validateOptions(&opt)
	if err != nil {
		return nil, err
	}

	// The state's arrays come from the arena the last finished realisation
	// left (a zero one when none is idle): same contents as freshly made
	// ones, whatever capacity that run grew them to.
	a := idle.take()
	if kind := queueFor(n); a.sched == nil || a.queue != kind {
		a.sched = des.NewWithQueue(kind)
	}
	s := &simState{
		opt:        opt,
		p:          opt.Params,
		sched:      a.sched,
		rng:        opt.Rand,
		hot:        zeroed(a.hot, n),
		res:        &Result{Processed: make([]int, n)},
		flights:    a.flights[:0],
		freeFlight: -1,
	}
	s.sched.SetDispatcher(s.dispatch)
	for i := range s.hot {
		s.hot[i].queue = int32(opt.InitialLoad[i])
		s.hot[i].up = opt.InitialUp == nil || opt.InitialUp[i]
		s.remaining += opt.InitialLoad[i]
	}
	live := &liveView{s}
	s.live = live
	if ab, ok := opt.Policy.(policy.ArrivalBalancer); ok {
		s.ab = ab
	}
	// A policy's failure episodes come from its plan, built once per run
	// (eq. (8)'s sizes depend only on Params) unless the caller brings one
	// prebuilt (Options.FailurePlan, immutable and shared across a study's
	// replications); nil means nothing moves on a failure.
	s.fplan = opt.FailurePlan
	if s.fplan == nil {
		s.fplan = opt.Policy.FailurePlan(opt.Params)
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
	// changes, and no router or arrival balancer may read Up(i) of an
	// arbitrary node between events. Failure episodes read no peer state
	// under any policy (they come from the plan), but the grant stays with
	// planned and no-balance runs: widening it would change which
	// realisation an existing lazy request gets.
	if opt.LazyChurn && opt.ChurnLaw == ChurnExponential && s.probe == nil &&
		opt.TaskObserver == nil && opt.Router == nil && s.ab == nil &&
		(s.fplan != nil || opt.Policy == (policy.NoBalance{})) {
		s.lazy = true
	}
	if opt.TaskObserver != nil {
		s.obs = opt.TaskObserver
		for i := range s.hot {
			if q := s.queueOf(i); q > 0 {
				s.obs.TasksArrived(i, q, 0)
			}
			if !s.hot[i].up {
				s.obs.NodeStateChanged(i, false, 0)
			}
		}
	}
	s.observe(EvStart, -1)

	// Initial balancing, streamed: a counting pass sizes the episode, then
	// each transfer ships as the policy emits it, against the initial
	// state it was computed from.
	s.opening = true
	k, v := 0, openingView{live}
	opt.Policy.EachInitial(v, s.p, func(model.Transfer) { k++ })
	s.beginEpisode(k)
	opt.Policy.EachInitial(v, s.p, s.ship)
	s.endEpisode()
	s.opening = false

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
	if s.obs != nil {
		s.obs.Armed(s.sched.Now())
	}
	if opt.ArrivalRate > 0 || len(opt.ArrivalTrace) > 0 {
		s.arrivalsOpen = true
		s.scheduleArrival()
	}
	return s, nil
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

// finish closes the realisation and returns its Result. It hands the
// realisation's memory to the next start (see arena), so s is unusable
// afterwards.
func (s *simState) finish() *Result {
	defer s.release()
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
	return s.res
}

// openingView is the view the t = 0 episode's policy reads: the live view,
// except that while the episode streams (s.opening) its queues are
// Options.InitialLoad and nothing is in flight. That is the state before
// the episode, which its own sends would otherwise move under the policy
// between two emitted transfers (eq. (7)'s fractions read every queue).
// hot[i].queue equals InitialLoad until the first send, so holding it
// costs no copy; once the episode is over the view reads the live arrays,
// and a retained one goes stale like any other.
type openingView struct{ *liveView }

// Queue implements model.StateView.
func (v openingView) Queue(i int) int {
	if v.s.opening {
		return v.s.opt.InitialLoad[i]
	}
	return v.s.queueOf(i)
}

// InFlight implements model.StateView.
func (v openingView) InFlight() int {
	if v.s.opening {
		return 0
	}
	return v.s.inFlight
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
// with work queued, draws the uniform of a fresh service stage for its
// front task (whose first service a Ledger stamps). It returns the draw
// for armCompletion, negative when there is nothing to arm; only
// armCompletion takes its logarithm, since an episode overwrites all but a
// sender's last draw (see ship).
//
//churnlb:hotpath
func (s *simState) restartService(i int) float64 {
	h := &s.hot[i]
	h.complTimer.Cancel()
	h.complTimer = des.Handle{}
	if !h.up || h.queue == 0 {
		return -1
	}
	return s.rng.PositiveFloat64()
}

// armCompletion inserts node i's completion timer at now plus the service
// stage restartService's draw u makes (xrand.ExpOf at the node's rate); a
// no-op for a negative draw (nothing to arm) or node (no sender held yet,
// see ship).
//
//churnlb:hotpath
func (s *simState) armCompletion(i int, u float64) {
	if i >= 0 && u >= 0 {
		s.hot[i].complTimer = s.sched.AfterIndexed(xrand.ExpOf(u, s.p.ProcRate[i]), evKindComplete, int32(i))
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
		s.obs.TaskCompleted(i, s.sched.Now())
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
		s.shipPlan(i, int(h.queue))
	}
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
		return // unreachable: a node that can be down has RecRate > 0 (Params.Validate, validateOptions)
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

// episodeRunMin is the episode size from which an episode books the
// deliveries as one batch — a sorted run of the scheduler, fired front to
// back — instead of one queue event each, and sizes the flight table
// ahead of the sends. It sits above the measured break-even: on a warm
// 1001-node realisation (calendar queue), an episode booked, fired and
// landed cost as much per transfer either way at 64 transfers, and
// 145–228 ns (run) against 233–358 (queue) at 128 (2-vCPU Xeon 2.10 GHz
// guest, go1.24.0; CHANGES.md, beside "episodeRunMin 256 → 128", has
// the crossover table). At 64 the run's fixed cost — six
// count tables cleared and summed — already eats what it saves on queue
// inserts.
const episodeRunMin = 128

// An episode is one balancing step's transfers, shipped in order between
// beginEpisode and endEpisode: the t = 0 balance as its policy emits it, a
// failure's plan row (shipPlan) and an arrival balancer's slice
// (applyTransfers).
//
// Each transfer does to the sender's random stream exactly what re-arming
// its completion process would — cancel the live timer and, if the node
// is up with work left, draw the uniform of a fresh service stage — but
// the calendar insert, and the logarithm that makes the draw a stage, are
// held while consecutive transfers share a sender: only the last draw of
// such a run can ever fire, so the timer is armed once, at now + that
// draw's stage, when the sender changes or the episode ends. Policies emit
// an episode sender by sender, which turns k cancel/insert pairs into one
// per sender; an episode that returns to an earlier sender is still
// correct — its armed timer is cancelled again.
//
// An episode of at least episodeRunMin transfers books its deliveries
// into the scheduler's batch (see park) and commits it at the end. A
// delivery takes its sequence number when it is booked, between the
// completion timers armed around it, and the scheduler fires its run and
// its queue in one (time, seq) order, so the episode fires exactly as if
// every delivery were a queue event.

// beginEpisode opens an episode of k transfers.
//
//churnlb:hotpath
func (s *simState) beginEpisode(k int) {
	if k >= episodeRunMin {
		s.reserveEpisode(k)
		s.batching = true
	}
	s.held, s.heldU = -1, -1
}

// ship sends one transfer of the open episode, holding its sender's
// completion insert.
//
//churnlb:hotpath
func (s *simState) ship(tr model.Transfer) {
	if tr.From != s.held {
		s.armCompletion(s.held, s.heldU)
		s.held, s.heldU = tr.From, -1
	}
	if d, sent := s.send(tr); sent {
		s.heldU = d
	}
}

// endEpisode arms the last held sender and commits the batch, if any.
//
//churnlb:hotpath
func (s *simState) endEpisode() {
	s.armCompletion(s.held, s.heldU)
	if s.batching {
		s.batching = false
		s.sched.CommitBatch()
	}
}

// applyTransfers ships the episode ts.
//
//churnlb:hotpath
func (s *simState) applyTransfers(ts []model.Transfer) {
	s.beginEpisode(len(ts))
	for _, tr := range ts {
		s.ship(tr)
	}
	s.endEpisode()
}

// shipPlan ships node failed's failure episode straight from its plan
// row: each transfer capped against the queue the node held when it
// failed, stopping once that is spent — FailurePlan.Transfers' episode,
// in its order, without collecting it. A row long enough to reach
// episodeRunMin is counted first; O(active receivers) either way.
//
//churnlb:hotpath
func (s *simState) shipPlan(failed, queued int) {
	row := s.fplan.Row(failed)
	k := 0
	if len(row) >= episodeRunMin {
		for rem := queued; k < len(row) && rem > 0; k++ {
			rem -= row[k].Tasks
		}
	}
	s.beginEpisode(k)
	for _, tr := range row {
		if queued <= 0 {
			break
		}
		if tr.Tasks > queued {
			tr.Tasks = queued
		}
		queued -= tr.Tasks
		s.ship(tr)
	}
	s.endEpisode()
}

// reserveEpisode sizes the flight table and the scheduler's open batch
// for an episode of k transfers, each in one step and to exactly what the
// episode can use. Deliberately not a hot path: large episodes are the
// t = 0 balance and the odd big failure.
func (s *simState) reserveEpisode(k int) {
	s.sched.ReserveBatch(k)
	if s.freeRows+cap(s.flights)-len(s.flights) >= k {
		return
	}
	s.flights = append(make([]flight, 0, len(s.flights)+k), s.flights...)
}

// send ships one transfer. sent reports whether anything left the
// sender; u is then restartService's draw for what it keeps — the
// completion timer ship still has to arm — or negative when the
// sender is down or was emptied.
//
//churnlb:hotpath
func (s *simState) send(tr model.Transfer) (u float64, sent bool) {
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
	row := s.newFlight(flight{to: int32(tr.To), tasks: int32(tr.Tasks)})
	if s.obs != nil {
		s.obs.TransferDeparted(tr.From, tr.To, tr.Tasks, int(row), s.sched.Now())
	}
	// The task being processed may have been shipped: restart the sender's
	// completion process against whatever remains, leaving the insert to
	// ship.
	u = s.restartService(tr.From)
	s.inFlight += tr.Tasks
	s.res.TransfersSent++
	s.res.TasksTransferred += tr.Tasks
	s.observe(EvSend, tr.From)

	delay := s.opt.TransferMode.Delay(s.rng, s.p.DelayPerTask, tr.Tasks)
	s.park(s.sched.Now()+delay, row)
	return u, true
}

// newFlight takes a row of the flight table for batch f — the row freed
// last, or a new one when none is free — and returns it.
//
//churnlb:hotpath
func (s *simState) newFlight(f flight) int32 {
	if row := s.freeFlight; row >= 0 {
		s.freeFlight = s.flights[row].to
		s.freeRows--
		s.flights[row] = f
		return row
	}
	s.flights = append(s.flights, f)
	return int32(len(s.flights) - 1)
}

// park books the one indexed event that lands the batch in flight-table
// row at time at — in the scheduler's open batch while a large episode is
// being applied, on its queue otherwise.
//
//churnlb:hotpath
func (s *simState) park(at float64, row int32) {
	if s.batching {
		s.sched.BatchIndexed(at, evKindDeliver, row)
	} else {
		s.sched.AtIndexed(at, evKindDeliver, row)
	}
}

// land is the receiving half of every transfer: the batch's tasks join
// their destination queue.
//
//churnlb:hotpath
func (s *simState) land(row int32) {
	f := s.flights[row]
	s.flights[row].to, s.freeFlight = s.freeFlight, row
	s.freeRows++
	to, tasks := int(f.to), int(f.tasks)
	s.inFlight -= tasks
	s.lazyTouch(to) // a detached receiver's state resolves before use
	dst := &s.hot[to]
	dst.queue += int32(tasks)
	s.reindex(to)
	if s.obs != nil {
		s.obs.TransferArrived(to, tasks, int(row), s.sched.Now())
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
		// Run's interrupt closed arrivals with this tick already scheduled.
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
	// The router reads the zero-copy live view before the batch lands, the
	// arrival balancer after. The node count is len(s.hot): s.p.N() copies
	// the whole Params value per call.
	var node int
	if s.opt.Router != nil {
		node = s.opt.Router.Route(s.live, s.p, s.rng)
		if node < 0 || node >= len(s.hot) {
			panic(fmt.Sprintf("sim: router %s returned invalid node %d", s.opt.Router.Name(), node))
		}
	} else {
		node = s.rng.Intn(len(s.hot))
	}
	s.lazyTouch(node) // resolve a detached target before reading its state
	s.hot[node].queue += int32(batch)
	s.reindex(node)
	s.remaining += batch
	s.res.ExternalArrivals += batch
	if s.obs != nil {
		s.obs.TasksArrived(node, batch, s.sched.Now())
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
