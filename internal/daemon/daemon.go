// Package daemon is the live serving system built on the paper's wire
// transport: real worker goroutine-processes executing workload.Matrix
// tasks, gossiping their state in 23-byte UDP packets and shipping task
// payloads over length-prefixed TCP frames (cluster.NetTransport), a
// dispatcher routing arrivals through the policy.Router family against a
// live model.StateView folded from incoming state packets, and a churn
// controller killing and recovering workers on the same laws as the
// simulator — graceful drain on recovery, eq.-(8)-style transfer of the
// queued backlog on failure.
//
// It is the one live engine, run under two boundary conditions. Closed —
// the paper's Section-3 testbed: Options.InitialLoad queues a backlog at
// t = 0, Policy.Initial balances it, there is no arrival trace, and the
// run ends when the backlog has drained; Result.Summary.Elapsed is the
// overall completion time. Open — the serving layer: a recorded arrival
// trace (or HTTP clients, see httpapi.go) injects work continuously. One
// run may do both. The same metrics.Collector the simulator uses measures
// either — which is what makes the sim-vs-live calibration harness in
// internal/calib possible: one trace, two systems, comparable telemetry.
package daemon

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"churnlb/internal/cluster"
	"churnlb/internal/metrics"
	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/sim"
	"churnlb/internal/workload"
	"churnlb/internal/xrand"
)

// Options configures one daemon run.
type Options struct {
	// Params describes the worker fleet: per-worker processing, failure
	// and recovery rates in virtual seconds, plus the transfer delay δ.
	Params model.Params
	// Router dispatches arrivals (nil = uniformly random worker).
	Router policy.Router
	// Policy is the balancing policy whose eq.-(8) failure plan the churn
	// controller executes when a worker dies (nil = no balancing).
	Policy policy.Policy
	// InitialLoad, when non-nil, queues that many tasks at each worker at
	// t = 0 (one entry per worker), counted as injected, and has every
	// worker execute its share of Policy.Initial against that known
	// distribution. A run with a backlog and no Trace is closed: it ends
	// when the backlog has drained.
	InitialLoad []int
	// ChurnLaw selects the up/down duration law — exponential (default),
	// Weibull shape 2, or deterministic means. Periods are drawn by
	// ChurnLaw.Sample, the function the simulator draws them with.
	ChurnLaw sim.ChurnLaw
	// Trace is the recorded arrival schedule, in virtual seconds; entry
	// batches default to Batch, then 1. The daemon replays it in wall
	// time through TimeScale and shuts down once the trace is exhausted
	// and the backlog drains. With neither a trace nor an InitialLoad the
	// daemon idles, serving HTTP arrivals until Interrupt fires.
	Trace []sim.ArrivalAt
	// Batch is the default tasks-per-arrival for trace entries without
	// their own.
	Batch int
	// TimeScale maps virtual seconds to wall clock: v virtual seconds
	// take v/TimeScale wall seconds. Default 200.
	TimeScale float64
	// StateInterval is the virtual-seconds period of each worker's UDP
	// state broadcast. Default 1.
	StateInterval float64
	// MatrixDim and MeanPrecision configure the matrix workload.
	// Defaults: 16 and 50.
	MatrixDim     int
	MeanPrecision float64
	// RealCompute executes the actual row-times-matrix arithmetic and
	// derives service time from each task's precision instead of
	// sampling it.
	RealCompute bool
	// QueueTrace records the queue-evolution sample path (Fig. 4) into
	// Result.QueueTrace.
	QueueTrace bool
	// Window is the telemetry window width in virtual seconds; 0 derives
	// span/100 (at least 0.1).
	Window float64
	// Seed drives every random stream.
	Seed uint64
	// Transport carries the wire traffic; nil binds a NetTransport over
	// real loopback sockets (the default — this is the live system). The
	// transport must have N()+1 endpoints: workers 0..n-1 plus the
	// dispatcher at n. A transport the run created is closed on exit;
	// a supplied one is not.
	Transport cluster.Transport
	// HTTPAddr, when non-empty, serves the front door (POST /task,
	// GET /state, /metrics, /healthz) on that address.
	HTTPAddr string
	// OnHTTPAddr, when non-nil, receives the bound front-door address
	// once listening (useful with HTTPAddr port 0).
	OnHTTPAddr func(addr string)
	// Interrupt, when non-nil, requests graceful shutdown once closed:
	// the arrival stream stops, queued work drains, telemetry flushes.
	Interrupt <-chan struct{}
	// MaxWall aborts a wedged run: tasks outstanding at two consecutive
	// MaxWall expiries with none completed or declared lost in between.
	// Default 2 minutes.
	MaxWall time.Duration
}

// Result reports a completed daemon run.
type Result struct {
	// Summary and Windows are the live telemetry, in virtual seconds —
	// directly comparable with a serve.Result driven by the same trace.
	Summary metrics.Summary
	Windows []metrics.WindowStats
	// QueueTrace is the queue-evolution sample path when
	// Options.QueueTrace was set: every worker's queued-task count (the
	// task in service excluded) at the start, at each completion, churn
	// event and transfer departure or landing, and at the end. Dispatcher
	// arrivals show in the next sample.
	QueueTrace []model.TracePoint
	// Processed counts tasks executed per worker.
	Processed []int
	// Failures and Recoveries count churn events; TransfersSent and
	// TasksTransferred the eq.-(8) balancing activity; StatePackets the
	// state datagrams folded into the dispatcher's live view.
	Failures, Recoveries            int
	TransfersSent, TasksTransferred int
	StatePackets                    int
	// DecodeErrors counts task connections dropped on corrupt frames
	// (NetTransport only).
	DecodeErrors uint64
	// Injected counts tasks admitted through the dispatcher (trace plus
	// HTTP); Interrupted reports an early Interrupt cut the stream.
	Injected    int
	Interrupted bool
	// Lost counts admitted tasks declared lost because the send carrying
	// them failed (a dispatcher bundle or an eq.-(8) transfer): no retry —
	// a write that errored may or may not have delivered — so they leave
	// the books instead, and every run ends with
	// sum(Processed) + Lost == Injected. A failed dispatcher send also
	// ends the trace replay early.
	Lost int
}

// dispatcherID returns the transport index of the dispatcher for an
// n-worker fleet.
func dispatcherID(n int) int { return n }

// peer is the dispatcher's view of one worker, folded from its state
// packets.
type peer struct {
	queueLen uint32
	up       bool
	seq      uint32
}

// peerView is the model.StateView routers read: the peer table itself,
// not a copy of it. Valid while peersMu is held, which is the duration of
// one Route call — the lifetime the viewretain contract gives any view.
type peerView struct {
	peers []peer
	time  float64
}

func (v *peerView) Time() float64   { return v.time }
func (v *peerView) N() int          { return len(v.peers) }
func (v *peerView) Queue(i int) int { return int(v.peers[i].queueLen) }
func (v *peerView) Up(i int) bool   { return v.peers[i].up }
func (v *peerView) InFlight() int   { return 0 }

// worker is one live serving process.
type worker struct {
	id      int
	mu      sync.Mutex
	queue   taskQueue
	up      bool
	kick    chan struct{}
	failInt chan struct{}
	seq     uint32
	rngApp  *xrand.Rand
	rngLB   *xrand.Rand
	// processed counts tasks this worker executed.
	processed atomic.Int64
}

type run struct {
	opt       Options
	p         model.Params
	n         int
	workers   []*worker
	transport cluster.Transport
	ownsTrans bool
	matrix    *workload.Matrix
	fplan     *policy.FailurePlan
	start     time.Time

	// admitMu serialises admission — the trace driver and every HTTP
	// handler — and guards what only admission touches: the router and its
	// rng (routers may be stateful), the task generator, and pending, the
	// per-worker bundles admitted but not yet on the wire. It is held
	// across a flush, so a worker's bundles go out in admission order.
	admitMu sync.Mutex
	router  policy.Router
	rngRoot *xrand.Rand
	gen     *workload.Generator
	pending [][]workload.Task

	// peers is the dispatcher's live state view, folded from state packets
	// by dispatcherStateLoop and read (and optimistically bumped) by
	// admission under peersMu; view is the StateView over it.
	peersMu sync.Mutex
	peers   []peer
	view    peerView

	// col is the telemetry collector; it is single-goroutine by design,
	// so colMu serialises every observer hook. inSystem (also under colMu)
	// holds the lifecycle record of every admitted task that has neither
	// completed nor been declared lost.
	colMu    sync.Mutex
	col      *metrics.Collector
	inSystem *taskWindow
	qtrace   []model.TracePoint // Options.QueueTrace samples, under colMu

	injected       int64
	processedTotal int64
	failures       int64
	recoveries     int64
	transfersSent  int64
	tasksMoved     int64
	statePackets   int64
	lost           atomic.Int64 // tasks declared lost after a failed send
	arrivalsClosed atomic.Bool
	interrupted    atomic.Bool

	// spin enables the precision spin-wait tail; see spinAffordable.
	spin bool

	stop     chan struct{}
	doneCh   chan struct{}
	doneOnce sync.Once
	doneAtV  float64
	httpAddr atomic.Value // string: bound front-door address

	wg sync.WaitGroup
}

// Run executes one daemon lifetime: spin up the fleet, replay the trace
// (and serve HTTP if configured), drain, and report. Blocks until the
// workload completes, Interrupt drains the system, or the run makes no
// progress for MaxWall (an error).
func Run(opt Options) (*Result, error) {
	if err := opt.Params.Validate(); err != nil {
		return nil, err
	}
	n := opt.Params.N()
	if opt.InitialLoad != nil && len(opt.InitialLoad) != n {
		return nil, fmt.Errorf("daemon: InitialLoad has %d entries for %d workers", len(opt.InitialLoad), n)
	}
	if opt.TimeScale <= 0 {
		opt.TimeScale = 200
	}
	if opt.StateInterval <= 0 {
		opt.StateInterval = 1
	}
	if opt.MatrixDim <= 0 {
		opt.MatrixDim = 16
	}
	if opt.MeanPrecision <= 0 {
		opt.MeanPrecision = 50
	}
	if opt.MaxWall <= 0 {
		opt.MaxWall = 2 * time.Minute
	}
	if opt.Batch <= 0 {
		opt.Batch = 1
	}
	if opt.Policy == nil {
		opt.Policy = policy.NoBalance{}
	}
	span := 1.0
	if len(opt.Trace) > 0 {
		if t := opt.Trace[len(opt.Trace)-1].Time; t > span {
			span = t
		}
	}
	window := metrics.WindowFor(opt.Window, span)

	c := &run{
		opt:      opt,
		p:        opt.Params,
		n:        n,
		matrix:   workload.NewMatrix(opt.MatrixDim, opt.Seed^0x9e37),
		peers:    make([]peer, n),
		router:   opt.Router,
		rngRoot:  xrand.NewStream(opt.Seed, xrand.StreamDispatcher),
		col:      metrics.NewCollector(n, window),
		inSystem: newTaskWindow(),
		gen:      workload.NewGenerator(opt.MatrixDim, opt.MeanPrecision, xrand.NewStream(opt.Seed, xrand.StreamTaskGen)),
		pending:  make([][]workload.Task, n),
		stop:     make(chan struct{}),
		doneCh:   make(chan struct{}),
	}
	c.view.peers = c.peers
	c.transport = opt.Transport
	if c.transport == nil {
		tr, err := cluster.NewNetTransport(n + 1)
		if err != nil {
			return nil, err
		}
		c.transport = tr
		c.ownsTrans = true
	}

	for id := 0; id < n; id++ {
		c.workers = append(c.workers, &worker{
			id:      id,
			up:      true,
			kick:    make(chan struct{}, 1),
			failInt: make(chan struct{}, 1),
			rngApp:  xrand.NewStream(opt.Seed, xrand.WorkerStream(id, xrand.WorkerService)),
			rngLB:   xrand.NewStream(opt.Seed, xrand.WorkerStream(id, xrand.WorkerBalance)),
		})
		c.peers[id] = peer{up: true}
	}
	c.fplan = policy.PlanFor(opt.Policy, c.p)
	c.spin = spinAffordable(runtime.NumCPU(), n, len(opt.Trace) > 0)
	initial := c.preload()
	c.start = time.Now()
	c.traceQueues(model.EvStart, -1)
	for _, w := range c.workers {
		c.execTransfers(w, initial)
	}

	for _, w := range c.workers {
		c.wg.Add(3)
		go c.appLoop(w)
		go c.taskRecvLoop(w)
		go c.stateLoop(w)
	}
	// One churn controller goroutine per churn-prone worker, plus the
	// dispatcher's state-folding loop and the trace driver.
	for _, w := range c.workers {
		if c.p.FailRate[w.id] > 0 {
			c.wg.Add(1)
			go c.churnLoop(w, xrand.NewStream(opt.Seed, xrand.WorkerStream(w.id, xrand.WorkerChurn)))
		}
	}
	c.wg.Add(2)
	go c.dispatcherStateLoop()
	go c.traceLoop()

	var httpDone func() error
	if opt.HTTPAddr != "" {
		var err error
		httpDone, err = c.serveHTTP(opt.HTTPAddr)
		if err != nil {
			c.shutdown()
			return nil, err
		}
	}

	err := c.waitDone()
	c.shutdown()
	if httpDone != nil {
		httpDone()
	}
	if err != nil {
		return nil, err
	}

	res := &Result{
		Processed:        make([]int, n),
		Failures:         int(atomic.LoadInt64(&c.failures)),
		Recoveries:       int(atomic.LoadInt64(&c.recoveries)),
		TransfersSent:    int(atomic.LoadInt64(&c.transfersSent)),
		TasksTransferred: int(atomic.LoadInt64(&c.tasksMoved)),
		StatePackets:     int(atomic.LoadInt64(&c.statePackets)),
		Injected:         int(atomic.LoadInt64(&c.injected)),
		Interrupted:      c.interrupted.Load(),
		Lost:             int(c.lost.Load()),
		QueueTrace:       c.qtrace,
	}
	if nt, ok := c.transport.(*cluster.NetTransport); ok {
		res.DecodeErrors = nt.DecodeErrors()
	}
	c.colMu.Lock()
	res.Summary = c.col.Finalize(c.doneAtV)
	res.Windows = c.col.Windows()
	c.colMu.Unlock()
	for i, w := range c.workers {
		res.Processed[i] = int(w.processed.Load())
	}
	return res, nil
}

func (c *run) shutdown() {
	select {
	case <-c.stop:
		return // already down
	default:
	}
	close(c.stop)
	for _, w := range c.workers {
		kick(w.kick)
	}
	if c.ownsTrans {
		c.transport.Close()
	}
	c.wg.Wait()
}

// now returns the virtual clock.
func (c *run) now() float64 {
	return time.Since(c.start).Seconds() * c.opt.TimeScale
}

// wall converts virtual seconds to wall duration.
func (c *run) wall(v float64) time.Duration {
	return time.Duration(v / c.opt.TimeScale * float64(time.Second))
}

func kick(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// finish ends the run. It closes doneCh under colMu, so the done sample is
// the last of the queue trace: a churn event between here and shutdown
// finds the run finished.
func (c *run) finish() {
	c.doneOnce.Do(func() {
		c.colMu.Lock()
		c.doneAtV = c.now()
		c.traceQueues(model.EvDone, -1)
		close(c.doneCh)
		c.colMu.Unlock()
	})
}

// preload applies the closed system's boundary condition before the clock
// starts and the fleet exists (so nothing here needs a lock): it mints
// Options.InitialLoad into the workers' queues as arrivals at t = 0, makes
// that distribution the dispatcher's first view — the paper assumes the
// initial queue sizes are known to all — and returns the policy's initial
// balancing action against it, for every worker to execute its share of.
func (c *run) preload() []model.Transfer {
	load := c.opt.InitialLoad
	if load == nil {
		return nil
	}
	up := make([]bool, c.n)
	for id, w := range c.workers {
		tasks := c.gen.Batch(load[id])
		for _, task := range tasks {
			c.inSystem.add(task.ID, 0)
		}
		w.queue.push(tasks)
		c.col.TasksArrived(id, load[id], 0)
		atomic.AddInt64(&c.injected, int64(load[id]))
		c.peers[id].queueLen = uint32(load[id])
		up[id] = true
	}
	initial := model.State{Queues: append([]int(nil), load...), Up: up}
	return c.opt.Policy.Initial(model.SnapshotView{State: initial}, c.p)
}

// waitDone blocks until the run finishes, or reports it wedged: tasks
// were outstanding for a whole MaxWall and none of them completed or was
// declared lost. An idle daemon (nothing outstanding) and a slow run
// (counters still moving) are not wedged; the timer re-arms.
func (c *run) waitDone() error {
	t := time.NewTimer(c.opt.MaxWall)
	defer t.Stop()
	// stalled is processed+lost at the previous expiry if tasks were
	// outstanding then, -1 otherwise.
	stalled := int64(-1)
	for {
		select {
		case <-c.doneCh:
			return nil
		case <-t.C:
		}
		processed, lost := atomic.LoadInt64(&c.processedTotal), c.lost.Load()
		injected := atomic.LoadInt64(&c.injected)
		settled := processed + lost
		if injected == settled {
			stalled = -1
		} else if settled == stalled {
			return fmt.Errorf("daemon: no progress for MaxWall=%v with %d/%d tasks done (%d lost)",
				c.opt.MaxWall, processed, injected, lost)
		} else {
			stalled = settled
		}
		t.Reset(c.opt.MaxWall)
	}
}

// maybeFinish closes the run when the arrival stream has ended and
// every admitted task completed or was declared lost.
func (c *run) maybeFinish() {
	if c.arrivalsClosed.Load() &&
		atomic.LoadInt64(&c.processedTotal)+c.lost.Load() == atomic.LoadInt64(&c.injected) {
		c.finish()
	}
}

type sleepOutcome int

const (
	sleptFull sleepOutcome = iota
	sleepInterrupted
	sleepStopped
)

// spinThreshold is the spin-waited tail of a wait when spinning is
// affordable: OS timers have a ~1 ms floor, which at high TimeScale
// would stretch sub-millisecond service times and bias the live system
// away from the model it is calibrated against.
const spinThreshold = 2 * time.Millisecond

// newWaitTimer returns the stopped timer a waiting goroutine owns for its
// lifetime: preciseWait re-arms it per wait instead of allocating one per
// task (since go 1.23 a Reset timer cannot deliver a stale tick).
func newWaitTimer() *time.Timer {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}

// spinAffordable is the one rule that decides whether waits end in a
// spin: the loops that wait with precision all the time — the workers'
// application loops, plus the trace driver when there is a trace to pace —
// each fit on a core of their own. It is computed, not configured.
func spinAffordable(cores, workers int, paced bool) bool {
	loops := workers
	if paced {
		loops++
	}
	return loops <= cores
}

// preciseWait waits d of wall time on the caller's timer, honouring an
// optional interrupt (the worker's failure signal) and the run's stop
// channel.
//
// When spinAffordable says so (c.spin), the final spinThreshold of every
// wait is spin-waited for precision; otherwise spinning n workers
// serialises the whole fleet on the scheduler — each spin excludes every
// other worker's progress — so the wait is pure timer and the timer floor
// (~1 ms) becomes the resolution limit instead: calibration runs on small
// machines should pick a TimeScale that keeps mean service times well
// above it. Both outcomes are load-bearing on the 2-core machine that
// gates this repository. The paper's two-node closed run (two loops, no
// trace) must spin there: timer-slept at TimeScale 2000, the 40-task
// no-failure run reads 88.7 virtual s against 37.0 in theory (37.4 with
// the spin) and the (100,60) LBP-1 run 357 s against 116.75. The 64-worker
// open fleet of the benchmark's live workload must not.
func (c *run) preciseWait(t *time.Timer, d time.Duration, interrupt <-chan struct{}) sleepOutcome {
	var deadline time.Time
	coarse := d
	if c.spin {
		deadline = time.Now().Add(d)
		coarse -= spinThreshold
	}
	if coarse > 0 {
		t.Reset(coarse)
		select {
		case <-t.C:
		case <-interrupt: // nil channel when no interrupt: never fires
			t.Stop()
			return sleepInterrupted
		case <-c.stop:
			t.Stop()
			return sleepStopped
		}
	}
	if !c.spin {
		return sleptFull
	}
	for time.Now().Before(deadline) {
		select {
		case <-interrupt:
			return sleepInterrupted
		case <-c.stop:
			return sleepStopped
		default:
		}
	}
	return sleptFull
}

// sleepV waits v virtual seconds on the caller's timer; false means the
// run stopped.
func (c *run) sleepV(t *time.Timer, v float64) bool {
	return c.preciseWait(t, c.wall(v), nil) == sleptFull
}

// --- worker loops (the layers of a Section-3 computational element) ---

// appLoop is the application layer: pop, execute for an exponentially
// distributed service time (or the real arithmetic), report completion.
// A failure interrupt re-queues the in-progress task at the head — the
// backup process preserving work across failures.
func (c *run) appLoop(w *worker) {
	defer c.wg.Done()
	rate := c.p.ProcRate[w.id]
	timer := newWaitTimer()
	for {
		w.mu.Lock()
		for !(w.up && w.queue.len() > 0) {
			w.mu.Unlock()
			select {
			case <-w.kick:
			case <-c.stop:
				return
			}
			w.mu.Lock()
		}
		task := w.queue.pop()
		w.mu.Unlock()
		// This attempt's start is the task's first-service instant unless
		// an earlier, interrupted attempt already stamped one.
		started := c.now()

		var v float64
		if c.opt.RealCompute {
			v = workload.VirtualSeconds(task, c.opt.MeanPrecision, rate)
		} else {
			v = w.rngApp.Exp(rate)
		}
		switch c.preciseWait(timer, c.wall(v), w.failInt) {
		case sleptFull:
			if c.opt.RealCompute {
				c.matrix.MultiplyTask(task)
			}
			// A task no longer on the books (declared lost after a send
			// that delivered anyway) is executed but not counted, which
			// keeps processed + lost == injected exact.
			if c.noteCompleted(w.id, task.ID, started) {
				w.processed.Add(1)
				atomic.AddInt64(&c.processedTotal, 1)
				c.maybeFinish()
			}
		case sleepInterrupted:
			c.noteInterrupted(task.ID, started)
			w.mu.Lock()
			w.queue.unpop(task)
			w.mu.Unlock()
		case sleepStopped:
			return
		}
	}
}

// churnLoop is the churn controller's per-worker process: alternate up
// and down periods drawn from the configured law (sim.ChurnLaw.Sample, the
// simulator twin's own law), execute the eq.-(8) failure plan when the
// worker dies, and kick a graceful drain when it recovers.
func (c *run) churnLoop(w *worker, rng *xrand.Rand) {
	defer c.wg.Done()
	timer := newWaitTimer()
	for {
		if !c.sleepV(timer, c.opt.ChurnLaw.Sample(rng, 1/c.p.FailRate[w.id])) {
			return
		}
		w.mu.Lock()
		w.up = false
		queued := w.queue.len()
		w.mu.Unlock()
		kick(w.failInt)
		atomic.AddInt64(&c.failures, 1)
		c.noteChurn(w.id, false)
		c.reportState(w)
		if c.fplan != nil {
			c.execTransfers(w, c.fplan.Transfers(nil, w.id, queued))
		}

		if !c.sleepV(timer, c.opt.ChurnLaw.Sample(rng, 1/c.p.RecRate[w.id])) {
			return
		}
		w.mu.Lock()
		w.up = true
		w.mu.Unlock()
		select {
		case <-w.failInt: // drain a stale interrupt
		default:
		}
		atomic.AddInt64(&c.recoveries, 1)
		c.noteChurn(w.id, true)
		// Graceful drain: the recovered worker resumes its preserved
		// backlog before anything else reaches it.
		kick(w.kick)
		c.reportState(w)
	}
}

// execTransfers ships the eq.-(8) transfers whose source is this worker:
// detach from the queue tail (the head may be in service) and deliver
// over the reliable task path after the channel's random delay — the
// simulator's bundle law, sim.TransferBundle.Delay, mean δ·k.
func (c *run) execTransfers(w *worker, trs []model.Transfer) {
	for _, tr := range trs {
		if tr.From != w.id || tr.To == tr.From || tr.Tasks <= 0 {
			continue
		}
		if tr.To < 0 || tr.To >= c.n {
			continue
		}
		w.mu.Lock()
		tasks := w.queue.takeTail(tr.Tasks)
		w.mu.Unlock()
		k := len(tasks)
		if k == 0 {
			continue
		}
		atomic.AddInt64(&c.transfersSent, 1)
		atomic.AddInt64(&c.tasksMoved, int64(k))
		c.noteTransferOut(w.id, tr.To, k)
		delay := sim.TransferBundle.Delay(w.rngLB, c.p.DelayPerTask, k)
		to := tr.To
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			if !c.sleepV(newWaitTimer(), delay) {
				return
			}
			if err := c.transport.SendTasks(w.id, to, tasks); err != nil {
				c.declareLost(tasks, true)
			}
		}()
	}
}

// taskRecvLoop is the worker's receive side of the reliable task path:
// dispatcher bundles are fresh arrivals, peer bundles are eq.-(8)
// transfers landing.
func (c *run) taskRecvLoop(w *worker) {
	defer c.wg.Done()
	for {
		select {
		case b, ok := <-c.transport.Tasks(w.id):
			if !ok {
				return
			}
			w.mu.Lock()
			w.queue.push(b.Tasks)
			w.mu.Unlock()
			if b.From != dispatcherID(c.n) {
				c.noteTransferIn(w.id, len(b.Tasks))
			}
			kick(w.kick)
		case <-c.stop:
			return
		}
	}
}

// stateLoop periodically reports this worker's 23-byte state packet — the
// paper's UDP state-information exchange, for real when the transport is
// a NetTransport. It goes to the dispatcher, the one endpoint that reads
// state: failure episodes run from the precomputed plan, not from a
// per-worker view of the peers.
func (c *run) stateLoop(w *worker) {
	defer c.wg.Done()
	period := c.wall(c.opt.StateInterval)
	if period < time.Millisecond {
		period = time.Millisecond
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			c.reportState(w)
		case <-c.stop:
			return
		}
	}
}

func (c *run) reportState(w *worker) {
	w.mu.Lock()
	w.seq++
	pkt := cluster.StatePacket{
		From:      uint16(w.id),
		Seq:       w.seq,
		QueueLen:  uint32(w.queue.len()),
		Up:        w.up,
		RateMilli: uint32(c.p.ProcRate[w.id] * 1000),
		TimeMs:    uint64(c.now() * 1000),
	}
	w.mu.Unlock()
	c.transport.SendState(w.id, dispatcherID(c.n), pkt)
}

// --- dispatcher ---

// dispatcherStateLoop folds incoming state packets into the live peer
// table the router reads — the dispatcher's only knowledge of the fleet,
// exactly as stale as the wire makes it.
func (c *run) dispatcherStateLoop() {
	defer c.wg.Done()
	for {
		select {
		case p, ok := <-c.transport.State(dispatcherID(c.n)):
			if !ok {
				return
			}
			atomic.AddInt64(&c.statePackets, 1)
			from := int(p.From)
			c.peersMu.Lock()
			if from >= 0 && from < c.n && p.Seq >= c.peers[from].seq {
				c.peers[from] = peer{queueLen: p.QueueLen, up: p.Up, seq: p.Seq}
			}
			c.peersMu.Unlock()
		case <-c.stop:
			return
		}
	}
}

// bundleCap is the size at which the trace driver puts a worker's pending
// bundle on the wire without waiting for the end of the due-run. Chosen
// from the measured frontier (README, "Live daemon"): time per admitted
// task saturates by 16–32 tasks per frame, while resident memory keeps
// rising with the cap — pending bundles and the workers' 64-deep bundle
// channels hold cap tasks each.
const bundleCap = 16

// maxBatch bounds one arrival's tasks at the HTTP front door; a frame of
// maxBatch default-dimension tasks is 144 KB.
const maxBatch = 1024

// satAdd32 is q + k saturating at the top of uint32: no batch size can
// wrap a long gossiped queue into a short one.
func satAdd32(q uint32, k int) uint32 {
	return uint32(min(uint64(q)+uint64(k), math.MaxUint32))
}

// admit takes one arrival into the system: route it against the live
// view (with the optimistic bump), mint its tasks, register them with
// telemetry, and append them to the chosen worker's pending bundle.
// Nothing reaches the wire until flush. now is the arrival's instant on
// the virtual clock; the caller holds admitMu.
//
//churnlb:hotpath
func (c *run) admit(batch int, now float64) (int, error) {
	c.peersMu.Lock()
	var node int
	if c.router != nil {
		c.view.time = now
		node = c.router.Route(&c.view, c.p, c.rngRoot)
	} else {
		node = c.rngRoot.Intn(c.n)
	}
	if node < 0 || node >= c.n {
		c.peersMu.Unlock()
		//lint:ignore hotalloc error path: a broken router ends the run
		return -1, fmt.Errorf("daemon: router returned invalid worker %d", node)
	}
	// Optimistic local update so back-to-back arrivals between state
	// packets don't all pile onto the same worker.
	c.peers[node].queueLen = satAdd32(c.peers[node].queueLen, batch)
	c.peersMu.Unlock()

	first := len(c.pending[node])
	for i := 0; i < batch; i++ {
		c.pending[node] = append(c.pending[node], c.gen.Next())
	}
	c.colMu.Lock()
	for _, task := range c.pending[node][first:] {
		c.inSystem.add(task.ID, now)
	}
	c.col.TasksArrived(node, batch, now)
	c.colMu.Unlock()
	atomic.AddInt64(&c.injected, int64(batch))
	return node, nil
}

// flush ships worker node's pending bundle, if any, as one task frame.
// A failed send is the point where tasks can go missing, so the bundle is
// declared lost there. The caller holds admitMu.
//
//churnlb:hotpath
func (c *run) flush(node int) error {
	bundle := c.pending[node]
	if len(bundle) == 0 {
		return nil
	}
	err := c.transport.SendTasks(dispatcherID(c.n), node, bundle)
	if err != nil {
		c.declareLost(bundle, false)
		//lint:ignore hotalloc error path: a failed send ends the replay
		err = fmt.Errorf("daemon: dispatch to worker %d: %w", node, err)
	}
	clear(bundle) // release the rows; the transport kept what it needs
	c.pending[node] = bundle[:0]
	return err
}

// flushAll ships every pending bundle, in worker order; the first error
// is returned after all have been tried.
func (c *run) flushAll() error {
	c.admitMu.Lock()
	defer c.admitMu.Unlock()
	var first error
	for node := range c.pending {
		if err := c.flush(node); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// declareLost takes the tasks of a failed send off the books: out of the
// in-system window and out of the collector's queued (a dispatcher
// bundle) or in-flight (an eq.-(8) transfer) population, and into
// Result.Lost — without which processed could never reach injected and
// the run would hang to MaxWall.
func (c *run) declareLost(tasks []workload.Task, inFlight bool) {
	now := c.now()
	n := 0
	c.colMu.Lock()
	for _, task := range tasks {
		if m := c.inSystem.get(task.ID); m != nil {
			c.inSystem.remove(m)
			n++
		}
	}
	c.col.TasksLost(n, inFlight, now)
	c.colMu.Unlock()
	c.lost.Add(int64(n))
	c.maybeFinish()
}

// Inject admits one batch of tasks and puts it on the wire at once: route
// against the live view, record the arrival for telemetry, ship the batch
// to the chosen worker over the task path. It is the HTTP front door's
// entry point — admit plus flush, the trace driver's two steps with
// nothing in between. Returns the chosen worker, or an error once the
// arrival stream has closed.
func (c *run) Inject(batch int) (int, error) {
	if batch <= 0 {
		batch = c.opt.Batch
	}
	c.admitMu.Lock()
	defer c.admitMu.Unlock()
	if c.arrivalsClosed.Load() {
		return -1, fmt.Errorf("daemon: arrival stream closed")
	}
	node, err := c.admit(batch, c.now())
	if err != nil {
		return -1, err
	}
	return node, c.flush(node)
}

// admitTraced is the trace driver's step for one due arrival: admit, and
// flush the chosen worker only if its bundle has reached bundleCap.
func (c *run) admitTraced(batch int, now float64) error {
	c.admitMu.Lock()
	defer c.admitMu.Unlock()
	node, err := c.admit(batch, now)
	if err == nil && len(c.pending[node]) >= bundleCap {
		err = c.flush(node)
	}
	return err
}

// traceLoop replays the recorded arrival schedule in wall time, then
// closes the arrival stream. Interrupt cuts the replay early.
//
// Arrivals are admitted one by one, in trace order, but reach the wire in
// bundles: every arrival already due is admitted without flushing, and a
// worker's bundle goes out when it reaches bundleCap, before the driver
// waits for an arrival that is not yet due, on interrupt, and at the end
// of the trace. A dispatcher that keeps up therefore sends each arrival
// as its own frame before it sleeps — pacing adds no latency — and frames
// grow only while it is behind, where one write per bundle instead of one
// per task is what lets it catch up.
func (c *run) traceLoop() {
	defer c.wg.Done()
	timer := newWaitTimer()
	for _, a := range c.opt.Trace {
		if c.interruptFired() {
			break
		}
		// Absolute pacing against the virtual clock: sleep to the entry's
		// instant, not by deltas, so pacing error does not accumulate. One
		// clock reading serves the due test and stamps the admission.
		now := c.now()
		if d := c.wall(a.Time - now); d > 0 {
			if c.flushAll() != nil || c.preciseWait(timer, d, c.opt.Interrupt) != sleptFull {
				break
			}
			now = c.now()
		}
		batch := a.Batch
		if batch <= 0 {
			batch = c.opt.Batch
		}
		if c.admitTraced(batch, now) != nil {
			break
		}
	}
	c.flushAll()
	if len(c.opt.Trace) > 0 || c.opt.InitialLoad != nil || c.interruptFired() {
		c.closeArrivals()
		return
	}
	// Idle daemon (no trace, no backlog): stay open for HTTP until
	// Interrupt/stop.
	select {
	case <-c.opt.Interrupt:
		c.interrupted.Store(true)
	case <-c.stop:
	}
	c.closeArrivals()
}

func (c *run) interruptFired() bool {
	select {
	case <-c.opt.Interrupt:
		c.interrupted.Store(true)
		return true
	default:
		return false
	}
}

// closeArrivals ends admission. Taking admitMu orders it against an
// Inject in progress: that batch is either counted before the stream
// closes or refused.
func (c *run) closeArrivals() {
	c.admitMu.Lock()
	c.arrivalsClosed.Store(true)
	c.admitMu.Unlock()
	c.maybeFinish()
}

// --- telemetry hooks (colMu serialises the single-goroutine Collector;
// its integrator tolerates the slightly out-of-order timestamps real
// concurrency produces). A task's life takes colMu twice, at admission
// and at completion; a failure interrupt adds a third. The hooks are also
// where the queue trace is sampled. ---

// traceQueues, when Options.QueueTrace is set, appends one sample of every
// worker's queue to the queue trace. The caller holds colMu, which orders
// the samples; the clock is read under it so their times never regress.
func (c *run) traceQueues(kind model.EventKind, node int) {
	if !c.opt.QueueTrace {
		return
	}
	select {
	case <-c.doneCh:
		return // finish took the last sample
	default:
	}
	queues := make([]int, c.n)
	for i, w := range c.workers {
		w.mu.Lock()
		queues[i] = w.queue.len()
		w.mu.Unlock()
	}
	c.qtrace = append(c.qtrace, model.TracePoint{Time: c.now(), Kind: kind, Node: node, Queues: queues})
}

// noteInterrupted stamps the start of a task's first service attempt into
// its record when a failure cuts that attempt short.
func (c *run) noteInterrupted(id uint64, started float64) {
	c.colMu.Lock()
	if m := c.inSystem.get(id); m != nil && m.firstService < 0 {
		m.firstService = started
	}
	c.colMu.Unlock()
}

// noteCompleted records a completion whose (last) service attempt began
// at started, and reports whether the task was still on the books.
//
//churnlb:hotpath
func (c *run) noteCompleted(node int, id uint64, started float64) bool {
	now := c.now()
	c.colMu.Lock()
	m := c.inSystem.get(id)
	onBooks := m != nil
	if onBooks {
		if m.firstService >= 0 {
			started = m.firstService
		}
		c.col.TaskCompleted(node, m.arrival, started, now)
		c.inSystem.remove(m)
		c.traceQueues(model.EvCompletion, node)
	}
	c.colMu.Unlock()
	return onBooks
}

func (c *run) noteChurn(node int, up bool) {
	now := c.now()
	c.colMu.Lock()
	c.col.NodeStateChanged(node, up, now)
	kind := model.EvFailure
	if up {
		kind = model.EvRecovery
	}
	c.traceQueues(kind, node)
	c.colMu.Unlock()
}

func (c *run) noteTransferOut(from, to, tasks int) {
	now := c.now()
	c.colMu.Lock()
	c.col.TransferDeparted(from, to, tasks, now)
	c.traceQueues(model.EvSend, from)
	c.colMu.Unlock()
}

func (c *run) noteTransferIn(node, tasks int) {
	now := c.now()
	c.colMu.Lock()
	c.col.TransferArrived(node, tasks, now)
	c.traceQueues(model.EvArrival, node)
	c.colMu.Unlock()
}
