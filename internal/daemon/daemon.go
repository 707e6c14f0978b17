// Package daemon is the live serving system built on the paper's wire
// transport: real worker goroutine-processes serving workload tasks for
// exponential service times, gossiping their state in 23-byte UDP
// packets and shipping task payloads over length-prefixed TCP frames
// (cluster.NetTransport), a
// dispatcher routing arrivals through the policy.Router family against a
// live model.StateView folded from incoming state packets, and a churn
// controller killing and recovering workers on the same laws as the
// simulator — graceful drain on recovery, eq.-(8)-style transfer of the
// queued backlog on failure.
//
// It is the one live engine, run under two boundary conditions. Closed —
// the paper's Section-3 testbed: Options.InitialLoad queues a backlog at
// t = 0, the policy's t = 0 episode balances it, there is no arrival
// trace, and the run ends when the backlog has drained;
// Result.Summary.Elapsed is the overall completion time. Open — the serving layer: a recorded arrival
// trace (or HTTP clients, see httpapi.go) injects work continuously. One
// run may do both. The same metrics.Collector the simulator uses measures
// either — which is what makes the sim-vs-live calibration harness in
// internal/calib possible: one trace, two systems, comparable telemetry.
// No goroutine that serves, admits or churns touches it: each telemetry
// hook appends one fixed-size record to a bounded ring, and one consumer
// goroutine replays the records in order into the collector (tel.go).
package daemon

import (
	"fmt"
	"math"
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
	// controller executes when a worker dies (nil = no balancing). A
	// policy.ArrivalBalancer is refused: nothing calls its OnArrival.
	Policy policy.Policy
	// InitialLoad, when non-nil, queues that many tasks at each worker at
	// t = 0 (one non-negative entry per worker), counted as injected, and
	// has every worker execute its share of the policy's t = 0 episode
	// against that known distribution. A run with a backlog and no Trace is closed: it
	// ends when the backlog has drained.
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
	// MaxWall expiries with none completed or declared lost in between,
	// and no worker in paced service. Default 2 minutes.
	MaxWall time.Duration
}

// Result reports a completed daemon run.
type Result struct {
	// Summary and Windows are the live telemetry, in virtual seconds —
	// directly comparable with a serve.Result driven by the same trace.
	Summary metrics.Summary
	Windows []metrics.WindowStats
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
	// TelemetryBacklogMax is the deepest the telemetry ring was seen:
	// records a hook has taken a slot for but the consumer has not yet
	// applied, read at every catch-up and every telSample records.
	// TelemetryFullWaits counts the times a hook waited for a slot on the
	// full ring (telCap records).
	TelemetryBacklogMax int
	TelemetryFullWaits  int
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
	id    int
	mu    sync.Mutex
	queue taskQueue
	up    bool
	// downAt and upAt are the paced instants of the latest failure and
	// recovery, and downs counts failures; churnLoop writes all three
	// under mu, and appLoop reads downs without it.
	downAt, upAt float64
	downs        atomic.Uint32
	kick         chan struct{}
	failInt      chan struct{}
	seq          uint32
	rngApp       *xrand.Rand
	rngLB        *xrand.Rand
	// waits counts the timer waits appLoop armed; appLoop's alone until
	// the run is down.
	waits int
	// due holds the float64 bits of the paced due instant appLoop last
	// waited towards, 0 once a failure cut that service; waitDone reads
	// it to tell a long service from a wedge.
	due atomic.Uint64
}

type run struct {
	opt       Options
	p         model.Params
	n         int
	workers   []*worker
	transport cluster.Transport
	ownsTrans bool
	fplan     *policy.FailurePlan
	start     time.Time
	// tel carries every telemetry hook's record to the consumer goroutine
	// (tel.go); every hook reads it.
	tel *telRing

	// admitMu serialises admission — the trace driver and every HTTP
	// handler — and guards what only admission touches: the router and its
	// rng (routers may be stateful), the task generator, pending, the
	// per-worker bundles admitted but not yet on the wire, and slabs, the
	// per-worker row slabs their rows are carved from. It is held across a
	// flush, so a worker's bundles go out in admission order. Admission
	// also counts injected.
	admitMu  sync.Mutex
	router   policy.Router
	rngRoot  *xrand.Rand
	gen      *workload.Generator
	pending  [][]workload.Task
	slabs    [][]float64
	injected int64

	// peers is the dispatcher's live state view, folded from state packets
	// by dispatcherStateLoop and read (and optimistically bumped) by
	// admission under peersMu; view is the StateView over it.
	peersMu sync.Mutex
	peers   []peer
	view    peerView

	failures       int64
	recoveries     int64
	transfersSent  int64
	tasksMoved     int64
	statePackets   int64
	arrivalsClosed atomic.Bool
	interrupted    atomic.Bool

	stop     chan struct{}
	doneCh   chan struct{}
	doneOnce sync.Once
	doneAtV  float64

	wg sync.WaitGroup

	// The consumer's own, on lines no producer writes: it is the only
	// goroutine that touches col, the collector, and inSystem, the
	// lifecycle record of every admitted task that has neither completed
	// nor been declared lost, between the clock's start and Finalize, and
	// the only one that writes processed, the per-worker count of tasks
	// executed on the books, processedTotal and lost, the tasks declared
	// lost after a failed send. telStop tells it to drain and exit;
	// telDone closes when it has.
	_              [64]byte
	telStop        chan struct{}
	telDone        chan struct{}
	col            *metrics.Collector
	inSystem       *taskWindow
	processed      []int
	processedTotal atomic.Int64
	lost           atomic.Int64
}

// Run executes one daemon lifetime: spin up the fleet, replay the trace
// (and serve HTTP if configured), drain, and report. Blocks until the
// workload completes, Interrupt drains the system, or the run makes no
// progress for MaxWall (an error).
func Run(opt Options) (*Result, error) {
	c, err := newRun(opt)
	if err != nil {
		return nil, err
	}
	return c.serve()
}

// MaxWorkers caps the fleet of one run. Every worker holds goroutines, a
// UDP socket and a TCP listener on loopback, so a fleet past a few
// thousand runs out of ports and descriptors long before memory; the cap
// refuses it before anything is built.
const MaxWorkers = 4096

// MaxBacklog caps the tasks a run mints at once: the InitialLoad backlog,
// which preload mints before the clock starts and which is resident all
// together, and any one arrival's batch. A minted task holds taskBytes —
// its Task, its row and its in-system record — so the cap is 184 MiB of
// tasks.
const MaxBacklog = 1 << 20

// taskBytes is what one minted task keeps resident: the 40-byte Task, its
// row of taskDim floats and its 16-byte in-system record.
const taskBytes = 40 + 8*taskDim + 16

// Resolve validates opt and fills in its defaults, returning the options
// a run takes effect with: the time scale, state interval, MaxWall,
// batch, policy and telemetry window a zero value leaves to the daemon.
// It refuses, before anything is minted, a fleet above MaxWorkers, a
// backlog or a batch above MaxBacklog, a non-finite TimeScale or
// StateInterval and a run whose backlog and trace together exceed the
// int32 task counters (math.MaxInt32 tasks, the simulator's cap too).
// Run resolves its options through it, so a caller that resolves first —
// lbd, to print the run it starts — reports what runs; resolving resolved
// options changes nothing.
func Resolve(opt Options) (Options, error) {
	if n := opt.Params.N(); n > MaxWorkers {
		return Options{}, fmt.Errorf("daemon: %d workers is above the %d-worker cap", n, MaxWorkers)
	}
	if err := opt.Params.Validate(); err != nil {
		return Options{}, err
	}
	n := opt.Params.N()
	if opt.InitialLoad != nil && len(opt.InitialLoad) != n {
		return Options{}, fmt.Errorf("daemon: InitialLoad has %d entries for %d workers", len(opt.InitialLoad), n)
	}
	backlog := 0
	for id, q := range opt.InitialLoad {
		if q < 0 {
			return Options{}, fmt.Errorf("daemon: negative initial load %d at worker %d", q, id)
		}
		if q > MaxBacklog-backlog {
			return Options{}, fmt.Errorf("daemon: initial load passes the %d-task backlog cap at worker %d (%d bytes a task, all resident at once)",
				MaxBacklog, id, taskBytes)
		}
		backlog += q
	}
	if opt.Batch > MaxBacklog {
		return Options{}, fmt.Errorf("daemon: Batch = %d is above the %d-task cap on what one arrival mints", opt.Batch, MaxBacklog)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"TimeScale", opt.TimeScale}, {"StateInterval", opt.StateInterval}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return Options{}, fmt.Errorf("daemon: %s is %v, want a finite number (0 = default)", f.name, f.v)
		}
	}
	if opt.TimeScale <= 0 {
		opt.TimeScale = 200
	}
	if opt.StateInterval <= 0 {
		opt.StateInterval = 1
	}
	if opt.MaxWall <= 0 {
		opt.MaxWall = 2 * time.Minute
	}
	if opt.Batch <= 0 {
		opt.Batch = 1
	}
	total := int64(backlog)
	for i, a := range opt.Trace {
		batch := a.Batch
		if batch <= 0 {
			batch = opt.Batch
		}
		if batch > MaxBacklog {
			return Options{}, fmt.Errorf("daemon: Trace[%d].Batch = %d is above the %d-task cap on what one arrival mints", i, batch, MaxBacklog)
		}
		if total += int64(batch); total > math.MaxInt32 {
			return Options{}, fmt.Errorf("daemon: backlog and trace pass %d tasks at Trace[%d], the cap of the run's int32 task counters", math.MaxInt32, i)
		}
	}
	if opt.Policy == nil {
		opt.Policy = policy.NoBalance{}
	}
	if _, ok := opt.Policy.(policy.ArrivalBalancer); ok {
		return Options{}, fmt.Errorf("daemon: policy %s rebalances at every arrival, and the live engine executes failure plans only", opt.Policy.Name())
	}
	span := 1.0
	if len(opt.Trace) > 0 {
		if t := opt.Trace[len(opt.Trace)-1].Time; t > span {
			span = t
		}
	}
	window, err := metrics.WindowFor(opt.Window, span)
	if err != nil {
		return Options{}, err
	}
	opt.Window = window
	return opt, nil
}

// newRun resolves opt and builds the fleet and its transport; nothing
// runs yet.
func newRun(opt Options) (*run, error) {
	opt, err := Resolve(opt)
	if err != nil {
		return nil, err
	}
	n := opt.Params.N()
	c := &run{
		opt:       opt,
		p:         opt.Params,
		n:         n,
		peers:     make([]peer, n),
		router:    opt.Router,
		rngRoot:   xrand.NewStream(opt.Seed, xrand.StreamDispatcher),
		tel:       newTelRing(telCap),
		telStop:   make(chan struct{}),
		telDone:   make(chan struct{}),
		col:       metrics.NewCollector(n, opt.Window),
		inSystem:  newTaskWindow(),
		processed: make([]int, n),
		gen:       workload.NewGenerator(taskDim, taskPrecision, xrand.NewStream(opt.Seed, xrand.StreamTaskGen)),
		pending:   make([][]workload.Task, n),
		slabs:     make([][]float64, n),
		stop:      make(chan struct{}),
		doneCh:    make(chan struct{}),
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
	c.fplan = opt.Policy.FailurePlan(c.p)
	return c, nil
}

// serve is the lifetime itself: start the telemetry consumer, preload the
// backlog, start the clock and every loop, wait for the end, shut down and
// report.
func (c *run) serve() (*Result, error) {
	opt := c.opt
	go func() {
		defer close(c.telDone)
		c.tel.consume(c.telStop, c.apply)
	}()
	initial := c.preload()
	c.start = time.Now()
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
		Processed:        c.processed,
		Failures:         int(atomic.LoadInt64(&c.failures)),
		Recoveries:       int(atomic.LoadInt64(&c.recoveries)),
		TransfersSent:    int(atomic.LoadInt64(&c.transfersSent)),
		TasksTransferred: int(atomic.LoadInt64(&c.tasksMoved)),
		StatePackets:     int(atomic.LoadInt64(&c.statePackets)),
		Injected:         int(atomic.LoadInt64(&c.injected)),
		Interrupted:      c.interrupted.Load(),
		Lost:             int(c.lost.Load()),
		// The consumer has exited: its fields are the caller's now.
		TelemetryBacklogMax: int(c.tel.backlogMax),
		TelemetryFullWaits:  int(c.tel.fullWaits.Load()),
	}
	if nt, ok := c.transport.(*cluster.NetTransport); ok {
		res.DecodeErrors = nt.DecodeErrors()
	}
	res.Summary = c.col.Finalize(c.doneAtV)
	res.Windows = c.col.Windows()
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
	// Every producer has returned, so every record is published: the
	// consumer drains them and exits.
	close(c.telStop)
	<-c.telDone
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

// finish ends the run, stamping its end on the virtual clock; Run reads
// the stamp once doneCh has closed.
func (c *run) finish() {
	c.doneOnce.Do(func() {
		c.doneAtV = c.now()
		close(c.doneCh)
	})
}

// preload applies the closed system's boundary condition before the clock
// starts and the fleet exists (so nothing here needs a lock): it mints
// Options.InitialLoad into the workers' queues as arrivals at t = 0,
// publishes their arrival records, makes that distribution the
// dispatcher's first view — the paper assumes the initial queue sizes are
// known to all — and returns the policy's initial balancing action
// against it, for every worker to execute its share of.
func (c *run) preload() []model.Transfer {
	load := c.opt.InitialLoad
	if load == nil {
		return nil
	}
	up := make([]bool, c.n)
	for id, w := range c.workers {
		tasks := c.gen.Batch(load[id])
		w.queue.push(cluster.TaskBundle{Tasks: tasks}, 0)
		c.noteArrived(id, tasks, 0)
		atomic.AddInt64(&c.injected, int64(load[id]))
		c.peers[id].queueLen = uint32(load[id])
		up[id] = true
	}
	initial := model.State{Queues: append([]int(nil), load...), Up: up}
	return policy.CollectInitial(c.opt.Policy, model.SnapshotView{State: initial}, c.p)
}

// waitDone blocks until the run finishes, or reports it wedged: tasks
// were outstanding for a whole MaxWall, none of them completed or was
// declared lost, and no worker was in paced service. An idle daemon
// (nothing outstanding), a slow run (counters still moving) and a long
// service (a due instant inside the period or ahead of it) are not
// wedged; the timer re-arms.
func (c *run) waitDone() error {
	t := time.NewTimer(c.opt.MaxWall)
	defer t.Stop()
	// stalled is processed+lost at the previous expiry if tasks were
	// outstanding then, -1 otherwise; armed is the virtual instant the
	// current period began.
	stalled := int64(-1)
	armed := c.now()
	for {
		select {
		case <-c.doneCh:
			return nil
		case <-t.C:
		}
		processed, lost := c.processedTotal.Load(), c.lost.Load()
		injected := atomic.LoadInt64(&c.injected)
		settled := processed + lost
		if injected == settled {
			stalled = -1
		} else if settled == stalled && !c.servedSince(armed) {
			return fmt.Errorf("daemon: no progress for MaxWall=%v with %d/%d tasks done (%d lost)",
				c.opt.MaxWall, processed, injected, lost)
		} else {
			stalled = settled
		}
		armed = c.now()
		t.Reset(c.opt.MaxWall)
	}
}

// servedSince reports whether some worker waited towards a due instant
// after the virtual instant since: a service still running, or one that
// ended so recently that its completion may not be on the books yet.
func (c *run) servedSince(since float64) bool {
	for _, w := range c.workers {
		if math.Float64frombits(w.due.Load()) > since {
			return true
		}
	}
	return false
}

// maybeFinish closes the run when the arrival stream has ended and
// every admitted task completed or was declared lost. The consumer calls
// it after every settlement and on the stream's close.
func (c *run) maybeFinish() {
	if c.arrivalsClosed.Load() &&
		c.processedTotal.Load()+c.lost.Load() == atomic.LoadInt64(&c.injected) {
		c.finish()
	}
}

type sleepOutcome int

const (
	sleptFull sleepOutcome = iota
	sleepInterrupted
	sleepStopped
)

// newWaitTimer returns the stopped timer a waiting goroutine owns for its
// lifetime: preciseWait re-arms it per wait instead of allocating one per
// wait (since go 1.23 a Reset timer cannot deliver a stale tick).
func newWaitTimer() *time.Timer {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}

// preciseWait waits d of wall time on the caller's timer, honouring an
// optional interrupt (the worker's failure signal) and the run's stop
// channel.
//
// It is a plain timer wait, and its precision is not the wait's but its
// callers': each waits towards an instant on the virtual clock — a task's
// due instant, a churn transition, a trace entry — and reads the clock
// again when it wakes. A wake later than asked (the OS timer floor, ~1 ms
// on small machines, or a busy scheduler) therefore delays when an
// instant is observed, not the instant itself, and does not accumulate
// into what is modelled.
func (c *run) preciseWait(t *time.Timer, d time.Duration, interrupt <-chan struct{}) sleepOutcome {
	t.Reset(d)
	select {
	case <-t.C:
		return sleptFull
	case <-interrupt: // nil channel when no interrupt: never fires
		t.Stop()
		return sleepInterrupted
	case <-c.stop:
		t.Stop()
		return sleepStopped
	}
}

// sleepUntil waits on the caller's timer until the virtual clock reads
// at, not at all if it already does; false means the run stopped.
func (c *run) sleepUntil(t *time.Timer, at float64) bool {
	if d := c.wall(at - c.now()); d > 0 {
		return c.preciseWait(t, d, nil) == sleptFull
	}
	select {
	case <-c.stop:
		return false
	default:
		return true
	}
}

// drain discards a pending signal.
func drain(ch chan struct{}) {
	select {
	case <-ch:
	default:
	}
}

// --- worker loops (the layers of a Section-3 computational element) ---

// appLoop is the application layer: one server working through the queue
// in FIFO order for exponentially distributed service times, paced on the
// virtual clock the way traceLoop paces arrivals. The server keeps free,
// the paced instant it last finished. A task starts at the later of free
// and the instant it reached the worker, and is due at that start plus
// its service draw; the collector records both instants. The worker
// waits only while the due instant is ahead of the clock: one that wakes
// late completes every task already due without arming a timer, so a late
// wake shortens the next wait instead of stretching this service.
//
// A failure (churnLoop records its instant) cuts short the task in
// service across it: a task due at or before the failure instant
// completes, the one in service goes back to the head — the backup
// process preserving work across failures — and after the recovery free
// starts from the recovery's instant.
//
// A completion or an interrupt is one record on the telemetry ring; the
// worker never waits for the collector, and the consumer decides whether
// the task was still on the books and counts it.
func (c *run) appLoop(w *worker) {
	defer c.wg.Done()
	rate := c.p.ProcRate[w.id]
	timer := newWaitTimer()
	var free float64 // paced instant the server last finished
	var downs uint32 // failures acknowledged at the last pop
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
		if d := w.downs.Load(); d != downs {
			// Down and up again since the last pop: the server resumed at
			// the recovery, and the failure's interrupt, if still pending,
			// is stale (churnLoop signals it under mu).
			downs = d
			free = max(free, w.upAt)
			drain(w.failInt)
		}
		task, reached := w.queue.pop()
		w.mu.Unlock()
		start := max(free, reached)
		due := start + w.rngApp.Exp(rate)
		if d := c.wall(due - c.now()); d > 0 {
			w.waits++
			w.due.Store(math.Float64bits(due))
			if c.preciseWait(timer, d, w.failInt) == sleepStopped {
				return
			}
		}
		if w.downs.Load() != downs {
			w.mu.Lock()
			cut := due > w.downAt
			if cut {
				w.queue.unpop(task, reached)
			}
			w.mu.Unlock()
			if cut {
				w.due.Store(0)
				c.noteInterrupted(task.ID, start)
				continue
			}
		}
		free = due
		c.noteCompleted(w.id, task.ID, start, due)
	}
}

// churnLoop is the churn controller's per-worker process: alternate up
// and down periods drawn from the configured law (sim.ChurnLaw.Sample, the
// simulator twin's own law), execute the eq.-(8) failure plan when the
// worker dies, and kick a graceful drain when it recovers. Transitions are
// paced like service: each is due at the previous one's instant plus its
// draw, and that instant — not the wake — is what the worker and the
// collector are told.
func (c *run) churnLoop(w *worker, rng *xrand.Rand) {
	defer c.wg.Done()
	timer := newWaitTimer()
	var at float64 // paced instant of the latest transition
	for {
		at += c.opt.ChurnLaw.Sample(rng, 1/c.p.FailRate[w.id])
		if !c.sleepUntil(timer, at) {
			return
		}
		w.mu.Lock()
		w.up = false
		w.downAt = at
		w.downs.Add(1)
		queued := w.queue.len()
		kick(w.failInt)
		w.mu.Unlock()
		atomic.AddInt64(&c.failures, 1)
		c.noteChurn(w.id, false, at)
		c.reportState(w)
		if c.fplan != nil {
			c.execTransfers(w, c.fplan.Transfers(nil, w.id, queued))
		}

		at += c.opt.ChurnLaw.Sample(rng, 1/c.p.RecRate[w.id])
		if !c.sleepUntil(timer, at) {
			return
		}
		w.mu.Lock()
		w.up = true
		w.upAt = at
		w.mu.Unlock()
		atomic.AddInt64(&c.recoveries, 1)
		c.noteChurn(w.id, true, at)
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
			if !c.sleepUntil(newWaitTimer(), c.now()+delay) {
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
// transfers landing. One clock reading per bundle stamps the instant it
// reached the worker. The queue takes the bundle whole and releases its
// memory to the transport once spent.
func (c *run) taskRecvLoop(w *worker) {
	defer c.wg.Done()
	for {
		select {
		case b, ok := <-c.transport.Tasks(w.id):
			if !ok {
				return
			}
			at := c.now()
			w.mu.Lock()
			w.queue.push(b, at)
			w.mu.Unlock()
			if b.From != dispatcherID(c.n) {
				c.noteTransferIn(w.id, len(b.Tasks), at)
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
// bundle on the wire without waiting for the end of the due-run. It is the
// smallest cap of the measured frontier (CHANGES.md, the entry "Dispatch
// frames amortise the wire": caps 16, 32, 48, 64 and 128 over 16 rotated
// rounds) whose median time per admitted task is within 5 % of the best
// and whose resident memory is within 15 % of cap 16's: time per task
// falls with fewer frame writes, while memory rises with the cap — pending
// bundles, their row slabs and the workers' 64-deep bundle channels hold
// up to a cap of tasks each.
const bundleCap = 48

// maxBatch bounds one arrival's tasks at the HTTP front door; a frame of
// maxBatch tasks is 144 KB.
const maxBatch = 1024

// taskDim and taskPrecision shape the tasks the generator mints: a row of
// 16 floats, the payload the wire carries, and a mean precision of 50.
// Service times are drawn from the worker's rate, not from the precision.
const (
	taskDim       = 16
	taskPrecision = 50
)

// satAdd32 is q + k saturating at the top of uint32: no batch size can
// wrap a long gossiped queue into a short one.
func satAdd32(q uint32, k int) uint32 {
	return uint32(min(uint64(q)+uint64(k), math.MaxUint32))
}

// admit takes one arrival into the system: route it against the live
// view (with the optimistic bump), mint its tasks into rows carved from
// the chosen worker's slab (carveRow), publish their arrival record on the
// telemetry ring, and append them to that worker's pending bundle.
// Nothing reaches the wire until flush, so the consumer applies every
// task's arrival before anything a worker reports about it. now is the
// arrival's instant on the virtual clock; the caller holds admitMu.
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
		c.pending[node] = append(c.pending[node], c.gen.NextInto(c.carveRow(node)))
	}
	c.noteArrived(node, c.pending[node][first:], now)
	atomic.AddInt64(&c.injected, int64(batch))
	return node, nil
}

// carveRow returns the next row of worker node's slab for admit to mint
// into, capacity-clipped so no row reaches its neighbour. A slab holds one
// bundleCap bundle's rows; one that is full — a worker's first bundle, or
// a batch that overflows the bundle — is replaced by a fresh one, and the
// rows already carved keep the old one alive until their flush. So no
// slab outgrows the cap's size, and the one a worker keeps is reused by
// every flush after. The caller holds admitMu.
//
//churnlb:hotpath
func (c *run) carveRow(node int) []float64 {
	s := c.slabs[node]
	if cap(s)-len(s) < taskDim {
		s = newSlab()
	}
	n := len(s)
	c.slabs[node] = s[:n+taskDim]
	return s[n : n+taskDim : n+taskDim]
}

// slabFloats is one row slab: a full bundle's rows.
const slabFloats = bundleCap * taskDim

// newSlab allocates a row slab. It is off the hot path: a worker's first
// bundle calls it, and after that only a batch that overflows a bundle.
func newSlab() []float64 { return make([]float64, 0, slabFloats) }

// flush ships worker node's pending bundle, if any, as one task frame.
// A failed send is the point where tasks can go missing, so the bundle is
// declared lost there. Once SendTasks returns the transport has encoded
// or copied what it keeps (the Transport contract), so the bundle's slice
// and its rows' slab are reset for the next bundle. The caller holds
// admitMu.
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
	clear(bundle) // drop the rows of an overflowed slab
	c.pending[node] = bundle[:0]
	c.slabs[node] = c.slabs[node][:0]
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
// the run would hang to MaxWall. One record per task: a failed send is
// rare, and the consumer counts only the tasks still on the books.
func (c *run) declareLost(tasks []workload.Task, inFlight bool) {
	now := c.now()
	for _, task := range tasks {
		c.tel.put(record{kind: recLost, id: task.ID, t: now, inFlight: inFlight})
	}
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
			if c.flushAll() != nil {
				break
			}
			if out := c.preciseWait(timer, d, c.opt.Interrupt); out != sleptFull {
				// The wait is where a paced run meets a signal: record
				// the cut here, as interruptFired does at the loop's top.
				if out == sleepInterrupted {
					c.interrupted.Store(true)
				}
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
	c.tel.put(record{kind: recClosed})
}

// --- telemetry hooks: each publishes one record on the ring (tel.go),
// whose consumer applies it, and none waits unless the ring is full. A
// task's life is its share of one arrival record and its completion
// record; a failure interrupt adds a third. ---

// noteArrived records the admission of tasks, consecutive IDs minted
// together, to node at t.
//
//churnlb:hotpath
func (c *run) noteArrived(node int, tasks []workload.Task, t float64) {
	var first uint64
	if len(tasks) > 0 {
		first = tasks[0].ID
	}
	c.tel.put(record{kind: recArrived, node: int32(node), n: int32(len(tasks)), id: first, t: t})
}

// noteInterrupted stamps the paced start of a task's first service
// attempt into its record when a failure cuts that attempt short.
func (c *run) noteInterrupted(id uint64, started float64) {
	c.tel.put(record{kind: recInterrupted, id: id, t0: started})
}

// noteCompleted records a completion at the paced instant done whose
// (last) service attempt began at started.
//
//churnlb:hotpath
func (c *run) noteCompleted(node int, id uint64, started, done float64) {
	c.tel.put(record{kind: recCompleted, node: int32(node), id: id, t0: started, t: done})
}

func (c *run) noteChurn(node int, up bool, t float64) {
	kind := recDown
	if up {
		kind = recUp
	}
	c.tel.put(record{kind: kind, node: int32(node), t: t})
}

func (c *run) noteTransferOut(from, to, tasks int) {
	c.tel.put(record{kind: recDeparted, node: int32(from), peer: int32(to), n: int32(tasks), t: c.now()})
}

func (c *run) noteTransferIn(node, tasks int, t float64) {
	c.tel.put(record{kind: recLanded, node: int32(node), n: int32(tasks), t: t})
}

// apply is the consumer's replay of one record into the collector and the
// in-system window, and the only place a task is counted as processed or
// lost: a task no longer on the books (declared lost after a send that
// delivered anyway) is executed but not counted, which keeps
// processed + lost == injected exact.
//
//churnlb:hotpath
func (c *run) apply(r *record) {
	node := int(r.node)
	switch r.kind {
	case recArrived:
		for id := r.id; id < r.id+uint64(r.n); id++ {
			c.inSystem.add(id, r.t)
		}
		c.col.TasksArrived(node, int(r.n), r.t)
	case recCompleted:
		m := c.inSystem.admitted(r.id)
		if m == nil {
			return
		}
		started := r.t0
		if m.firstService >= 0 {
			started = m.firstService
		}
		c.col.TaskCompleted(node, m.arrival, started, r.t)
		c.inSystem.remove(m)
		c.processed[node]++
		c.processedTotal.Add(1)
		c.maybeFinish()
	case recInterrupted:
		if m := c.inSystem.admitted(r.id); m != nil && m.firstService < 0 {
			m.firstService = r.t0
		}
	case recUp, recDown:
		c.col.NodeStateChanged(node, r.kind == recUp, r.t)
	case recDeparted:
		c.col.TransferDeparted(node, int(r.peer), int(r.n), r.t)
	case recLanded:
		c.col.TransferArrived(node, int(r.n), r.t)
	case recLost:
		if m := c.inSystem.admitted(r.id); m != nil {
			c.inSystem.remove(m)
			c.col.TasksLost(1, r.inFlight, r.t)
			c.lost.Add(1)
		}
		c.maybeFinish()
	case recClosed:
		c.maybeFinish()
	}
}
