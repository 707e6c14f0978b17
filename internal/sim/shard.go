// Domain-sharded realisation engine: one realisation scales with cores.
//
// The single-stream engine (Start/Run) is inherently sequential — every
// event draws from one random stream, so its exact realisation cannot be
// reproduced by any parallel schedule. This file adds a second engine
// with a decomposition designed for parallelism from the start:
//
//   - The cluster partitions into at most maxDomains contiguous *failure
//     domains*. The partition depends only on the cluster size — never on
//     Options.Shards or GOMAXPROCS — and each domain owns its slice of
//     the shared nodeHot array, its own des event queue, and its own
//     random stream derived from the caller's seed through the module's
//     one seed-mixing layout (xrand.MixSeed, the same finalizer serving
//     Monte-Carlo replications use), so stream consumption is stable
//     under any worker count.
//   - Domains advance in conservative time windows: every domain fires
//     its pending events strictly below the global horizon T+Δ, then all
//     domains barrier. Within a window domains are independent — a
//     domain's handlers touch only its own node range — so windows
//     execute on up to Shards worker goroutines.
//   - Cross-domain interactions (eq.-(8) failure-episode transfers and
//     routed external arrivals) never touch another domain's state
//     directly: they leave through per-domain outboxes and the barrier
//     exchanges them, sorting the merged batch by (delivery time, sender
//     domain, send order) and scheduling each message into its receiver's
//     queue — where the des (time, seq) tie rule, identical across queue
//     backends, fixes the processing order. Transfers whose drawn delay
//     lands inside the current window deliver at the boundary; external
//     arrivals deliver one window after their Poisson tick, preserving
//     the stream's exponential spacing exactly.
//   - External arrivals come from a *front door*: a pseudo-domain that
//     owns the Poisson clock, the wave thinning and the Router, routing
//     against a stale mirror of the hot array patched incrementally at
//     each barrier from per-domain dirty lists (and self-adjusted for the
//     arrivals it routed within the window), never the live array.
//   - Telemetry events buffer per domain and merge at each barrier — a
//     stable sort by time, domain index breaking ties — into the single
//     TaskObserver, which therefore sees one monotone stream exactly as
//     on the sequential engine.
//
// The payoff of quantising all cross-domain traffic to window boundaries
// — including between domains that happen to share a worker — is the
// determinism contract: a sharded realisation is a pure function of
// (seed, Params, serving options, window width), so every positive
// Shards value and every GOMAXPROCS yields the same result to the bit.
// Shards=1 *is* the sequential reference the differential suite compares
// against. A sharded realisation is a different — equally valid —
// realisation of the same stochastic process than a Shards=0 run, which
// keeps its historical stream layout and goldens.
package sim

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"churnlb/internal/des"
	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/xrand"
)

// maxDomains caps the fixed failure-domain partition. 16 keeps the
// barrier's per-window bookkeeping trivial while exceeding the core
// counts the simulator realistically runs on; because the partition is
// what determinism keys on, the cap is part of the sharded semantics and
// must not change without revalidating pinned results.
const maxDomains = 16

// shardWindowEvents sizes the default conservative window: Δ is chosen so
// the whole system fires about this many events per domain per window,
// amortising the barrier against real work while keeping the window small
// next to the service dynamics.
const shardWindowEvents = 2048

// shardMsg is one cross-domain batch in flight between windows: a
// failure-episode (or initial-balancing) transfer, or an external arrival
// routed by the front door (external = true). at is the intended delivery
// time; the barrier clamps it to the next window boundary.
type shardMsg struct {
	recs     []taskRec // per-task lifecycle records riding along (observed runs)
	at       float64
	to       int32
	tasks    int32
	external bool
}

// shardLink is the per-domain extension hanging off simState.shard: the
// domain's identity, its outbox and its dirty list. Fields — and the
// domain's flight table, which the barrier parks cross-domain batches in
// — split into two phases that never overlap in time: the window phase
// (domain worker only: outbox/dirty appends, sends and landings) and the
// barrier phase (coordinator only), with the window WaitGroup ordering
// the two, so nothing needs a lock.
type shardLink struct {
	// owner maps node → domain index; shared, read-only after setup.
	owner []int8
	// dirtyAt (shared, slot i written only by node i's owner) and epoch
	// implement the once-per-window dirty marking behind the front door's
	// mirror patches; both nil/unused when no router is installed.
	dirtyAt []uint32
	epoch   uint32
	self    int8
	lo, hi  int // this domain's node range [lo, hi)
	outbox  []shardMsg
	dirty   []int32
	// obuf buffers this domain's telemetry events for the barrier merge.
	obuf *obsBuffer
}

// --- buffered telemetry ---

// obsEvent is one buffered TaskObserver callback; kind selects which.
type obsEvent struct {
	t            float64
	arrival      float64 // TaskCompleted only
	firstService float64 // TaskCompleted only
	node         int32
	peer         int32 // TransferDeparted's destination
	count        int32
	kind         int8
	up           bool
}

const (
	obsArrive int8 = iota
	obsComplete
	obsState
	obsDepart
	obsXferArrive
)

// obsBuffer implements TaskObserver by recording callbacks for the
// barrier merge. Each domain appends in its own event order, so a
// buffer's times are nondecreasing and the merge is a stable sort.
type obsBuffer struct{ evs []obsEvent }

func (b *obsBuffer) TasksArrived(node, count int, t float64) {
	b.evs = append(b.evs, obsEvent{t: t, kind: obsArrive, node: int32(node), count: int32(count)})
}

func (b *obsBuffer) TaskCompleted(node int, arrival, firstService, completion float64) {
	b.evs = append(b.evs, obsEvent{t: completion, kind: obsComplete, node: int32(node), arrival: arrival, firstService: firstService})
}

func (b *obsBuffer) NodeStateChanged(node int, up bool, t float64) {
	b.evs = append(b.evs, obsEvent{t: t, kind: obsState, node: int32(node), up: up})
}

func (b *obsBuffer) TransferDeparted(from, to, tasks int, t float64) {
	b.evs = append(b.evs, obsEvent{t: t, kind: obsDepart, node: int32(from), peer: int32(to), count: int32(tasks)})
}

func (b *obsBuffer) TransferArrived(to, tasks int, t float64) {
	b.evs = append(b.evs, obsEvent{t: t, kind: obsXferArrive, node: int32(to), count: int32(tasks)})
}

// --- front door ---

// frontDoor is the arrival pseudo-domain: it owns the Poisson clock, the
// sinusoidal thinning and the Router, and it routes against mirror — a
// stale copy of the hot array frozen at the last barrier, self-adjusted
// for the arrivals it routes within the current window so consecutive
// decisions see each other's load. It implements model.StateView (and
// ScoreIndexed when the router registered an indexable score), so every
// production Router runs unmodified; InFlight reads 0, which no shipped
// router consults. Routed batches leave through outbox like any other
// cross-domain message and deliver one window after their tick.
type frontDoor struct {
	rng      *xrand.Rand
	router   policy.Router
	mirror   []nodeHot // nil when no router is installed (uniform routing)
	sidx     *scoreIndex
	scoreFn  policy.RouteScore
	p        model.Params
	wave     Wave
	peak     float64 // generation rate; thinning recovers rate(t)
	horizon  float64
	width    float64 // window width Δ; arrivals deliver at tick+Δ
	nextAt   float64
	cur      float64 // clock exposed through Time during a Route call
	batch    int
	open     bool
	outbox   []shardMsg
	arrivals int // accepted tasks — the run's ExternalArrivals counter
}

// Time implements model.StateView: the tick being routed.
func (fd *frontDoor) Time() float64 { return fd.cur }

// N implements model.StateView.
func (fd *frontDoor) N() int { return fd.p.N() }

// Queue implements model.StateView against the stale mirror.
//
//churnlb:hotpath
func (fd *frontDoor) Queue(i int) int { return int(fd.mirror[i].queue) }

// Up implements model.StateView against the stale mirror.
//
//churnlb:hotpath
func (fd *frontDoor) Up(i int) bool { return fd.mirror[i].up }

// InFlight implements model.StateView; the front door does not track
// flight, and no shipped router reads it.
func (fd *frontDoor) InFlight() int { return 0 }

// MinScoreNode implements model.ScoreIndexed over the mirror's index.
func (fd *frontDoor) MinScoreNode() (int, bool) {
	if fd.sidx == nil {
		return -1, false
	}
	return fd.sidx.min(), true
}

// step generates and routes every arrival tick strictly below the window
// horizon E, closing the door permanently once the next tick would reach
// the arrival horizon. Runs concurrently with the domain workers; it
// touches only front-door state.
//
//churnlb:hotpath
func (fd *frontDoor) step(E float64) {
	for fd.open {
		t := fd.nextAt
		if t >= fd.horizon {
			fd.open = false
			return
		}
		if t >= E {
			return
		}
		// Per-tick draw order mirrors the sequential engine: thinning,
		// then routing, then the next interarrival gap.
		accept := true
		if w := fd.wave; w.Period > 0 {
			a := (1 + w.Amplitude*math.Sin(2*math.Pi*t/w.Period)) / (1 + w.Amplitude)
			accept = fd.rng.Float64() < a
		}
		if accept {
			var node int
			if fd.router != nil {
				fd.cur = t
				node = fd.router.Route(fd, fd.p, fd.rng)
				if node < 0 || node >= fd.p.N() {
					panic(fmt.Sprintf("sim: router %s returned invalid node %d", fd.router.Name(), node))
				}
				// Self-adjust: later ticks this window see this batch.
				m := &fd.mirror[node]
				m.queue += int32(fd.batch)
				if fd.sidx != nil {
					fd.sidx.set(node, fd.scoreFn(node, int(m.queue), m.up))
				}
			} else {
				node = fd.rng.Intn(fd.p.N())
			}
			fd.outbox = append(fd.outbox, shardMsg{
				at:       t + fd.width,
				to:       int32(node),
				tasks:    int32(fd.batch),
				external: true,
			})
			fd.arrivals += fd.batch
		}
		fd.nextAt = t + fd.rng.Exp(fd.peak)
	}
}

// patch refreshes the mirror entry of one dirty node from the (now
// quiescent) hot array. Coordinator-only, between windows.
func (fd *frontDoor) patch(hot []nodeHot, i int32) {
	m := &fd.mirror[i]
	m.queue = hot[i].queue
	m.up = hot[i].up
	if fd.sidx != nil {
		fd.sidx.set(int(i), fd.scoreFn(int(i), int(m.queue), m.up))
	}
}

// --- coordinator ---

// Sharded is one in-progress domain-sharded realisation, exposing the
// same driver surface as Realisation — Done, ProcessNext, Finish — with
// one difference of grain: ProcessNext advances one conservative window
// (every domain to the next barrier), not one event. Single-use: drive it
// to Done and call Finish once. The coordinator itself is single-goroutine;
// the worker fan-out inside a window is invisible to the caller.
type Sharded struct {
	opt     Options
	doms    []*simState
	links   []*shardLink
	fd      *frontDoor
	hot     []nodeHot
	obs     TaskObserver // the caller's observer; domains buffer into links
	obuf    []obsEvent   // barrier merge scratch
	msgBuf  []shardMsg   // barrier exchange scratch
	width   float64
	now     float64 // last completed barrier boundary
	m       int64   // completed window count; boundary m sits at m·width
	epoch   uint32
	workers int
	done    bool
	// balTransfers/balTasks count the coordinator's own initial-balancing
	// sends (domain counters only cover in-window sends).
	balTransfers, balTasks int
	processed              []int
}

// StartSharded validates opt and builds a sharded realisation: the fixed
// domain partition, per-domain schedulers and rng streams, the front
// door, and the t=0 state (initial load, initial balancing applied from
// the coordinator's dedicated stream). Gates beyond the shared option
// validation: Trace and DecisionSink are rejected (both demand one
// globally ordered stream of per-event snapshots — antithetical to
// windowed execution), as are policies whose failure episodes or
// per-arrival balancing read cluster-wide state mid-window (anything
// neither a FailurePlanner nor episode-inert, and any ArrivalBalancer).
// LazyChurn is silently ignored: domains always run eager timers.
func StartSharded(opt Options) (*Sharded, error) {
	if opt.Shards < 1 {
		return nil, fmt.Errorf("sim: StartSharded needs Shards >= 1, got %d", opt.Shards)
	}
	n, err := validateOptions(&opt)
	if err != nil {
		return nil, err
	}
	if opt.Trace {
		return nil, fmt.Errorf("sim: Trace is not supported on the sharded engine")
	}
	if opt.DecisionSink != nil {
		return nil, fmt.Errorf("sim: DecisionSink is not supported on the sharded engine")
	}
	if len(opt.ArrivalTrace) > 0 {
		// The front door draws arrival times domain-locally from thinned
		// Poisson streams; an explicit recorded schedule has no per-domain
		// decomposition, so trace replay stays on the sequential engine.
		return nil, fmt.Errorf("sim: ArrivalTrace is not supported on the sharded engine")
	}
	if _, ok := opt.Policy.(policy.ArrivalBalancer); ok {
		return nil, fmt.Errorf("sim: policy %s is not shardable: per-arrival balancing reads cluster-wide state mid-window", opt.Policy.Name())
	}
	var plan *policy.FailurePlan
	if fp, ok := opt.Policy.(policy.FailurePlanner); ok {
		if opt.FailurePlan != nil {
			plan = opt.FailurePlan
		} else {
			plan = fp.FailurePlan(opt.Params)
		}
	} else {
		switch opt.Policy.(type) {
		case policy.NoBalance, policy.LBP1, policy.LBP1Multi:
			// Episode-inert: OnFailure statically returns nil, so domains
			// may skip the call without observing anything.
		default:
			return nil, fmt.Errorf("sim: policy %s is not shardable: failure episodes would read cross-domain state (need a FailurePlanner or an episode-inert policy)", opt.Policy.Name())
		}
	}

	nd := n
	if nd > maxDomains {
		nd = maxDomains
	}
	width := opt.ShardWindow
	if width <= 0 {
		width = defaultShardWindow(&opt, nd)
	}

	// One draw from the caller's stream seeds every derived stream:
	// domain d mixes index d, the front door index nd, the coordinator's
	// initial balancing index nd+1 — disjoint from every domain for any
	// cluster size, and independent of Shards.
	base := opt.Rand.Uint64()

	hot := make([]nodeHot, n)
	processed := make([]int, n)
	owner := make([]int8, n)
	var dirtyAt []uint32
	if opt.Router != nil {
		dirtyAt = make([]uint32, n)
	}
	for i := 0; i < n; i++ {
		hot[i].queue = int32(opt.InitialLoad[i])
		hot[i].up = opt.InitialUp == nil || opt.InitialUp[i]
	}
	var taskq []taskQueue
	if opt.TaskObserver != nil {
		taskq = make([]taskQueue, n)
		for i := range hot {
			q := int(hot[i].queue)
			for t := 0; t < q; t++ {
				taskq[i].push(taskRec{arrival: 0, firstService: -1})
			}
			if q > 0 {
				opt.TaskObserver.TasksArrived(i, q, 0)
			}
			if !hot[i].up {
				opt.TaskObserver.NodeStateChanged(i, false, 0)
			}
		}
	}

	c := &Sharded{
		opt:       opt,
		doms:      make([]*simState, nd),
		links:     make([]*shardLink, nd),
		hot:       hot,
		obs:       opt.TaskObserver,
		width:     width,
		epoch:     1,
		workers:   opt.Shards,
		processed: processed,
	}
	for d := 0; d < nd; d++ {
		lo, hi := d*n/nd, (d+1)*n/nd
		for i := lo; i < hi; i++ {
			owner[i] = int8(d)
		}
		link := &shardLink{
			owner:   owner,
			dirtyAt: dirtyAt,
			epoch:   c.epoch,
			self:    int8(d),
			lo:      lo,
			hi:      hi,
		}
		dopt := opt
		dopt.Rand = nil
		dopt.Router = nil
		dopt.TaskObserver = nil
		dopt.DecisionSink = nil
		dopt.Trace = false
		dopt.LazyChurn = false
		dopt.ArrivalRate = 0
		dopt.Shards = 0
		s := &simState{
			opt:   dopt,
			p:     opt.Params,
			sched: des.NewWithQueue(queueFor(hi - lo)),
			rng:   xrand.New(xrand.MixSeed(base, d)),
			hot:   hot,
			res:   &Result{Processed: processed},
			fplan: plan,
			shard: link,
		}
		s.sched.SetDispatcher(s.dispatch)
		s.live = &liveView{s}
		if opt.TaskObserver != nil {
			link.obuf = &obsBuffer{}
			s.obs = link.obuf
			s.taskq = taskq
		}
		c.doms[d] = s
		c.links[d] = link
	}

	// Initial balancing: the coordinator applies the policy's t=0 plan
	// against a snapshot, drawing delays from its dedicated stream and
	// parking every batch as a pending delivery in its receiver — all
	// before any domain stream is touched, so the layout is shard-stable.
	c.applyInitial(opt.Policy.Initial(snapshotOf(hot), opt.Params), xrand.New(xrand.MixSeed(base, nd+1)))

	// Arm per-node processes and settle per-domain accounting. The stream
	// order within a domain — completion then failure draw, in node order
	// — is fixed by the partition, not by Shards.
	for d := 0; d < nd; d++ {
		s := c.doms[d]
		link := c.links[d]
		for i := link.lo; i < link.hi; i++ {
			if hot[i].up {
				s.scheduleCompletion(i)
				s.scheduleFailure(i)
			} else {
				s.scheduleRecovery(i)
			}
		}
		for i := link.lo; i < link.hi; i++ {
			s.remaining += int(hot[i].queue)
		}
	}

	if opt.ArrivalRate > 0 {
		fd := &frontDoor{
			rng:     xrand.New(xrand.MixSeed(base, nd)),
			router:  opt.Router,
			p:       opt.Params,
			wave:    opt.ArrivalWave,
			peak:    opt.ArrivalRate,
			horizon: opt.ArrivalHorizon,
			width:   width,
			batch:   opt.ArrivalBatch,
			open:    true,
		}
		if fd.batch <= 0 {
			fd.batch = 1
		}
		if opt.ArrivalWave.Period > 0 {
			fd.peak *= 1 + opt.ArrivalWave.Amplitude
		}
		if opt.Router != nil {
			fd.mirror = append([]nodeHot(nil), hot...)
			if ir, ok := opt.Router.(policy.IndexedRouter); ok {
				if fn := ir.RouteScore(opt.Params); fn != nil {
					fd.scoreFn = fn
					fd.sidx = newScoreIndex(fd.mirror)
					for i := 0; i < n; i++ {
						fd.sidx.set(i, fn(i, int(fd.mirror[i].queue), fd.mirror[i].up))
					}
				}
			}
		}
		fd.nextAt = fd.rng.Exp(fd.peak)
		c.fd = fd
	}

	// A workload-free run terminates before its first window, exactly as
	// the sequential engine's Done is true before its first event.
	c.done = c.drained()
	return c, nil
}

// snapshotOf materializes a retainable t=0 view for the initial-balancing
// policy call.
func snapshotOf(hot []nodeHot) model.StateView {
	st := model.State{Queues: make([]int, len(hot)), Up: make([]bool, len(hot))}
	for i := range hot {
		st.Queues[i] = int(hot[i].queue)
		st.Up[i] = hot[i].up
	}
	return model.SnapshotView{State: st}
}

// applyInitial executes the policy's t=0 transfers from the coordinator:
// sender queues decrement immediately (all before arming, so no
// completion restarts are needed) and every batch parks as a pending
// delivery in its receiver's queue at its true drawn delay — initial
// transfers are not window-quantised because no window has started.
func (c *Sharded) applyInitial(ts []model.Transfer, rng *xrand.Rand) {
	for _, tr := range ts {
		if tr.Tasks <= 0 {
			continue
		}
		if tr.From < 0 || tr.From >= len(c.hot) || tr.To < 0 || tr.To >= len(c.hot) || tr.From == tr.To {
			panic(fmt.Sprintf("sim: invalid transfer %+v", tr))
		}
		from := &c.hot[tr.From]
		if tr.Tasks > int(from.queue) {
			tr.Tasks = int(from.queue)
		}
		if tr.Tasks == 0 {
			continue
		}
		from.queue -= int32(tr.Tasks)
		var recs []taskRec
		if c.obs != nil {
			src := c.doms[c.links[0].owner[tr.From]]
			recs = src.taskq[tr.From].takeTail(tr.Tasks)
			c.obs.TransferDeparted(tr.From, tr.To, tr.Tasks, 0)
		}
		c.balTransfers++
		c.balTasks += tr.Tasks
		delay := c.opt.TransferMode.Delay(rng, c.opt.Params.DelayPerTask, tr.Tasks)
		dst := c.doms[c.links[0].owner[tr.To]]
		dst.park(delay, flight{to: int32(tr.To), tasks: int32(tr.Tasks)}, recs)
		dst.remaining += tr.Tasks
		dst.inFlight += tr.Tasks
	}
}

// defaultShardWindow derives the conservative window width Δ as a pure
// function of the option set: the total event rate R (service + churn +
// peak arrivals) fires about R·Δ events per window, sized to
// shardWindowEvents per domain, and a serving run additionally caps Δ at
// a small fraction of the horizon so short runs still window. Because
// replaying a manifest rebuilds the same options, it rebuilds the same
// Δ — and with it the same realisation.
func defaultShardWindow(opt *Options, nd int) float64 {
	p := opt.Params
	r := 0.0
	for i := 0; i < p.N(); i++ {
		r += p.ProcRate[i] + p.FailRate[i] + p.RecRate[i]
	}
	if opt.ArrivalRate > 0 {
		r += opt.ArrivalRate * (1 + opt.ArrivalWave.Amplitude)
	}
	w := shardWindowEvents * float64(nd) / r
	if opt.ArrivalHorizon > 0 && w > opt.ArrivalHorizon/64 {
		w = opt.ArrivalHorizon / 64
	}
	if !(w > 0) || math.IsInf(w, 1) {
		w = 1
	}
	return w
}

// Done reports the coordinator's termination predicate: the workload
// drained across every domain with the front door closed, or MaxTime was
// reached (at window granularity).
func (c *Sharded) Done() bool { return c.done }

// Now returns the last completed window boundary — the coordinator's
// conservative global clock (every domain has fired all events strictly
// below it).
func (c *Sharded) Now() float64 { return c.now }

// HasPending reports whether any domain holds a scheduled event or the
// front door is still open.
func (c *Sharded) HasPending() bool {
	if c.fd != nil && c.fd.open {
		return true
	}
	for _, s := range c.doms {
		if s.sched.HasPending() {
			return true
		}
	}
	return false
}

// PeekNextTime returns the earliest pending event time across every
// domain and the front door's next tick; ok is false when nothing is
// pending anywhere.
func (c *Sharded) PeekNextTime() (float64, bool) {
	t, ok := math.Inf(1), false
	for _, s := range c.doms {
		if dt, dok := s.sched.PeekNextTime(); dok && dt < t {
			t, ok = dt, true
		}
	}
	if c.fd != nil && c.fd.open && c.fd.nextAt < t {
		t, ok = c.fd.nextAt, true
	}
	return t, ok
}

// ProcessNext advances one conservative window: every domain (and the
// front door) steps to the next boundary on the worker pool, then the
// barrier exchanges mailboxes, merges telemetry, patches the router
// mirror and re-evaluates termination. Returns false once nothing is
// pending.
func (c *Sharded) ProcessNext() bool {
	if c.done || !c.HasPending() {
		return false
	}
	boundary := float64(c.m+1) * c.width
	c.runWindow(boundary)
	c.m++
	c.now = boundary
	c.barrier(boundary)
	return true
}

// runWindow fires every event strictly below the boundary, fanning the
// fixed domain partition (plus the front door) out over up to
// Options.Shards workers. Which worker runs which domain is immaterial:
// domains touch disjoint state and communicate only through their own
// outboxes, so the atomic work counter cannot affect the result.
func (c *Sharded) runWindow(boundary float64) {
	nd := len(c.doms)
	tasks := nd
	if c.fd != nil {
		tasks++
	}
	w := c.workers
	if w > tasks {
		w = tasks
	}
	if w <= 1 {
		for d := 0; d < nd; d++ {
			c.stepDomain(d, boundary)
		}
		if c.fd != nil {
			c.fd.step(boundary)
		}
		return
	}
	var next int32
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for {
				t := int(atomic.AddInt32(&next, 1)) - 1
				if t >= tasks {
					return
				}
				if t < nd {
					c.stepDomain(t, boundary)
				} else {
					c.fd.step(boundary)
				}
			}
		}()
	}
	wg.Wait()
}

// stepDomain fires one domain's events strictly below the boundary.
//
//churnlb:hotpath
func (c *Sharded) stepDomain(d int, boundary float64) {
	s := c.doms[d]
	for {
		t, ok := s.sched.PeekNextTime()
		if !ok || t >= boundary {
			return
		}
		s.sched.ProcessNext()
	}
}

// barrier is the coordinator's between-window phase: exchange outboxes
// (deterministically ordered), merge buffered telemetry into the real
// observer, patch the front door's mirror from the dirty lists, check
// termination, and fast-forward over empty windows.
func (c *Sharded) barrier(boundary float64) {
	// 1. Exchange. Concatenating domain outboxes in domain order and
	// stable-sorting by delivery time realises the (time, sender domain,
	// send order) merge rule; scheduling in that order hands the des
	// (time, seq) tie-break an identical sequence for every Shards value.
	c.msgBuf = c.msgBuf[:0]
	for _, link := range c.links {
		for _, msg := range link.outbox {
			if msg.at < boundary {
				msg.at = boundary
			}
			c.msgBuf = append(c.msgBuf, msg)
		}
		link.outbox = link.outbox[:0]
	}
	if c.fd != nil {
		for _, msg := range c.fd.outbox {
			if msg.at < boundary {
				msg.at = boundary
			}
			c.msgBuf = append(c.msgBuf, msg)
		}
		c.fd.outbox = c.fd.outbox[:0]
	}
	sort.SliceStable(c.msgBuf, func(i, j int) bool { return c.msgBuf[i].at < c.msgBuf[j].at })
	owner := c.links[0].owner
	for _, msg := range c.msgBuf {
		dst := c.doms[owner[msg.to]]
		f := flight{to: msg.to, tasks: msg.tasks}
		if msg.external {
			f.to = ^f.to
		}
		dst.park(msg.at, f, msg.recs)
		dst.remaining += int(msg.tasks)
		dst.inFlight += int(msg.tasks)
	}

	// 2. Telemetry merge: one monotone stream for the caller's observer.
	if c.obs != nil {
		c.obuf = c.obuf[:0]
		for _, link := range c.links {
			c.obuf = append(c.obuf, link.obuf.evs...)
			link.obuf.evs = link.obuf.evs[:0]
		}
		sort.SliceStable(c.obuf, func(i, j int) bool { return c.obuf[i].t < c.obuf[j].t })
		for i := range c.obuf {
			e := &c.obuf[i]
			switch e.kind {
			case obsArrive:
				c.obs.TasksArrived(int(e.node), int(e.count), e.t)
			case obsComplete:
				c.obs.TaskCompleted(int(e.node), e.arrival, e.firstService, e.t)
			case obsState:
				c.obs.NodeStateChanged(int(e.node), e.up, e.t)
			case obsDepart:
				c.obs.TransferDeparted(int(e.node), int(e.peer), int(e.count), e.t)
			default:
				c.obs.TransferArrived(int(e.node), int(e.count), e.t)
			}
		}
	}

	// 3. Mirror patches, in domain order then dirty order — both fixed by
	// the partition, so the mirror (and every routing decision reading
	// it) is Shards-invariant.
	if c.fd != nil && c.fd.mirror != nil {
		for _, link := range c.links {
			for _, i := range link.dirty {
				c.fd.patch(c.hot, i)
			}
			link.dirty = link.dirty[:0]
		}
		c.epoch++
		for _, link := range c.links {
			link.epoch = c.epoch
		}
	}

	// 4. Termination — after the exchange, so parked deliveries are
	// already counted in their receivers' remaining.
	if c.drained() {
		c.done = true
		return
	}
	if c.opt.MaxTime > 0 && c.now >= c.opt.MaxTime {
		c.done = true
		return
	}

	// 5. Fast-forward across windows with no events: jump the window
	// counter to the one holding the earliest pending time. Purely an
	// optimisation for sparse schedules — the boundary lattice m·Δ (and
	// the jump itself, computed from the global minimum) is identical for
	// every Shards value.
	if t, ok := c.PeekNextTime(); ok {
		if jump := int64(t / c.width); jump > c.m {
			c.m = jump
			c.now = float64(c.m) * c.width
		}
	}
}

// drained reports whether every domain's workload (queued plus parked
// in-flight) is zero and the front door can admit no more work.
func (c *Sharded) drained() bool {
	if c.fd != nil && c.fd.open {
		return false
	}
	for _, s := range c.doms {
		if s.remaining != 0 {
			return false
		}
	}
	return true
}

// Finish closes the realisation and aggregates the Result: counters sum
// across domains (plus the coordinator's initial balancing and the front
// door's arrivals) and the completion time is the latest instant any
// domain drained — the global drain, since a domain that shipped its
// last tasks away hands the clock to their receiver.
func (c *Sharded) Finish() (*Result, error) {
	remaining := 0
	for _, s := range c.doms {
		remaining += s.remaining
	}
	if c.opt.MaxTime > 0 && remaining > 0 {
		return nil, fmt.Errorf("sim: aborted at MaxTime=%v with %d tasks remaining", c.opt.MaxTime, remaining)
	}
	res := &Result{
		Processed:        c.processed,
		TransfersSent:    c.balTransfers,
		TasksTransferred: c.balTasks,
	}
	for _, s := range c.doms {
		res.Failures += s.res.Failures
		res.Recoveries += s.res.Recoveries
		res.TransfersSent += s.res.TransfersSent
		res.TasksTransferred += s.res.TasksTransferred
		if s.drainTime > res.CompletionTime {
			res.CompletionTime = s.drainTime
		}
	}
	if c.fd != nil {
		res.ExternalArrivals = c.fd.arrivals
	}
	return res, nil
}

// RunSharded executes one sharded realisation end to end: StartSharded, a
// loop over the window primitive, Finish. Options.Shards picks the worker
// count; the result is identical for every positive value.
func RunSharded(opt Options) (*Result, error) {
	c, err := StartSharded(opt)
	if err != nil {
		return nil, err
	}
	for !c.Done() {
		if !c.ProcessNext() {
			break
		}
	}
	return c.Finish()
}
