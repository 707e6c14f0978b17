package sim

import (
	"math"
	"slices"

	"churnlb/internal/model"
)

// TaskObserver receives what happens in a running realisation, node by
// node: tasks joining, finishing and leaving queues, and nodes going up and
// down — the telemetry hook behind the open-system serving layer. The
// simulator reports events only and keeps no per-task records; a Ledger
// rebuilds each task's arrival and first service from this stream, wherever
// the observer chooses to run it (internal/serve runs it on its telemetry
// goroutine). The hook is strictly opt-in: with Options.TaskObserver nil the
// simulator calls nothing, and either way it consumes exactly the same
// random stream and fires exactly the same events, so fixed-seed
// realisations stay bit-identical to the closed-model simulator.
//
// Every queue is first-in first-out: a node serves the task at its front,
// arrivals and landings join at the back, and a transfer ships the tasks
// at the back. All methods are invoked from the single simulation
// goroutine, in event order, with non-decreasing timestamps.
// Implementations must not call back into the simulator.
type TaskObserver interface {
	// TasksArrived reports count tasks joining node's queue at time t:
	// the initial load at t = 0, before Armed, and every external arrival
	// batch, after it. Each call after Armed is exactly one routing
	// decision: the router (or the uniform draw) chose node for this batch
	// over the state the stream has described so far, so an observer that
	// mirrors the stream (a Ledger's View) holds, at this call and before
	// applying it, the view the router decided on.
	TasksArrived(node, count int, t float64)
	// TaskCompleted reports node finishing the task at the front of its
	// queue at time t.
	TaskCompleted(node int, t float64)
	// NodeStateChanged reports node going up or down at time t, including
	// nodes that start down at t = 0.
	NodeStateChanged(node int, up bool, t float64)
	// TransferDeparted reports the last tasks of from's queue leaving for
	// to's at time t as batch flight: an id no other batch in flight holds,
	// which TransferArrived repeats when the batch lands. Batches to one
	// node may land in any order.
	TransferDeparted(from, to, tasks, flight int, t float64)
	// TransferArrived reports batch flight's tasks landing at the back of
	// to's queue at time t; its id is free for the next departure.
	TransferArrived(to, tasks, flight int, t float64)
	// Armed reports, once per run, that the run has armed every node at time
	// t: from here on every up node holding tasks serves its front one.
	// Before it come the t = 0 load, the nodes that start down and the
	// t = 0 balance.
	Armed(t float64)
}

// TaskSink receives a realisation's per-task records: a TaskObserver's
// stream in which every completion carries the task's arrival and first
// service. A Ledger produces it; internal/metrics' Collector consumes it.
type TaskSink interface {
	// TasksArrived reports count tasks joining node's queue at time t.
	TasksArrived(node, count int, t float64)
	// TaskCompleted reports one task finishing at node. arrival is the
	// instant the task entered the system, firstService the instant its
	// service first began (-1 if it completed without an observed service
	// start), completion the current time. Sojourn time is
	// completion-arrival; waiting time firstService-arrival.
	TaskCompleted(node int, arrival, firstService, completion float64)
	// NodeStateChanged reports node going up or down at time t.
	NodeStateChanged(node int, up bool, t float64)
	// TransferDeparted reports tasks leaving from's queue for to's at
	// time t (they are in flight until TransferArrived).
	TransferDeparted(from, to, tasks int, t float64)
	// TransferArrived reports tasks landing in to's queue at time t.
	TransferArrived(to, tasks int, t float64)
}

// Ledger is the TaskObserver that rebuilds per-task records: it mirrors
// every queue with one 8-byte slot per task, stamps each task's first
// service, and hands the stream on to a TaskSink with every completion
// carrying its task's arrival and first service.
//
// The stamp rule is the simulator's: a node restarts service, and stamps
// the task it starts, whenever its front may have changed while it is up —
// a completion, a recovery, work joining an empty queue, a departure (the
// sender serves what it keeps) and the arming of every node. So after
// each call the ledger stamps the front of the node the call touched if
// that node is up, holds tasks and its front has none — except that an
// arrival stamps only a queue it found empty, and none before Armed. Tasks
// joining behind a front change nothing in service, and by the rule an up
// node's front already has its stamp (which saves reading the front of a
// long queue). A run reports the t = 0 load before it arms any node and
// applies its t = 0 balance in between, so a node that starts down is
// first stamped when it recovers, and a t = 0 transfer that takes a
// sender's whole queue ships its front unstamped.
//
// Where the stamps live: the rule only ever stamps a queue's front, so a
// queued task's slot holds its arrival's bits alone and the stamp of each
// queue's front task is its node's, in front. A task leaves the front by
// completing, or with a transfer that takes its sender's whole queue; that
// transfer is the only way a stamp travels. Its front, if stamped, is
// boxed: the slot becomes boxTag plus the index of an entry of boxes
// holding the task's arrival and stamp, which the completion of the task
// frees for the next box. A boxed task sets its node's front when it
// reaches the front of a queue, and a boxed front shipped again stays the
// one box. No arrival is NaN (the simulator refuses non-finite times) and
// every slot from boxTag up is one, so a slot is a box exactly when it is
// at least boxTag.
//
// A Ledger serves one realisation from one goroutine. Its memory comes
// from the ledger the last Release parked, the way a realisation's comes
// from the last finished one's (see the package comment).
type Ledger struct {
	sink TaskSink
	// q mirrors each node's queue, front holds the first-service stamp of
	// its front task (-1 until served; stale while the queue is empty) and
	// down its state (false: up).
	q     []taskQueue
	front []float64
	down  []bool
	// boxes holds the boxed tasks' records, and free the indices of its
	// vacant entries.
	boxes []taskRec
	free  []uint64
	// flights holds the slots riding each flight id; a row keeps its
	// backing array for the next batch that takes the id. inFlight counts
	// the tasks riding them.
	flights  [][]uint64
	inFlight int
	armed    bool
	// now is the time View was last asked for.
	now float64
}

// boxTag is the first slot that is a box: the bits of a negative quiet
// NaN, which no arrival time is.
const boxTag = 0xfff8 << 48

// NewLedger returns a ledger for a realisation of n nodes that feeds sink.
func NewLedger(n int, sink TaskSink) *Ledger {
	l := idleLedgers.take()
	l.sink = sink
	l.q = emptied(l.q, n)
	l.front = slices.Grow(l.front[:0], n)[:n]
	l.down = slices.Grow(l.down[:0], n)[:n]
	clear(l.down)
	l.boxes, l.free = l.boxes[:0], l.free[:0]
	l.inFlight, l.armed = 0, false
	return &l
}

// Release parks the ledger's memory for the next NewLedger; the ledger is
// unusable afterwards.
func (l *Ledger) Release() {
	l.sink = nil
	idleLedgers.put(*l)
	*l = Ledger{}
}

// TasksArrived implements TaskObserver.
//
//churnlb:hotpath
func (l *Ledger) TasksArrived(node, count int, t float64) {
	q := &l.q[node]
	idle := q.len() == 0
	a := math.Float64bits(t)
	for k := 0; k < count; k++ {
		q.push(a)
	}
	l.sink.TasksArrived(node, count, t)
	if idle {
		l.front[node] = -1
		if l.armed {
			l.stamp(node, t)
		}
	}
}

// TaskCompleted implements TaskObserver.
//
//churnlb:hotpath
func (l *Ledger) TaskCompleted(node int, t float64) {
	q := &l.q[node]
	s := q.pop()
	arrival := math.Float64frombits(s)
	if s >= boxTag {
		arrival = l.boxes[s-boxTag].arrival
		l.free = append(l.free, s-boxTag)
	}
	l.sink.TaskCompleted(node, arrival, l.front[node], t)
	if q.len() > 0 {
		l.front[node] = l.stampOf(q.slots[q.head])
	}
	l.stamp(node, t)
}

// NodeStateChanged implements TaskObserver.
//
//churnlb:hotpath
func (l *Ledger) NodeStateChanged(node int, up bool, t float64) {
	l.down[node] = !up
	l.sink.NodeStateChanged(node, up, t)
	l.stamp(node, t)
}

// TransferDeparted implements TaskObserver.
//
//churnlb:hotpath
func (l *Ledger) TransferDeparted(from, to, tasks, flight int, t float64) {
	if flight >= len(l.flights) {
		l.growFlights(flight)
	}
	q := &l.q[from]
	if tasks == q.len() && l.front[from] >= 0 && q.slots[q.head] < boxTag {
		q.slots[q.head] = l.box(q.slots[q.head], l.front[from])
	}
	l.flights[flight] = q.takeTail(l.flights[flight][:0], tasks)
	l.inFlight += tasks
	l.sink.TransferDeparted(from, to, tasks, t)
	l.stamp(from, t)
}

// TransferArrived implements TaskObserver.
//
//churnlb:hotpath
func (l *Ledger) TransferArrived(to, tasks, flight int, t float64) {
	q := &l.q[to]
	batch := l.flights[flight]
	if q.len() == 0 {
		l.front[to] = l.stampOf(batch[0])
	}
	q.slots = append(q.slots, batch...)
	l.inFlight -= tasks
	l.sink.TransferArrived(to, tasks, t)
	l.stamp(to, t)
}

// Armed implements TaskObserver: every up node holding tasks starts
// serving its front.
func (l *Ledger) Armed(t float64) {
	l.armed = true
	for i := range l.q {
		l.stamp(i, t)
	}
}

// View returns the state the ledger mirrors as a model.StateView at time
// t: each node's queue and up/down state and the tasks in flight, as the
// stream so far has left them. Called with a TasksArrived's arguments
// before that call, after Armed, it is the view the router decided the
// arrival on (see TaskObserver). Like the simulator's own view it lives
// until the ledger's next call and must not be retained.
//
//churnlb:hotpath
func (l *Ledger) View(t float64) model.StateView {
	l.now = t
	return (*ledgerView)(l)
}

// ledgerView is the model.StateView View hands out.
type ledgerView Ledger

func (v *ledgerView) Time() float64   { return v.now }
func (v *ledgerView) N() int          { return len(v.q) }
func (v *ledgerView) Queue(i int) int { return v.q[i].len() }
func (v *ledgerView) Up(i int) bool   { return !v.down[i] }
func (v *ledgerView) InFlight() int   { return v.inFlight }

// stamp starts node i's front task at time t if the node is up, holds
// tasks and its front has not been served yet.
//
//churnlb:hotpath
func (l *Ledger) stamp(i int, t float64) {
	if !l.down[i] && l.q[i].len() > 0 && l.front[i] < 0 {
		l.front[i] = t
	}
}

// stampOf returns the first-service stamp slot s carries to a queue's
// front: a box's, or -1.
//
//churnlb:hotpath
func (l *Ledger) stampOf(s uint64) float64 {
	if s >= boxTag {
		return l.boxes[s-boxTag].firstService
	}
	return -1
}

// box returns the slot of a task whose arrival's bits are a and whose
// service first began at firstService, taking a vacant entry of boxes if
// there is one.
func (l *Ledger) box(a uint64, firstService float64) uint64 {
	rec := taskRec{arrival: math.Float64frombits(a), firstService: firstService}
	if n := len(l.free); n > 0 {
		i := l.free[n-1]
		l.free = l.free[:n-1]
		l.boxes[i] = rec
		return boxTag + i
	}
	l.boxes = append(l.boxes, rec)
	return boxTag + uint64(len(l.boxes)-1)
}

// growFlights extends the flight rows to cover id f.
func (l *Ledger) growFlights(f int) {
	l.flights = append(l.flights, make([][]uint64, f+1-len(l.flights))...)
}

// idleLedgers holds the memory of released ledgers.
var idleLedgers idleList[Ledger]

// taskRec is a boxed task's record in a Ledger: its arrival and the
// instant its service first began.
type taskRec struct {
	arrival      float64
	firstService float64
}

// taskQueue is a FIFO deque of slots mirroring one node's queue:
// completions pop the front (the task in service), transfers take from
// the back (the most recently queued tasks are the ones shipped).
// Amortised O(1) per operation.
type taskQueue struct {
	slots []uint64
	head  int
}

func (q *taskQueue) len() int { return len(q.slots) - q.head }

func (q *taskQueue) push(s uint64) { q.slots = append(q.slots, s) }

func (q *taskQueue) pop() uint64 {
	s := q.slots[q.head]
	q.head++
	// Reclaim the dead prefix once it dominates the backing array.
	if q.head > 64 && q.head*2 > len(q.slots) {
		n := copy(q.slots, q.slots[q.head:])
		q.slots = q.slots[:n]
		q.head = 0
	}
	return s
}

// takeTail removes the last k slots and appends them, in queue order, to
// dst.
func (q *taskQueue) takeTail(dst []uint64, k int) []uint64 {
	n := len(q.slots)
	dst = append(dst, q.slots[n-k:]...)
	q.slots = q.slots[:n-k]
	return dst
}

// emptied returns the task deques qs cut to n empty ones, each keeping
// its backing array, with new deques behind them when qs has held fewer
// nodes.
func emptied(qs []taskQueue, n int) []taskQueue {
	qs = qs[:cap(qs)]
	if len(qs) < n {
		qs = append(qs, make([]taskQueue, n-len(qs))...)
	}
	qs = qs[:n]
	for i := range qs {
		qs[i].slots, qs[i].head = qs[i].slots[:0], 0
	}
	return qs
}
