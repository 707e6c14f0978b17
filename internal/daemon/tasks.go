package daemon

import (
	"fmt"
	"slices"

	"churnlb/internal/cluster"
	"churnlb/internal/workload"
)

// taskQueue is a worker's FIFO backlog, kept as the bundles it arrived
// in: a push keeps the received bundle instead of copying its tasks, and a
// pop walks the head bundle, so a queued task costs its own 40 bytes and
// row and nothing for queue growth. Each bundle carries the virtual
// instant it reached the worker — a task's service cannot start before
// it — and every operation keeps that stamp with the bundle's tasks.
//
// The queue also owns the bundles' memory, which a NetTransport recycles
// (cluster.TaskBundle.Release). A bundle whose last task has left the
// queue is spent, and is released at the worker's next pop: by then the
// one server has finished that task or put it back, so no task taken from
// a bundle is in service when the bundle goes. The two exits by which a
// task leaves with its row still inside the bundle — unpop and takeTail,
// both on the failure path — copy the rows they move, so no queued,
// in-service or in-transfer row points into released memory.
type taskQueue struct {
	bundles []stampedBundle      // oldest first, none empty
	n       int                  // tasks queued
	spent   []cluster.TaskBundle // emptied since the last pop, not yet released
}

// stampedBundle is a bundle that reached the worker at virtual instant at;
// its Tasks are the ones still queued.
type stampedBundle struct {
	cluster.TaskBundle
	at float64
}

func (q *taskQueue) len() int { return q.n }

// push appends a bundle that reached the worker at virtual instant at; the
// queue now owns the bundle and releases it once spent.
func (q *taskQueue) push(b cluster.TaskBundle, at float64) {
	if len(b.Tasks) > 0 {
		q.bundles = append(q.bundles, stampedBundle{b, at})
		q.n += len(b.Tasks)
	} else {
		q.spent = append(q.spent, b)
	}
}

// pop releases the spent bundles, then removes the head task and returns
// it with the instant it reached the worker; the queue must not be empty.
// The task's row stays valid until the next pop.
func (q *taskQueue) pop() (workload.Task, float64) {
	for i := range q.spent {
		q.spent[i].Release()
		q.spent[i] = cluster.TaskBundle{}
	}
	q.spent = q.spent[:0]
	b := &q.bundles[0]
	t, at := b.Tasks[0], b.at
	b.Tasks[0] = workload.Task{} // release the row
	if len(b.Tasks) > 1 {
		b.Tasks = b.Tasks[1:]
	} else {
		q.spent = append(q.spent, b.TaskBundle)
		q.bundles[0] = stampedBundle{}
		q.bundles = q.bundles[1:]
	}
	q.n--
	return t, at
}

// unpop puts an interrupted task back at the head with the instant it
// reached the worker, on a copy of its row: the bundle it came from may be
// spent and released before the task is popped again.
func (q *taskQueue) unpop(t workload.Task, at float64) {
	t.Row = slices.Clone(t.Row)
	q.bundles = slices.Insert(q.bundles, 0, stampedBundle{cluster.TaskBundle{Tasks: []workload.Task{t}}, at})
	q.n++
}

// takeTail detaches up to k tasks from the tail (the head may be in
// service), in queue order, into a slice of their own with rows of their
// own: the detached tasks outlive the bundles they leave. The stamps are
// dropped: a transferred task is stamped again where it lands.
func (q *taskQueue) takeTail(k int) []workload.Task {
	k = min(k, q.n)
	if k <= 0 {
		return nil
	}
	out := make([]workload.Task, k)
	q.n -= k
	for k > 0 {
		last := len(q.bundles) - 1
		b := q.bundles[last].Tasks
		take := min(k, len(b))
		cut := len(b) - take
		copy(out[k-take:k], b[cut:])
		clear(b[cut:])
		k -= take
		if cut > 0 {
			q.bundles[last].Tasks = b[:cut]
		} else {
			q.spent = append(q.spent, q.bundles[last].TaskBundle)
			q.bundles[last] = stampedBundle{}
			q.bundles = q.bundles[:last]
		}
	}
	for i := range out {
		out[i].Row = slices.Clone(out[i].Row)
	}
	return out
}

// taskMeta is the telemetry record of one in-system task: 16 bytes, so
// the window over a deep backlog stays small.
type taskMeta struct {
	// arrival is the admission instant; negative marks a slot whose task
	// has left the system.
	arrival float64
	// firstService is negative unless a failure interrupted the task's
	// first service attempt, which stamps that attempt's paced start; a
	// task that completes uninterrupted carries the instant in its appLoop
	// instead.
	firstService float64
}

// taskWindow holds the records of the in-system tasks, indexed by task ID.
// The dispatcher's generator mints IDs sequentially, so the in-system set
// is a window [base, next) of the ID sequence with holes where tasks have
// already left: a power-of-two ring of values, no allocation per task and
// no hashing. The window is as long as the span from the oldest in-system
// task to the newest, which a task parked on a long-dead worker stretches
// — 16 bytes per task admitted meanwhile.
type taskWindow struct {
	base, next uint64
	buf        []taskMeta // ID i lives at buf[i&(len(buf)-1)]
}

func newTaskWindow() *taskWindow {
	return &taskWindow{buf: make([]taskMeta, 1024)}
}

// add registers the next task of the sequence.
//
//churnlb:hotpath
func (w *taskWindow) add(id uint64, arrival float64) {
	if w.base == w.next {
		w.base, w.next = id, id // empty window: the sequence (re)starts here
	}
	if id != w.next {
		panic(fmt.Sprintf("daemon: task ID %d registered out of sequence (want %d)", id, w.next))
	}
	if int(w.next-w.base) == len(w.buf) {
		w.grow()
	}
	w.buf[id&uint64(len(w.buf)-1)] = taskMeta{arrival: arrival, firstService: -1}
	w.next++
}

// grow doubles the ring, re-seating every slot of the window.
func (w *taskWindow) grow() {
	bigger := make([]taskMeta, 2*len(w.buf))
	for id := w.base; id < w.next; id++ {
		bigger[id&uint64(len(bigger)-1)] = w.buf[id&uint64(len(w.buf)-1)]
	}
	w.buf = bigger
}

// get returns the record of an in-system task, nil for any other ID.
//
//churnlb:hotpath
func (w *taskWindow) get(id uint64) *taskMeta {
	if id < w.base || id >= w.next {
		return nil
	}
	if m := &w.buf[id&uint64(len(w.buf)-1)]; m.arrival >= 0 {
		return m
	}
	return nil
}

// admitted is get for a telemetry record about task id, which the
// record's order guarantees was admitted: an ID the window has never
// registered is an ordering bug, and panics here rather than passing for a
// task declared lost, which would leave the run to hang to MaxWall.
//
//churnlb:hotpath
func (w *taskWindow) admitted(id uint64) *taskMeta {
	if id >= w.next {
		panic(fmt.Sprintf("daemon: telemetry for task %d, which was never admitted (next ID %d)", id, w.next))
	}
	return w.get(id)
}

// remove takes a task out of the system and slides the window's base past
// every hole at its front.
//
//churnlb:hotpath
func (w *taskWindow) remove(m *taskMeta) {
	m.arrival = -1
	for w.base < w.next && w.buf[w.base&uint64(len(w.buf)-1)].arrival < 0 {
		w.base++
	}
}
