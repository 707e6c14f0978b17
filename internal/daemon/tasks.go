package daemon

import (
	"fmt"
	"slices"

	"churnlb/internal/workload"
)

// taskQueue is a worker's FIFO backlog, kept as the bundles it arrived
// in: a push keeps the received slice instead of copying its tasks, and a
// pop walks the head bundle, so a queued task costs its own 40 bytes and
// row and nothing for queue growth.
type taskQueue struct {
	bundles [][]workload.Task // oldest first, none empty
	n       int               // tasks queued
}

func (q *taskQueue) len() int { return q.n }

// push appends a received bundle, which the queue now owns.
func (q *taskQueue) push(tasks []workload.Task) {
	if len(tasks) > 0 {
		q.bundles = append(q.bundles, tasks)
		q.n += len(tasks)
	}
}

// pop removes the head task; the queue must not be empty.
func (q *taskQueue) pop() workload.Task {
	b := q.bundles[0]
	t := b[0]
	b[0] = workload.Task{} // release the row
	if len(b) > 1 {
		q.bundles[0] = b[1:]
	} else {
		q.bundles[0] = nil
		q.bundles = q.bundles[1:]
	}
	q.n--
	return t
}

// unpop puts an interrupted task back at the head.
func (q *taskQueue) unpop(t workload.Task) {
	q.bundles = slices.Insert(q.bundles, 0, []workload.Task{t})
	q.n++
}

// takeTail detaches up to k tasks from the tail (the head may be in
// service), in queue order, into a slice of their own.
func (q *taskQueue) takeTail(k int) []workload.Task {
	k = min(k, q.n)
	if k <= 0 {
		return nil
	}
	out := make([]workload.Task, k)
	q.n -= k
	for k > 0 {
		last := len(q.bundles) - 1
		b := q.bundles[last]
		take := min(k, len(b))
		cut := len(b) - take
		copy(out[k-take:k], b[cut:])
		clear(b[cut:])
		k -= take
		if cut > 0 {
			q.bundles[last] = b[:cut]
		} else {
			q.bundles[last] = nil
			q.bundles = q.bundles[:last]
		}
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
	// first service attempt, which stamps that attempt's start; a task
	// that completes uninterrupted carries the instant in its appLoop
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
