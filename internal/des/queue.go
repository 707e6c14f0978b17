package des

import "fmt"

// EventQueue is the pending-event store behind a Scheduler: the pluggable
// part of the kernel. A backend orders live events by (time, seq) — time
// first, insertion sequence breaking ties — and every backend must produce
// the exact same pop order for the same push/remove history, so that a
// simulation driven by a deterministic random stream is bit-reproducible
// regardless of which backend runs it. That contract is checked by the
// differential tests in queue_diff_test.go, which replay identical
// schedules against every backend pair and demand identical fire order.
//
// The interface traffics in the package's pooled *event records, so
// backends live in this package; external callers pick one through
// QueueKind and NewWithQueue.
type EventQueue interface {
	// Push inserts a live event. The backend owns e.index until the event
	// is popped or removed.
	Push(e *event)
	// PopMin removes and returns the minimum event by (time, seq), or nil
	// when the queue is empty. The returned event has index -1.
	PopMin() *event
	// Remove deletes a live event in place (cancellation). The event must
	// currently be in the queue.
	Remove(e *event)
	// Len returns the number of live events.
	Len() int
	// PeekMin returns the minimum event by (time, seq) without removing it,
	// or nil when the queue is empty. It commits nothing a later Push could
	// invalidate, and a PopMin right after it pops the same event without
	// searching again.
	PeekMin() *event
	// drain empties the queue for Scheduler.Reset: every live event becomes
	// dead (index -1; a calendar record keeps a stale next until the
	// scheduler reissues it), the backend's arrays keep their capacity,
	// and every adaptive parameter returns to a fresh queue's value — so what is pushed afterwards pops in a fresh queue's
	// order at a fresh queue's cost, minus the allocations.
	drain()
}

// eventLess is the one total order every backend must realise: time
// first, insertion sequence as the tie-break.
func eventLess(a, b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// QueueKind selects an EventQueue backend for a Scheduler.
type QueueKind int

const (
	// QueueHeap is the binary event heap: O(log n) push/pop/remove, the
	// default and the reference backend.
	QueueHeap QueueKind = iota
	// QueueCalendar is the adaptive calendar queue (timer wheel with
	// dynamic bucket width): amortised O(1) push/pop/remove when event
	// times are locally dense, the regime of memoryless churn and
	// completion timers. Fire order is bit-identical to QueueHeap.
	QueueCalendar
)

// String returns the kind's name.
func (k QueueKind) String() string {
	switch k {
	case QueueHeap:
		return "heap"
	case QueueCalendar:
		return "calendar"
	default:
		return fmt.Sprintf("QueueKind(%d)", int(k))
	}
}

// newQueue builds the backend for a kind; unknown kinds are a programmer
// error (the simulator derives its kind, nothing parses one).
func newQueue(kind QueueKind) EventQueue {
	switch kind {
	case QueueHeap:
		return &heapQueue{}
	case QueueCalendar:
		return newCalQueue()
	default:
		panic(fmt.Sprintf("des: unknown QueueKind %d", int(kind)))
	}
}
