package sim

import "churnlb/internal/model"

// TaskObserver receives per-task lifecycle events and system state changes
// from a running realisation — the telemetry hook behind the open-system
// serving layer (internal/metrics implements it). The hook is strictly
// opt-in: with Options.TaskObserver nil the simulator performs no per-task
// bookkeeping, consumes exactly the same random stream, and fires exactly
// the same events, so fixed-seed realisations stay bit-identical to the
// closed-model simulator.
//
// All methods are invoked from the single simulation goroutine, in event
// order, with non-decreasing timestamps. Implementations must not call
// back into the simulator.
type TaskObserver interface {
	// TasksArrived reports count tasks joining node's queue at time t:
	// the initial load at t = 0 and every external arrival batch.
	TasksArrived(node, count int, t float64)
	// TaskCompleted reports one task finishing at node. arrival is the
	// instant the task entered the system, firstService the instant its
	// service first began (-1 if it completed without an observed service
	// start), completion the current time. Sojourn time is
	// completion-arrival; waiting time firstService-arrival.
	TaskCompleted(node int, arrival, firstService, completion float64)
	// NodeStateChanged reports node going up or down at time t, including
	// nodes that start down at t = 0.
	NodeStateChanged(node int, up bool, t float64)
	// TransferDeparted reports tasks leaving from's queue for to's at
	// time t (they are in flight until TransferArrived).
	TransferDeparted(from, to, tasks int, t float64)
	// TransferArrived reports tasks landing in to's queue at time t.
	TransferArrived(to, tasks int, t float64)
}

// DecisionSink receives every external-arrival routing decision from a
// running realisation — the decision-trace hook behind internal/obs. Like
// TaskObserver it is strictly opt-in and it only observes: the decision is
// made by Router.Route (or the uniform draw) exactly as on a run without a
// sink — same view, same load index, same stream — so fixed-seed
// realisations stay bit-identical.
//
// Decision fires once per accepted external arrival, before the batch
// mutates any state: v is the pre-arrival view the router saw, chosen the
// destination node, batch the number of tasks about to join it, and
// considered the number of nodes the router's rule consults per decision
// (policy.Considered — a constant of the run, 0 under uniform routing). v
// is valid only for the duration of the call and must not be retained. All
// calls come from the single simulation goroutine, in event order;
// implementations must not call back into the simulator.
type DecisionSink interface {
	Decision(v model.StateView, chosen, batch, considered int)
}

// taskRec is the per-task lifecycle record maintained only when a
// TaskObserver is installed. firstService is -1 until service begins.
type taskRec struct {
	arrival      float64
	firstService float64
}

// taskQueue is a FIFO deque of task records mirroring one node's queue:
// completions pop the front (the task in service), transfers take from
// the back (the most recently queued tasks are the ones shipped).
// Amortised O(1) per operation.
type taskQueue struct {
	recs []taskRec
	head int
}

func (q *taskQueue) len() int { return len(q.recs) - q.head }

func (q *taskQueue) push(r taskRec) { q.recs = append(q.recs, r) }

func (q *taskQueue) front() *taskRec { return &q.recs[q.head] }

func (q *taskQueue) pop() taskRec {
	r := q.recs[q.head]
	q.head++
	// Reclaim the dead prefix once it dominates the backing array.
	if q.head > 64 && q.head*2 > len(q.recs) {
		n := copy(q.recs, q.recs[q.head:])
		q.recs = q.recs[:n]
		q.head = 0
	}
	return r
}

// takeTail removes the last k records and returns them in queue order.
func (q *taskQueue) takeTail(k int) []taskRec {
	n := len(q.recs)
	out := append([]taskRec(nil), q.recs[n-k:]...)
	q.recs = q.recs[:n-k]
	return out
}
