package sim

import (
	"churnlb/internal/des"
)

// nodeHot is one node's hot state, packed into a single struct so the
// per-event touch pattern — queue mutation, up-bit read, load-index
// refresh, completion-timer rearm, lazy-churn bookkeeping — lands on one
// cache line instead of five scattered per-node slices. Before this
// layout the simulator kept up, queues, complTimer, churnTimer and
// lazyFrom in parallel arrays (plus three per-node closures on the
// heap), so completing one task at node i touched five distant lines;
// an N=10⁵ realisation was dominated by those misses. The struct is 56
// bytes (pinned by TestNodeHotLayout), alignment-padded from 53, so two
// nodes share cache lines more often than not and a 10⁶-node hot array
// is 56 MB — the whole per-node working set of a realisation.
//
// Field order packs the two 16-byte handles first (8-aligned), the
// float64 next, then the narrow fields, leaving only tail padding.
type nodeHot struct {
	// complTimer is the node's outstanding completion timer, cancelled
	// eagerly (failure, queue shipped away) instead of left to fire as a
	// no-op.
	complTimer des.Handle
	// churnTimer is the node's pending churn timer — failure while up,
	// recovery while down — tracked only on lazy runs so it can be
	// cancelled when the node goes idle.
	churnTimer des.Handle
	// lazyFrom is the time up to which an idle node's churn process has
	// been realised on lazy runs; lazyResolve replays the gap on demand.
	lazyFrom float64
	// queue is the node's queued task count. int32 bounds a single queue
	// at ~2.1 billion tasks — Run rejects initial loads beyond it, and
	// the incremental remaining counter (an int) would overflow memory
	// long before a live queue could.
	queue int32
	// heapPos is the node's slot in the incremental load index's binary
	// heap (see scoreIndex): the index's pos array folded into the hot
	// layout, so the sift path's position writes land on lines the event
	// handler already owns. Unused (zero) when no index is active.
	heapPos int32
	// up is the node's working state.
	up bool
}

// queueOf returns node i's queue depth as an int — the accessor every
// view and policy callback reads through.
//
//churnlb:hotpath
func (s *simState) queueOf(i int) int { return int(s.hot[i].queue) }
