package sim

import (
	"runtime"
	"sync"

	"churnlb/internal/des"
)

// calendarNodes is the smallest node count whose scheduler runs on the
// calendar queue. Below it the binary heap is faster: closed LBP-2
// Monte-Carlo studies (2-vCPU Xeon 2.10 GHz guest, go1.24.0, ten
// alternating runs per size and queue, two passes) took 23–27 % longer on
// the calendar at 2 and 4 nodes and 7–10 % longer at 8, where it won 1 run
// in 10; at 16 nodes it was 5–8 % faster and won 9 and 10 of 10
// (CHANGES.md, the entry "the simulator picks its own event queue").
const calendarNodes = 16

// queueFor picks the event queue of a scheduler serving the given number
// of nodes. Both backends fire every schedule in the same order, so the
// choice shows in the cost of a run and in nothing it outputs.
func queueFor(nodes int) des.QueueKind {
	if nodes < calendarNodes {
		return des.QueueHeap
	}
	return des.QueueCalendar
}

// arena is the memory of a sequential realisation that outlives it: the
// allocations whose size follows the cluster and the workload rather than
// the run, handed from one run's finish to the next run's start through the
// idle list. It carries capacity only — start overwrites or truncates every
// part before the run reads it, and finish has already reset the scheduler —
// so which arena a run gets, a used one or none, shows in no output. Of the
// largest episode it keeps 16 + 16/C + 8 bytes a transfer: the flight row
// here, and in the scheduler the batch's run event, reserved to exactly
// the episode's count, and the sort's scratch, one of the C ≤ 8 sub-runs
// the batch sorts as (C = 1 up to 2¹⁶ transfers, 8 on closed-scale-1e5's
// t = 0 episode: 26 B). The transfers themselves stream from the policy
// into the scheduler and are never held.
type arena struct {
	// sched is a reset scheduler and queue its backend.
	sched *des.Scheduler
	queue des.QueueKind
	hot   []nodeHot
	// flights is the flight table's array.
	flights []flight
}

// idleList holds memory no run is using, strongly and at most GOMAXPROCS
// entries of it (the package comment says what follows from that): the
// realisations' arenas, and the ledgers' task deques.
type idleList[T any] struct {
	mu    sync.Mutex
	items []T
}

// idle holds the arenas no realisation is using.
var idle idleList[arena]

// take removes and returns the most recently parked entry, or a zero one
// when none is idle.
func (l *idleList[T]) take() T {
	l.mu.Lock()
	defer l.mu.Unlock()
	var x T
	if n := len(l.items); n > 0 {
		x = l.items[n-1]
		clear(l.items[n-1:])
		l.items = l.items[:n-1]
	}
	return x
}

// put parks x, or drops it when the list is full.
func (l *idleList[T]) put(x T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.items) < runtime.GOMAXPROCS(0) {
		l.items = append(l.items, x)
	}
}

// zeroed returns a zeroed hot array of n nodes, on hot's memory when it
// holds that many.
func zeroed(hot []nodeHot, n int) []nodeHot {
	if cap(hot) < n {
		return make([]nodeHot, n)
	}
	hot = hot[:n]
	clear(hot)
	return hot
}

// release resets what the finished run leaves in its arena and parks it.
// The reset scheduler holds no closure and no dispatcher, so an idle arena
// keeps nothing of the run alive but its arrays.
func (s *simState) release() {
	s.sched.Reset()
	idle.put(arena{
		sched:   s.sched,
		queue:   queueFor(len(s.hot)),
		hot:     s.hot,
		flights: s.flights,
	})
}
