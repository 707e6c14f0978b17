package sim

import (
	"runtime"
	"sync"

	"churnlb/internal/des"
	"churnlb/internal/model"
)

// calendarNodes is the smallest node count whose scheduler runs on the
// calendar queue. Below it the binary heap is faster: closed LBP-2
// Monte-Carlo studies (2-vCPU Xeon 2.10 GHz guest, go1.24.0, ten
// alternating runs per size and queue, two passes) took 23–27 % longer on
// the calendar at 2 and 4 nodes and 7–10 % longer at 8, where it won 1 run
// in 10; at 16 nodes it was 5–8 % faster and won 9 and 10 of 10 (README,
// "The event-queue subsystem").
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
// the run, handed from Finish to the next Start through the idle list. It
// carries capacity only — Start overwrites or truncates every part before
// the run reads it, and Finish has already reset the scheduler — so which
// arena a run gets, a used one or none, shows in no output.
type arena struct {
	// sched is a reset scheduler and queue its backend.
	sched *des.Scheduler
	queue des.QueueKind
	hot   []nodeHot
	// flights, freeFlights and flightRecs are the flight table's arrays.
	flights     []flight
	freeFlights []int32
	flightRecs  [][]taskRec
	// transferBuf is the episode buffer, sized by the t = 0 balance.
	transferBuf []model.Transfer
	// taskq is the observed runs' per-node task deques, each with the
	// backing array its node's records grew to. An unobserved run carries
	// it from Start to Finish untouched.
	taskq []taskQueue
}

// idle holds the arenas no realisation is using, strongly and at most
// GOMAXPROCS of them (the package comment says what follows from that).
var idle struct {
	sync.Mutex
	arenas []arena
}

// takeArena removes and returns the most recently parked arena, or a zero
// one when none is idle.
func takeArena() arena {
	idle.Lock()
	defer idle.Unlock()
	n := len(idle.arenas)
	if n == 0 {
		return arena{}
	}
	a := idle.arenas[n-1]
	idle.arenas[n-1] = arena{}
	idle.arenas = idle.arenas[:n-1]
	return a
}

// putArena parks a, or drops it when the list is full.
func putArena(a arena) {
	idle.Lock()
	defer idle.Unlock()
	if len(idle.arenas) < runtime.GOMAXPROCS(0) {
		idle.arenas = append(idle.arenas, a)
	}
}

// dropIdleArenas empties the idle list, so the next Start builds its state
// from nothing: how a test measures one fresh realisation, and how it lets
// go of a large one.
func dropIdleArenas() {
	idle.Lock()
	defer idle.Unlock()
	idle.arenas = nil
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

// emptied returns the arena's task deques cut to n empty ones, each
// keeping its backing array, with new deques behind them when the arena
// has held fewer nodes.
func emptied(qs []taskQueue, n int) []taskQueue {
	qs = qs[:cap(qs)]
	if len(qs) < n {
		qs = append(qs, make([]taskQueue, n-len(qs))...)
	}
	qs = qs[:n]
	for i := range qs {
		qs[i].recs, qs[i].head = qs[i].recs[:0], 0
	}
	return qs
}

// release resets what the finished run leaves in its arena and parks it.
// The reset scheduler holds no closure and no dispatcher, so an idle arena
// keeps nothing of the run alive but its arrays.
func (s *simState) release() {
	s.sched.Reset()
	clear(s.flightRecs)
	putArena(arena{
		sched:       s.sched,
		queue:       queueFor(len(s.hot)),
		hot:         s.hot,
		flights:     s.flights,
		freeFlights: s.freeFlights,
		flightRecs:  s.flightRecs,
		transferBuf: s.transferBuf,
		taskq:       s.taskq,
	})
}
