package daemon

import (
	"runtime"
	"sync/atomic"
)

// A run's telemetry leaves the goroutines that produce it. Every hook —
// admission, every worker's service loop, the churn controllers, the
// receive loops and a failed send — appends one fixed-size record to a
// bounded multi-producer ring (telRing), and one consumer goroutine
// replays the records in slot order into the metrics.Collector and the
// in-system taskWindow, the only goroutine that touches either. Slot
// order is one total order that respects each producer's program order:
// an admission's record is published before its frame is written, so a
// task's arrival is applied before its completion. A publish wakes a
// parked consumer, and the consumer ends the run once the stream has
// closed and every admitted task is settled.

// telCap is the ring's capacity in records: 256 KB of 64-byte slots per
// run. On live-admit-net-64 (64 workers, 10⁵ arrivals all due at t = 0,
// 2 vCPUs) the consumer, one goroutine among some two hundred, falls a
// whole ring behind at every size tried, and producers then wait for it:
// per lifetime, 1300 full-ring waits at 1024 slots, 230–920 at 4096,
// 50–200 at 16384, none at 65536 (backlog 24–48 thousand). Time per
// lifetime did not move measurably from 4096 slots up, while peak RSS
// did: +4 % at 4096 slots and +11 % at 8192, against the same runs with
// no ring.
const telCap = 1 << 12

// telSample is how many records the consumer applies between two readings
// of the producers' tail: the backlog is sampled there, and whenever the
// consumer catches up.
const telSample = 64

type recKind uint8

const (
	recArrived     recKind = iota // tasks id … id+n-1 admitted to node at t
	recCompleted                  // task id completed at node at t; its last service began at t0
	recInterrupted                // a failure cut task id's service attempt begun at t0
	recUp                         // node recovered at t
	recDown                       // node failed at t
	recDeparted                   // n tasks left node for peer at t
	recLanded                     // n tasks landed at node at t
	recLost                       // task id declared lost at t, from the in-flight population if inFlight
	recClosed                     // the arrival stream closed
)

// record is one telemetry event. Node ids and counts fit int32: a
// worker's queue and a bundle are far below it.
type record struct {
	id       uint64
	t0, t    float64
	node, n  int32
	peer     int32
	kind     recKind
	inFlight bool
}

// telSlot is one cell of the ring. seq says whose turn the cell is: pos
// while free for the producer that takes slot pos, pos+1 once that
// producer has published, pos+len once the consumer has applied it and
// the cell is free for the next lap.
type telSlot struct {
	seq atomic.Uint64
	rec record
	_   [16]byte // one 64-byte line per slot: neighbouring slots belong to different producers
}

// telRing is a bounded multi-producer, single-consumer queue of records
// with a sequence number per slot, after Vyukov's bounded queue: a
// producer takes a slot with one atomic add, fills it and publishes it;
// the consumer applies slots strictly in order and frees each for the
// next lap.
type telRing struct {
	tail atomic.Uint64 // next slot to take
	_    [56]byte      // tail is the producers' one shared word: a line of its own

	// Every publish reads this line, so only a parking consumer and a
	// full-ring wait write it. parked is set while the consumer sleeps on
	// wake; the first publish that sees it clears it and wakes the
	// consumer.
	parked    atomic.Bool
	fullWaits atomic.Int64 // times a producer found its slot still in use
	wake      chan struct{}
	slots     []telSlot
	mask      uint64
	_         [8]byte

	// head is the consumer's position, published at each catch-up and
	// every telSample records, for backlog readers; backlogMax is the
	// largest tail - head the consumer read, its alone until it exits.
	head       atomic.Uint64
	backlogMax uint64
}

// newTelRing returns an empty ring of size slots, a power of two.
func newTelRing(size int) *telRing {
	q := &telRing{
		wake:  make(chan struct{}, 1),
		slots: make([]telSlot, size),
		mask:  uint64(size - 1),
	}
	for i := range q.slots {
		q.slots[i].seq.Store(uint64(i))
	}
	return q
}

// put appends r. It waits only while the ring is full: its slot is then
// the consumer's until applied.
//
//churnlb:hotpath
func (q *telRing) put(r record) {
	pos := q.tail.Add(1) - 1
	s := &q.slots[pos&q.mask]
	if s.seq.Load() != pos {
		q.waitFree(s, pos)
	}
	s.rec = r
	s.seq.Store(pos + 1)
	if q.parked.Load() && q.parked.CompareAndSwap(true, false) {
		kick(q.wake)
	}
}

// waitFree yields until the consumer has freed slot s for position pos.
func (q *telRing) waitFree(s *telSlot, pos uint64) {
	q.fullWaits.Add(1)
	for s.seq.Load() != pos {
		runtime.Gosched()
	}
}

// backlog returns the number of records taken but not yet applied, as of
// the consumer's last published position. head is read first: the tail
// only grows, so the difference cannot wrap.
func (q *telRing) backlog() uint64 {
	head := q.head.Load()
	return q.tail.Load() - head
}

// consume applies every record in slot order until stop has closed and
// the ring is empty. The caller closes stop only once every producer has
// returned, so every slot taken by then is published.
//
//churnlb:hotpath
func (q *telRing) consume(stop <-chan struct{}, apply func(*record)) {
	var head uint64
	for {
		s := &q.slots[head&q.mask]
		if s.seq.Load() == head+1 {
			apply(&s.rec)
			s.seq.Store(head + q.mask + 1)
			head++
			if head%telSample == 0 {
				q.sample(head)
			}
			continue
		}
		q.sample(head)
		q.parked.Store(true)
		if s.seq.Load() == head+1 {
			q.parked.Store(false)
			continue
		}
		select {
		case <-q.wake:
		case <-stop:
			if q.tail.Load() == head {
				return
			}
		}
	}
}

// sample publishes the consumer's position and folds the backlog it
// implies into backlogMax.
func (q *telRing) sample(head uint64) {
	q.head.Store(head)
	q.backlogMax = max(q.backlogMax, q.tail.Load()-head)
}
