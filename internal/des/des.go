// Package des is a small discrete-event simulation kernel: a simulation
// clock plus a pluggable pending-event queue with O(log n) (binary heap)
// or amortised O(1) (adaptive calendar queue) scheduling and
// cancellation. Ties are broken by insertion order, and every queue
// backend realises the exact same (time, seq) pop order, so simulations
// driven by a deterministic random stream are bit-reproducible — on any
// backend.
//
// An event is an indexed (kind, arg) pair (AtIndexed/AfterIndexed) that
// fires through one scheduler-level dispatcher (SetDispatcher): a
// simulation over n entities holds no closure per entity or per event.
// The loop itself is decomposed into step primitives (HasPending,
// PeekNextTime, ProcessNext) so a caller can fire one event at a time and
// act between two (sim.Run's loop does, checking its workload and its
// interrupt between events); Run is a thin loop over them.
//
// Event records are pooled: a fired or cancelled event is chained onto a
// per-scheduler free list through its own next field and reused by the
// next scheduling call, so retiring one allocates nothing and a long run
// allocates a bounded number of records. Cancellation removes the event
// from the queue at once, not leaving a tombstone to be skipped at pop
// time: pending-event memory is proportional to live events only.
//
// Beside the queue a scheduler holds a run: indexed events booked together
// in one batch (BatchIndexed + CommitBatch), never cancelled, sorted once
// and fired front to back. The step primitives take whichever of the
// run's head and the queue's minimum comes first in (time, seq) order, so
// a batched event fires exactly when the queue would have fired it; a
// caller with a large burst known at one instant (a balancing episode)
// skips the queue for all of it. A run event is 16 bytes: a batch holds
// one kind, stored once, and each event's seq as an offset from the
// batch's base. A caller that knows its batch's size reserves exactly
// that much room for it (ReserveBatch).
//
// A scheduler outlives a simulation: Reset kills whatever is still
// pending and returns the clock, the counters and the queue to a fresh
// scheduler's state while every record slab, the queue's arrays and the
// run's arrays stay allocated, so the next simulation on it schedules out
// of the memory the last one left — records handed out again in address
// order, slab by slab — and fires exactly what a fresh scheduler would.
package des

import "fmt"

// Handle identifies a scheduled event and allows cancellation. The zero
// Handle refers to no event; Cancel on it is a no-op. Handles are small
// values — copy them freely. A handle whose event has already fired or
// been cancelled is stale: Cancel and Active on it are safe no-ops even
// after the underlying pooled record has been reused for a newer event
// (the sequence number disambiguates incarnations), and so is every handle
// issued before the scheduler's last Reset.
type Handle struct {
	e   *event
	seq uint64
}

// event is the pooled queue record behind a Handle. It is 64 bytes
// (pinned by TestEventLayout), one word of it padding: a slab of
// eventSlabSize records is a whole number of cache lines and, laid out
// from a line boundary (eventSlab), puts every record on one line, so a
// chain walk or a pop touches one line per record.
type event struct {
	time float64
	seq  uint64
	_    uint64 // pads the record to one 64-byte line
	// index is the event's position inside its queue backend — heap slot
	// for the heap; for the calendar queue 0 while in a bucket chain and
	// slot + 1 while in its far tier — and -1 once fired or cancelled
	// (Handle.Active keys off the sign).
	index int
	// vb is the calendar queue's virtual bucket number (floor(time/width)
	// under the queue's current width) while the event is in a bucket
	// chain; unused by the heap and by the calendar's far tier.
	vb int64
	// next links a live event into its calendar bucket chain (calQueue's
	// buckets are intrusive singly-linked lists: a push touches only the
	// bucket head and this record) and a dead one into the free list. A
	// live record outside a chain holds nil; the heap never reads it.
	next  *event
	owner *Scheduler
	// kind and arg identify the event: the dispatcher receives them
	// verbatim.
	kind, arg int32
}

// Cancel prevents the event from firing and removes it from the queue
// immediately. Cancelling a zero, fired or already-cancelled handle is a
// no-op.
func (h Handle) Cancel() {
	if h.Active() {
		h.e.owner.remove(h.e)
	}
}

// Active reports whether the handle's event is still scheduled.
func (h Handle) Active() bool {
	return h.e != nil && h.e.index >= 0 && h.e.seq == h.seq
}

// eventSlabSize is the number of event records newEvent carves from one
// backing array before allocating the next slab.
const eventSlabSize = 256

// eventSlab is one slab's allocation. The Go allocator (1.22 on) puts an
// 8-byte type header in front of a pointer-holding object of this size and
// hands out the object itself on a 64-byte boundary, so unpadded records
// would start 8 bytes into a line and every one would straddle two. The
// pad moves records[0] onto the next line boundary at no cost in memory:
// with or without it the slab takes the allocator's 18 KiB size class.
// TestEventLayout checks the alignment.
type eventSlab struct {
	_       [56]byte
	records [eventSlabSize]event
}

// Scheduler owns the simulation clock and the pending-event queue.
type Scheduler struct {
	now   float64
	seq   uint64
	q     EventQueue
	fired uint64
	free  *event // recycled records, chained through next; schedule pops the head
	// slabs lists every record slab in allocation order. newEvent carves
	// them front to back: slab is the unissued tail of the one in hand,
	// slabs[nextSlab:] are untouched since the last Reset.
	slabs    [][]event
	nextSlab int
	slab     []event
	// disp fires every event: one dispatch function per scheduler, so a
	// simulation over n entities schedules without holding n closures.
	disp func(kind, arg int32)
	// run[head:] is the pending sorted run (see run.go), empty with head 0
	// once drained; batch is the open batch. The two arrays trade places
	// when a batch is sorted into a run, and Reset keeps both. Each holds
	// one kind, and its events' seqs are offsets from its base.
	run                []runEvent
	head               int
	batch              []runEvent
	runBase, batchBase uint64
	runKind, batchKind int32
}

// New returns an empty scheduler at time 0 on the default (heap) backend.
func New() *Scheduler { return NewWithQueue(QueueHeap) }

// NewWithQueue returns an empty scheduler at time 0 whose pending events
// live in the given backend. Every backend fires the same schedule in the
// same order (see EventQueue); the choice trades only time and memory.
func NewWithQueue(kind QueueKind) *Scheduler {
	return &Scheduler{q: newQueue(kind)}
}

// Now returns the current simulation time.
func (s *Scheduler) Now() float64 { return s.now }

// Fired returns the number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Len returns the number of live scheduled events.
func (s *Scheduler) Len() int { return s.q.Len() + len(s.run) - s.head }

// SetDispatcher installs the event handler: every event fires by calling
// fn(kind, arg). One dispatch function serves the whole scheduler, so a
// simulation over n entities needs no per-entity closures — the (kind,
// arg) pair rides the pooled event record for free. Must be set before the
// first event fires.
func (s *Scheduler) SetDispatcher(fn func(kind, arg int32)) { s.disp = fn }

// schedule books a pooled record at absolute time t, which must not
// precede the clock. The caller fills (kind, arg).
//
//churnlb:hotpath
func (s *Scheduler) schedule(t float64) *event {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling into the past: %v < %v", t, s.now))
	}
	s.seq++
	e := s.free
	if e != nil {
		s.free, e.next = e.next, nil
	} else {
		e = s.newEvent()
	}
	e.time, e.seq = t, s.seq
	return e
}

// AtIndexed schedules an event at absolute time t, which must not precede
// the clock: it fires as dispatcher(kind, arg).
//
//churnlb:hotpath
func (s *Scheduler) AtIndexed(t float64, kind, arg int32) Handle {
	e := s.schedule(t)
	e.kind, e.arg = kind, arg
	s.q.Push(e)
	return Handle{e: e, seq: e.seq}
}

// AfterIndexed schedules an event after delay d (d < 0 is clamped
// to 0).
//
//churnlb:hotpath
func (s *Scheduler) AfterIndexed(d float64, kind, arg int32) Handle {
	if d < 0 {
		d = 0
	}
	return s.AtIndexed(s.now+d, kind, arg)
}

// Reset returns the scheduler to the state NewWithQueue left it in — clock
// and Fired at zero, nothing pending, no open batch, no dispatcher —
// without giving up its memory: every live event becomes dead (its handle
// inactive), and the record slabs, the queue's arrays and the run's
// arrays keep their capacity. What is scheduled afterwards fires in the
// order a fresh scheduler would fire it; record, bucket and run layout
// never decide pop order.
//
// Records are handed out again slab by slab in address order: Reset drops
// the free list (which a simulation leaves in the scrambled order its
// events died in), so a simulation on a reset scheduler lays its events out
// in memory the way its first one did. The sequence counter keeps
// counting across Reset — only its order is ever read — so a Handle from
// before the Reset can never match a later incarnation of its record.
func (s *Scheduler) Reset() {
	s.q.drain()
	s.now, s.fired, s.disp = 0, 0, nil
	s.free = nil
	s.nextSlab, s.slab = 0, nil
	s.run, s.head, s.batch = s.run[:0], 0, s.batch[:0]
}

// --- step primitives ---
//
// HasPending, PeekNextTime and ProcessNext are the event loop taken
// apart: ProcessNext fires exactly one event, so a caller can look at its
// model or stop between two (sim.Run's loop, which polls its interrupt
// there), PeekNextTime reads when the next
// one is due without firing it (Run's horizon check), and HasPending says
// whether anything is left. Run is a thin loop over them.

// HasPending reports whether any scheduled event remains.
//
//churnlb:hotpath
func (s *Scheduler) HasPending() bool { return s.q.Len() > 0 || len(s.run) > 0 }

// PeekNextTime returns the fire time of the next pending event without
// processing it; ok is false when no events remain. Peeking never
// advances the clock or commits any queue state.
//
//churnlb:hotpath
func (s *Scheduler) PeekNextTime() (t float64, ok bool) {
	e := s.q.PeekMin()
	if len(s.run) > 0 && s.runFirst(&s.run[s.head], e) {
		return s.run[s.head].time, true
	}
	if e == nil {
		return 0, false
	}
	return e.time, true
}

// ProcessNext fires the next pending event, advancing the clock to its
// time. It returns false when no events remain.
//
//churnlb:hotpath
func (s *Scheduler) ProcessNext() bool {
	if len(s.run) > 0 {
		if r := s.run[s.head]; s.runFirst(&r, s.q.PeekMin()) {
			if s.head++; s.head == len(s.run) {
				s.run, s.head = s.run[:0], 0
			}
			s.now = r.time
			s.fired++
			s.disp(s.runKind, r.arg)
			return true
		}
	}
	e := s.q.PopMin()
	if e == nil {
		return false
	}
	s.now = e.time
	s.fired++
	kind, arg := e.kind, e.arg
	s.recycle(e)
	s.disp(kind, arg)
	return true
}

// Run fires every event with time <= tMax and advances the clock to tMax.
//
// The horizon check re-reads the queue minimum after every fired event,
// so an event that a firing event schedules at or before tMax — including
// at exactly tMax, even from an event itself firing at tMax — always
// fires in the same call, never stranded for a later Run. The flip side
// is the caller's contract: an event chain that keeps rescheduling itself
// at exactly tMax never terminates.
func (s *Scheduler) Run(tMax float64) {
	for {
		t, ok := s.PeekNextTime()
		if !ok || t > tMax {
			break
		}
		s.ProcessNext()
	}
	if s.now < tMax {
		s.now = tMax
	}
}

// remove deletes a live event from the queue and recycles its record.
//
//churnlb:hotpath
func (s *Scheduler) remove(e *event) {
	s.q.Remove(e)
	s.recycle(e)
}

// newEvent hands out the next unissued event record — the free-list miss
// path of schedule, kept out of the hot path so the steady state (every record
// recycled) stays allocation-free. Records are carved from slab arrays
// rather than allocated one by one: a realisation that arms a timer per
// node peaks at n live records, and n individual heap objects both
// scatter the pointer-chasing queue scans across the heap and hand the
// GC n times the objects to walk. Slabs are carved in allocation order and
// a new one is allocated only when every slab the scheduler holds has been
// carved since the last Reset; the scheduler keeps all of them for its
// lifetime, which is exactly the pool's retention policy anyway.
func (s *Scheduler) newEvent() *event {
	if len(s.slab) == 0 {
		if s.nextSlab == len(s.slabs) {
			s.slabs = append(s.slabs, new(eventSlab).records[:])
		}
		s.slab = s.slabs[s.nextSlab]
		s.nextSlab++
	}
	e := &s.slab[0]
	s.slab = s.slab[1:]
	e.owner, e.next = s, nil // after a Reset, next may still hold a dead record's link
	return e
}

// recycle marks the record dead and pushes it onto the free list (a stack
// through next: schedule reuses the record that died last). The sequence
// number is left in place so stale handles keep matching this incarnation
// (and failing the index check) until the record is reused.
//
//churnlb:hotpath
func (s *Scheduler) recycle(e *event) {
	e.index, e.next, s.free = -1, s.free, e
}
