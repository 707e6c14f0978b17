package des

import (
	"fmt"
	"math"
)

// A run is the scheduler's second event source: indexed events that were
// booked together (BatchIndexed), can never be cancelled, and are sorted
// once by (time, seq) when their batch is committed (CommitBatch), so they
// fire by reading the run front to back instead of each taking a trip
// through the queue. ProcessNext and its neighbours compare the run's
// head with the queue's minimum by exact (time, seq) and take the earlier,
// which is the queue's own order over the union of both: pop order is the
// same as if every run event had been pushed with AtIndexed.
//
// A batch sorts as C = min(maxSubRuns, ⌈k/subRunMin⌉) contiguous
// sub-runs of its k events, each in place over a scratch of one sub-run:
// the drained run's array, which then becomes the open batch's (a batch
// of at most subRunMin events is one sub-run, sorted over a scratch of
// its size). The run's head is the earliest of the sub-runs' first
// events. Its own sub-run sits beside the others (subs), which are kept
// in order of their first events; after a run event fires, the next
// event of its sub-run either still precedes the first of subs — one
// compare — or hands over to it and is filed in order among the rest.
// (time, seq) is a total order, so the merge fires exactly what one
// sorted run would. A short batch takes the drained run's array when
// that one has the room (ReserveBatch), so a scheduler that booked its
// largest batch keeps that batch's array and one sub-run's scratch, and
// books the batch again without allocating.
//
// A batch committed while an earlier run still holds events goes onto the
// queue one record per event, as AtIndexed would have put it: there is one
// run at a time.

// runEvent is one event of a run or of the open batch, 16 bytes (pinned
// by TestRunEventLayout): an indexed event's time and arg, and the
// sequence number it took when it was booked as an offset from its
// batch's base. A batch holds one kind, kept beside its base, so neither
// is stored per event.
type runEvent struct {
	time float64
	seq  uint32
	arg  int32
}

// runFirst reports whether run event r precedes queue event e in the
// scheduler's (time, seq) order; a nil e (empty queue) never precedes. r's
// sequence number is shifted as a record packs it; sequence numbers are
// distinct, so e's kind byte never decides.
//
//churnlb:hotpath
func (s *Scheduler) runFirst(r *runEvent, e *event) bool {
	return e == nil || r.time < e.time || (r.time == e.time && (s.runBase+uint64(r.seq))<<kindBits < e.seq)
}

// BatchIndexed books an indexed event at absolute time t, which must not
// precede the clock, into the open batch: it fires as dispatcher(kind,
// arg), in the (time, seq) order AtIndexed would have given it, but it
// returns no Handle — it cannot be cancelled — and it is not pending until
// CommitBatch. The caller must commit before the scheduler fires, peeks
// or counts again; Reset discards an uncommitted batch. A batch's kind is
// in [0, 256), as AtIndexed's, every event of a batch has the kind of its
// first, and a batch spans fewer than 2³² sequence numbers: any of them
// broken panics.
//
//churnlb:hotpath
func (s *Scheduler) BatchIndexed(t float64, kind, arg int32) {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling into the past: %v < %v", t, s.now))
	}
	if len(s.batch) == 0 {
		checkKind(kind)
		s.batchBase, s.batchKind = s.seq, kind
	} else if kind != s.batchKind {
		panic(fmt.Sprintf("des: kind %d booked into a batch of kind %d", kind, s.batchKind))
	}
	s.seq++
	off := s.seq - s.batchBase
	if off > math.MaxUint32 {
		panic("des: a batch spans 2³² sequence numbers")
	}
	s.batch = append(s.batch, runEvent{time: t, seq: uint32(off), arg: arg})
}

// ReserveBatch makes room for k more events in the open batch, growing it
// to exactly that size when it is short, so a caller that knows its
// batch's size books it without append's spare room or the arrays append
// outgrows. A short batch takes the drained run's array instead when
// that one has the room, and leaves the run its own.
func (s *Scheduler) ReserveBatch(k int) {
	n := len(s.batch) + k
	switch {
	case cap(s.batch) >= n:
	case len(s.run) == 0 && cap(s.run) >= n:
		s.run, s.batch = s.batch[:0], append(s.run, s.batch...)
	default:
		s.batch = append(make([]runEvent, 0, n), s.batch...)
	}
}

// subRunMin and maxSubRuns split a batch of k events, committed with no
// run pending, into C = min(maxSubRuns, ⌈k/subRunMin⌉) sub-runs of ⌈k/C⌉
// events. The sort's scratch falls from 16 to 16/C bytes an event, and
// the merge costs a fired run event 10–15 ns at C = 2 and 15–25 ns at
// C = 8 over one sorted run (BenchmarkRunDrain; a heap of the sub-runs'
// heads cost 30–45 ns). On closed-scale-1e5's t = 0 episode (5·10⁵
// events, C = 8) peak RSS fell 60.2 → 53.3 MB in 10 of 10 pairs. 2¹⁶
// rather than 2¹⁵ keeps closed-churn-1e3's 45 083-event episode one
// sorted run: split in two, it held 0.37 MB less at its peak and paid
// the merge on every event, its ns_per_task higher in 5 of 8 pairs
// against 2¹⁶ (median 270.7 against 253.8). closed-scale-1e5 splits
// the same way at either (2-vCPU Xeon 2.10 GHz guest, go1.24.0).
const (
	subRunMin  = 1 << 16
	maxSubRuns = 8
)

// span is one pending sub-run of the run: run[head:end].
type span struct{ head, end int }

// CommitBatch makes the open batch's events pending. With no run pending
// the batch, sorted, becomes the run; otherwise it goes onto the queue.
// Which of the two happens shows in cost only.
func (s *Scheduler) CommitBatch() {
	b := s.batch
	if len(b) == 0 {
		return
	}
	if len(s.run) > 0 {
		for i := range b {
			// The record keeps the seq its event was booked with; the one
			// schedule draws is skipped, and skipping changes no order.
			e := s.schedule(b[i].time, s.batchKind, b[i].arg)
			e.seq = (s.batchBase+uint64(b[i].seq))<<kindBits | uint64(s.batchKind)
			s.q.Push(e)
		}
		s.batch = b[:0]
		return
	}
	s.runBase, s.runKind = s.batchBase, s.batchKind
	// Each sub-run sorts in place over a scratch of one sub-run, the
	// drained run's array, which then becomes the open batch's.
	c := min(maxSubRuns, (len(b)+subRunMin-1)/subRunMin)
	m := (len(b) + c - 1) / c
	tmp := s.run[:0]
	if cap(tmp) < m {
		tmp = make([]runEvent, m)
	}
	s.run, s.batch = b, tmp[:0]
	for lo := 0; lo < len(b); lo += m {
		sub := b[lo:min(lo+m, len(b))]
		if sorted := sortRun(sub, tmp); &sorted[0] != &sub[0] {
			copy(sub, sorted)
		}
		h, i := span{lo, lo + len(sub)}, s.nsub
		for ; i > 0 && s.runLess(h.head, s.subs[i-1].head); i-- {
			s.subs[i] = s.subs[i-1]
		}
		s.subs[i] = h
		s.nsub++
	}
	s.head, s.end = 0, 0 // an empty sub-run: the first of subs follows it
	s.nextRunHead()
}

// nextRunHead hands the run's head over once the event before s.head
// has fired and its sub-run is spent or its next event does not precede
// the first of subs: the first of subs takes over, and the sub-run left
// behind, unless spent, is filed in order among the rest. With no other
// sub-run left the run is drained.
//
//churnlb:hotpath
func (s *Scheduler) nextRunHead() {
	if s.nsub == 0 {
		s.run, s.head, s.end = s.run[:0], 0, 0
		return
	}
	h, first := span{s.head, s.end}, s.subs[0]
	if h.head == h.end {
		s.nsub--
		copy(s.subs[:s.nsub], s.subs[1:])
	} else {
		i := 1
		for ; i < s.nsub && s.runLess(s.subs[i].head, h.head); i++ {
			s.subs[i-1] = s.subs[i]
		}
		s.subs[i-1] = h
	}
	s.head, s.end = first.head, first.end
}

// runLess reports whether run event i precedes run event j in (time, seq)
// order; the run's events share one base, so their offsets compare.
//
//churnlb:hotpath
func (s *Scheduler) runLess(i, j int) bool {
	a, b := &s.run[i], &s.run[j]
	return a.time < b.time || a.time == b.time && a.seq < b.seq
}

// runLen counts the run's pending events.
func (s *Scheduler) runLen() int {
	n := s.end - s.head
	for _, sp := range s.subs[:s.nsub] {
		n += sp.end - sp.head
	}
	return n
}

// timeKey maps an event time to a uint64 whose unsigned order is the
// times' float order: the bits with the sign flipped for positive values
// and all of them flipped for negative ones, and −0 taken as +0 — the two
// compare equal, so only seq may order them, which the stable sort does.
func timeKey(t float64) uint64 {
	if t == 0 {
		return 1 << 63
	}
	b := math.Float64bits(t)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// sortDigit is the radix sort's digit width; ⌈64/sortDigit⌉ passes cover
// a 64-bit key, six at 11 bits. Against eight one-byte passes it sorted a
// 45 000-event batch in 26–28 instead of 33–48 ns per event (2-vCPU Xeon
// 2.10 GHz guest, go1.24.0) and lost only on batches of fewer than ~1 000
// events.
const sortDigit = 11

// sortRun sorts a by time with a stable LSD radix sort over timeKey,
// sortDigit bits per pass, skipping every pass whose digit all keys
// share. Stability keeps push order among equal times, and a batch is
// pushed in seq order, so the result is in (time, seq) order. tmp is the
// scratch array, of capacity at least len(a); the result is a or
// tmp[:len(a)], whichever holds it.
func sortRun(a, tmp []runEvent) []runEvent {
	const radix, mask = 1 << sortDigit, 1<<sortDigit - 1
	n := len(a)
	tmp = tmp[:n]
	var count [(64 + sortDigit - 1) / sortDigit][radix]uint32
	for i := range a {
		k := timeKey(a[i].time)
		for d := range count {
			count[d][k>>(d*sortDigit)&mask]++
		}
	}
	first := timeKey(a[0].time)
	for d := range count {
		c := &count[d]
		shift := sortDigit * d
		if c[first>>shift&mask] == uint32(n) {
			continue
		}
		var sum uint32
		for i, m := range c {
			c[i] = sum
			sum += m
		}
		for i := range a {
			k := timeKey(a[i].time) >> shift & mask
			tmp[c[k]] = a[i]
			c[k]++
		}
		a, tmp = tmp, a
	}
	return a
}
