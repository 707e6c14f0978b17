package des

import (
	"fmt"
	"math"
	"slices"
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
// A batch committed while an earlier run still holds events goes onto the
// queue one record per event, as AtIndexed would have put it: there is one
// run at a time.

// runEvent is one event of a run or of the open batch: an indexed event
// with the sequence number it took when it was booked.
type runEvent struct {
	time      float64
	seq       uint64
	kind, arg int32
}

// runFirst reports whether run event r precedes queue event e in the
// scheduler's (time, seq) order; a nil e (empty queue) never precedes.
//
//churnlb:hotpath
func runFirst(r *runEvent, e *event) bool {
	return e == nil || r.time < e.time || (r.time == e.time && r.seq < e.seq)
}

// BatchIndexed books an indexed event at absolute time t, which must not
// precede the clock, into the open batch: it fires as dispatcher(kind,
// arg), in the (time, seq) order AtIndexed would have given it, but it
// returns no Handle — it cannot be cancelled — and it is not pending until
// CommitBatch. The caller must commit before the scheduler fires, peeks
// or counts again; Reset discards an uncommitted batch.
//
//churnlb:hotpath
func (s *Scheduler) BatchIndexed(t float64, kind, arg int32) {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling into the past: %v < %v", t, s.now))
	}
	s.seq++
	s.batch = append(s.batch, runEvent{time: t, seq: s.seq, kind: kind, arg: arg})
}

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
			e := s.schedule(b[i].time)
			e.seq = b[i].seq
			e.fn = nil
			e.kind, e.arg = b[i].kind, b[i].arg
			s.q.Push(e)
		}
		s.batch = b[:0]
		return
	}
	// The drained run's array is the sort's scratch; the two trade places.
	sorted, free := sortRun(b, s.run)
	s.run, s.head, s.batch = sorted, 0, free[:0]
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
// scratch array (grown when too short); sorted is whichever of the two
// holds the result and other the one that does not.
func sortRun(a, tmp []runEvent) (sorted, other []runEvent) {
	const radix, mask = 1 << sortDigit, 1<<sortDigit - 1
	n := len(a)
	if cap(tmp) < n {
		tmp = slices.Grow(tmp[:0], n)
	}
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
	return a, tmp
}
