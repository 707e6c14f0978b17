package des

// calQueue is an adaptive calendar queue (Brown 1988) — the "timer
// wheel" EventQueue backend. Each live event hangs off a bucket chosen by
// its *virtual bucket number* vb = floor(time/width); the bucket array
// (a power of two) is indexed vb mod nbuckets, so one array slot holds
// the same phase of every "year" (one sweep of the whole array). A pop
// scans slots forward from the current scan position, taking the
// (time, seq)-minimum among the events whose vb equals the slot being
// scanned; with the bucket count resized to track the live-event count
// and the width tracking the observed inter-event gap, the scan visits
// O(1) events on average, which makes push, pop and remove amortised
// O(1) in the dense-timer regime (a churn-heavy simulation holding ~2n
// memoryless timers) where the binary heap pays O(log n) sifts.
//
// Buckets are intrusive singly-linked chains threaded through the event
// records (the next field) rather than slices of pointers. At the
// populations this backend exists for (~2n live timers at N = 10⁵, a
// working set far beyond L2) every level of indirection in a queue op is
// a cache miss, and the realisation's per-event cost is dominated by
// exactly those misses: a slice-of-slices layout pays slot header →
// backing array → record on every touch, plus growslice churn in Push
// and append cascades in resize. The intrusive chain pays only bucket
// head → record: Push writes the head slot and the record it was already
// writing, and resize rethreads chains into the other of the queue's two
// head arrays, allocating only when that one is too small for the new
// size. The chains carry no back link: a pop unlinks the minimum through
// the predecessor findMin found beside it, in O(1), and only a cancel
// (Remove, rare next to pops) walks its slot from the head. That keeps a
// record at 64 bytes — one cache line — and spares Push the write to the
// old head's back link, a miss on every push.
//
// The width tracks a long-window average of the gap between pops, and a
// same-size rebuild happens only once the width has left
// [target/calWidthBand, calWidthBand·target], target being twice the
// average. The average is the plain mean of the gaps since the last
// drain until calGapWindow of them have been seen — the first gap sets it
// outright, and an unlucky first gap is outvoted within a few pops
// instead of being walked back over thousands — and from then on a moving
// average weighing each gap 1/calGapWindow. Before the first gap there is
// no density to go by, and a grow keeps the year (nbuckets × width). An
// 8-pop moving average with an 8x band, the rule this replaced, let one
// gap 16–25x the mean push the estimate out of its band; the rebuild then
// set the width at that excursion and the next ordinary gaps pushed it
// back, so a steady 10⁵-node population flipped its width tens of times
// per realisation, each flip rethreading every live record, and how often
// it did was chaotic in the seed.
//
// Bit-reproducibility: slot membership is decided purely by the integer
// vb stored on the event at push (recomputed on resize), never by
// comparing times against accumulated float bucket boundaries, so there
// is no rounding drift to disagree with the scan. Because t -> vb is
// monotone non-decreasing, an event in a later slot can never precede an
// event in an earlier one, equal times always share a slot, and within a
// slot the minimum is taken by exact (time, seq) comparison — chain
// order never decides a tie, so the pop order is identical to the
// heap's for any schedule, whatever width or bucket count the queue
// adapts to. The differential tests in queue_diff_test.go enforce this
// against the heap oracle.
type calQueue struct {
	buckets []*event // chain heads; intrusive via event.next
	// spare is the head array resize builds into, which then swaps with
	// buckets: a queue owns two arrays and a rebuild at a size both can
	// hold allocates nothing. Only its capacity matters.
	spare   []*event
	mask    int64   // len(buckets)-1; len is a power of two
	width   float64 // seconds of simulated time per bucket slot
	vcur    int64   // scan position: the virtual bucket being drained
	lastPop float64 // time of the most recently popped event
	gap     float64 // long-window average of nonzero inter-pop gaps, drives width
	gaps    int     // nonzero gaps averaged into gap since the last drain, capped at calGapWindow
	count   int
	// min, minPrev and minVB cache findMin's answer from PeekMin until the
	// next Push, Remove or resize, so a peek and the pop after it scan
	// once; min is nil when nothing is cached. minPrev is min's
	// predecessor in its chain, nil when min is the head.
	min, minPrev *event
	minVB        int64
	// Counters for tests: rebuilds by cause, records those rebuilds
	// rethreaded, and findMin's sparse-tail fallbacks. Each moves only on
	// a rebuild or a fallback, never on an ordinary push or pop.
	grows, shrinks, widthRebuilds int
	rethreaded, fallbacks         int
}

// calMinBuckets is the smallest bucket array; shrinks stop here.
const calMinBuckets = 8

// calGapWindow sets the width estimate's memory: the estimate is the plain
// mean of the first calGapWindow nonzero inter-pop gaps after a drain,
// then a moving average that weighs each new gap 1/calGapWindow (an
// effective window of ~2k pops), so no single gap can carry it out of
// calWidthBand.
const calGapWindow = 1024

// calWidthBand is the factor the width may drift from its target (twice
// the gap average) either way before a same-size rebuild resets it.
const calWidthBand = 2

// calMaxVB clamps the virtual bucket number so that extreme time/width
// ratios cannot overflow int64. The clamp preserves monotonicity (every
// clamped event lands in the same final slot, where (time, seq) ordering
// still applies), so reproducibility survives even the pathological case.
const calMaxVB = int64(1) << 62

func newCalQueue() *calQueue {
	return &calQueue{
		buckets: make([]*event, calMinBuckets),
		mask:    calMinBuckets - 1,
		width:   1,
	}
}

func (q *calQueue) Len() int { return q.count }

// vbOf maps a time to its virtual bucket under the current width.
//
//churnlb:hotpath
func (q *calQueue) vbOf(t float64) int64 {
	f := t / q.width
	if f >= float64(calMaxVB) {
		return calMaxVB
	}
	return int64(f)
}

// link pushes e onto the head of its bucket chain. Chain position never
// affects pop order (findMin takes the exact (time, seq) minimum over
// the whole slot), so head insertion — the only O(1) spot — is safe.
//
//churnlb:hotpath
func (q *calQueue) link(e *event) {
	b := int(e.vb & q.mask)
	e.next = q.buckets[b]
	q.buckets[b] = e
}

// unlink takes e out of its chain given its predecessor there (nil when
// e is the head), marks it dead and shrinks the array once it is under a
// quarter full.
//
//churnlb:hotpath
func (q *calQueue) unlink(e, prev *event) {
	if prev == nil {
		q.buckets[int(e.vb&q.mask)] = e.next
	} else {
		prev.next = e.next
	}
	e.next = nil
	e.index = -1
	q.min = nil
	q.count--
	if len(q.buckets) > calMinBuckets && q.count < len(q.buckets)/4 {
		q.shrinks++
		q.resize(len(q.buckets) / 2)
	}
}

//churnlb:hotpath
func (q *calQueue) Push(e *event) {
	e.vb = q.vbOf(e.time)
	e.index = 0 // any non-negative value: "enqueued" for Handle.Active
	q.min = nil
	q.link(e)
	q.count++
	if q.count > 2*len(q.buckets) {
		q.grows++
		q.resize(2 * len(q.buckets))
	}
}

// Remove cancels e. Its chain has no back links, so Remove walks e's slot
// from the head to find the predecessor; cancels are rare next to pops
// and a slot holds about one record.
//
//churnlb:hotpath
func (q *calQueue) Remove(e *event) {
	var prev *event
	for p := q.buckets[int(e.vb&q.mask)]; p != e; p = p.next {
		prev = p
	}
	q.unlink(e, prev)
}

//churnlb:hotpath
func (q *calQueue) PopMin() *event {
	e := q.PeekMin()
	if e == nil {
		return nil
	}
	q.vcur = q.minVB
	// Fold the inter-pop gap into the width estimate. Zero gaps (ties)
	// are skipped: ties share a slot at any width, so letting them
	// collapse the width would only push distinct-time events apart.
	if d := e.time - q.lastPop; d > 0 {
		if q.gaps < calGapWindow {
			q.gaps++
		}
		q.gap += (d - q.gap) / float64(q.gaps)
	}
	q.lastPop = e.time
	q.unlink(e, q.minPrev)
	// Rebucket when the width has left its band around the observed event
	// density — a steady-state population never triggers the count-based
	// resizes, but its width must still track the gap (e.g. after the
	// initial fill, whose pushes arrive before any pop has measured a
	// gap). The long-window average keeps the O(count) rebuild rare;
	// bucket layout never affects pop order, only cost.
	if target := 2 * q.gap; target > 0 && (q.width > calWidthBand*target || q.width < target/calWidthBand) {
		q.widthRebuilds++
		q.resize(len(q.buckets))
	}
	return e
}

//churnlb:hotpath
func (q *calQueue) PeekMin() *event {
	if q.count == 0 {
		return nil
	}
	if q.min == nil {
		q.min, q.minPrev, q.minVB = q.findMin()
	}
	return q.min
}

// findMin locates the next event in (time, seq) order, its predecessor in
// its chain and the scan slot it belongs to, without committing anything
// (it only counts a fallback): PopMin commits the slot (so
// successive pops resume the sweep where the last one ended), PeekMin
// deliberately does not — it only caches the answer until the queue
// changes. Committing on a peek would be unsound — a later push between
// the peek and the next pop may land behind the advanced position yet
// ahead of the peeked event, and the sweep would skip it.
//
//churnlb:hotpath
func (q *calQueue) findMin() (best, prev *event, vb int64) {
	vcur := q.vcur
	for i := 0; i < len(q.buckets); i++ {
		var p *event
		for e := q.buckets[int(vcur&q.mask)]; e != nil; p, e = e, e.next {
			if e.vb == vcur && (best == nil || eventLess(e, best)) {
				best, prev = e, p
			}
		}
		if best != nil {
			return best, prev, vcur
		}
		vcur++
	}
	// A whole year swept without a hit: every event is at least one year
	// beyond the scan position (a sparse tail). Fall back to a direct
	// search over all live events and jump the scan to the winner.
	q.fallbacks++
	for _, head := range q.buckets {
		var p *event
		for e := head; e != nil; p, e = e, e.next {
			if best == nil || eventLess(e, best) {
				best, prev = e, p
			}
		}
	}
	return best, prev, best.vb
}

// drain kills every live event and returns the queue to newCalQueue's
// state — calMinBuckets buckets, width 1, no gap estimate, scan position 0,
// counters at zero — on the arrays it holds, so a reused queue walks the
// resize trajectory of a fresh one.
func (q *calQueue) drain() {
	for _, head := range q.buckets {
		for e := head; e != nil; {
			next := e.next
			e.next = nil
			e.fn = nil
			e.index = -1
			e = next
		}
	}
	buckets := q.buckets[:calMinBuckets]
	clear(buckets)
	*q = calQueue{buckets: buckets, spare: q.spare, mask: calMinBuckets - 1, width: 1}
}

// resize rebuilds the bucket array at the new size with a width
// re-estimated from the observed inter-pop gap, aiming at about one
// near-head event per slot (before the first gap, at the same year). Every event's virtual bucket is recomputed
// under the new width and the scan position rejoins at the last popped
// time — which bounds every live event's slot from below, since the
// scheduler never pushes into the past. The rebuild rethreads the
// intrusive chains in place, from one of the queue's two head arrays into
// the other: it allocates only when the other is too small, and the array
// it leaves becomes the target of the next rebuild.
func (q *calQueue) resize(nb int) {
	w := 2 * q.gap
	if w <= 0 {
		// No gap measured yet (a fill before the first pop): keep the
		// year, nbuckets × width, so the fill spreads over a grown array
		// instead of piling into its first slots, where a cancel would
		// walk the whole pile.
		w = q.width * float64(len(q.buckets)) / float64(nb)
	}
	old := q.buckets
	if cap(q.spare) < nb {
		q.buckets = make([]*event, nb)
	} else {
		q.buckets = q.spare[:nb]
		clear(q.buckets)
	}
	q.spare = old
	q.min = nil
	q.rethreaded += q.count
	q.mask = int64(nb) - 1
	q.width = w
	q.vcur = q.vbOf(q.lastPop)
	for _, head := range old {
		for e := head; e != nil; {
			next := e.next
			e.vb = q.vbOf(e.time)
			q.link(e)
			e = next
		}
	}
}
