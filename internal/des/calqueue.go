package des

// calQueue is an adaptive calendar queue (Brown 1988) — the "timer
// wheel" EventQueue backend. Each live event has a *virtual bucket
// number* vb = floor(time/width); the bucket array (a power of two) is
// indexed vb mod nbuckets, so one array slot holds the same phase of
// every "year" (one sweep of the whole array). A pop scans slots forward
// from the current scan position, taking the (time, seq)-minimum among
// the events whose vb equals the slot being scanned; with the bucket
// count resized to track the live-event count and the width tracking the
// observed inter-event gap, the scan visits O(1) events on average, which
// makes push, pop and remove amortised O(1) in the dense-timer regime (a
// churn-heavy simulation holding ~2n memoryless timers) where the binary
// heap pays O(log n) sifts.
//
// The queue has two tiers split at farBound, a virtual bucket number. An
// event with vb < farBound is near: it hangs in a bucket chain. An event
// with vb ≥ farBound is far: it sits in the unsorted far array as a
// {time, record} entry, and its record's index holds its slot + 1, so a
// cancel swaps the last entry into the hole in O(1). The far array is
// laid out in fixed blocks (farTier): it grows a block at a time with its
// population, never by copying, and keeps its blocks across a drain. The far tier is the
// "Top" of the ladder queue (Tang, Goh & Thng, ACM TOMACS 15(3), 2005)
// folded into the calendar: a simulation sets a failure timer of mean
// 200 s beside every service stage of ~0.7 s, and without it those
// timers lay in the same chains as the next completions, where every
// scan of a slot walked past them. When the committed scan position
// comes within half a year of farBound, a sweep raises farBound to one
// year past the scan position and links every far entry that now falls
// below it, reading the entries' inline times in order and touching only
// the records it moves. A resize sets farBound the same way and
// re-partitions both tiers under the new width.
//
// Invariant: every chained record's vb lies in [vcur, farBound), every
// far entry's vb (from its inline time) is ≥ farBound, and farBound ≤
// vcur + nbuckets. So a slot never holds records of two years, the scan
// finds the near minimum within one year, and — because t -> vb is
// monotone and equal times share a vb — every near event precedes every
// far event: the near minimum is the global minimum. When the near tier
// is empty, findMin jumps straight to the earliest far entry instead of
// scanning empty years; that jump replaced a sparse-tail fallback which,
// after a year swept without a hit, walked every chain. A far record's
// vb field is not kept up to date: a sweep or resize that links it
// computes it afresh.
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
// Ties: many events on one instant share one slot at any width, and a
// scan of k of them costs O(k), so draining them scan by scan would cost
// O(k²) — deterministic churn on a cluster of equal rates ties every
// node's timers this way. So when a scan finds a slot of more than
// calSortMin records, it sorts that chain into (time, seq) order once,
// allocation-free, and remembers the slot's virtual bucket (sortedVB) and
// the chain's last record (sortedTail). While it stays sorted the head is
// the slot's minimum, found without a scan and unlinked without a walk, so
// each of the k pops costs O(1). The invariant below puts one vb in a
// slot, so a pop or a cancel, which only take records out, keep the chain
// sorted. A link into that vb of a record that sorts after the tail — the
// usual case, an event booked at the clock behind ties taking a later seq
// — is appended behind it and keeps the sort; a link that sorts before the
// tail, or a resize (which rethreads every chain), forgets it. The sort is
// a natural merge sort that also takes descending runs, so sorting again
// costs O(k) when a few records were linked since, or when a resize
// rethreaded the sorted chain, which reverses it.
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
// Bit-reproducibility: tier and slot membership are decided purely by
// the integer vb computed from the event's time under the current width,
// never by comparing times against accumulated float bucket boundaries,
// so there is no rounding drift to disagree with the scan. Because t ->
// vb is monotone non-decreasing, an event in a later slot or tier can
// never precede one in an earlier slot or tier, equal times always share
// a slot, and within a slot (or among the far entries a jump compares)
// the minimum is taken by exact (time, seq) comparison — chain and array
// order never decide a tie, so the pop order is identical to the heap's
// for any schedule, whatever width or bucket count the queue adapts to.
// The differential tests in queue_diff_test.go enforce this against the
// heap oracle.
type calQueue struct {
	buckets []*event // chain heads; intrusive via event.next
	// spare is the head array resize builds into, which then swaps with
	// buckets: a queue owns two arrays and a rebuild at a size both can
	// hold allocates nothing. Only its capacity matters.
	spare []*event
	// far is the far tier: every live event with vb ≥ farBound, unsorted;
	// the record of entry i has index i+1.
	far      farTier
	farBound int64   // the first virtual bucket of the far tier
	mask     int64   // len(buckets)-1; len is a power of two
	width    float64 // seconds of simulated time per bucket slot
	vcur     int64   // scan position: the virtual bucket being drained
	lastPop  float64 // time of the most recently popped event
	gap      float64 // long-window average of nonzero inter-pop gaps, drives width
	gaps     int     // nonzero gaps averaged into gap since the last drain, capped at calGapWindow
	count    int     // live events in both tiers
	// min, minPrev and minVB cache findMin's answer from PeekMin until the
	// next Push, Remove or resize, so a peek and the pop after it scan
	// once; min is nil when nothing is cached. minPrev is min's
	// predecessor in its chain, nil when min is the head or far.
	min, minPrev *event
	minVB        int64
	// sortedVB is the virtual bucket whose chain findMin sorted into
	// (time, seq) order, its head the slot's minimum; -1 for none.
	// sortedTail is that chain's last record, nil while it is empty.
	sortedVB   int64
	sortedTail *event
	// Counters for tests: rebuilds by cause and the chained records they
	// rethreaded; pushes that went far; jumps over an empty near tier;
	// sweeps and the far entries they linked; far entries a resize linked
	// and chained records it sent far; slot sorts and the records they
	// ordered. None moves on a push or pop that stays in the near tier
	// and scans no long slot.
	grows, shrinks, widthRebuilds, rethreaded int
	farPushes, jumps, sweeps, migrated        int
	toNear, toFar, sorts, sorted              int
}

// farEntry is one far-tier event: its time inline, so a sweep or a jump
// reads the array in order without touching the records.
type farEntry struct {
	time float64
	e    *event
}

// farBlock is the number of entries in one block of the far tier: 16 KiB.
const farBlock = 1024

// farTier is the calendar's far array: n entries laid out over fixed
// blocks, entry i in blocks[i/farBlock]. Appending past the last block
// allocates one more and copies nothing, so a population of F far events
// costs about F entries, where a doubling slice would allocate twice that
// on its way up and a resize sending many records far at once would
// cascade. Blocks beyond n stay allocated for the next entries.
type farTier struct {
	blocks []*[farBlock]farEntry
	n      int
}

// at returns entry i.
//
//churnlb:hotpath
func (f *farTier) at(i int) *farEntry {
	return &f.blocks[uint(i)/farBlock][uint(i)%farBlock]
}

// calMinBuckets is the smallest bucket array; shrinks stop here.
const calMinBuckets = 8

// calSortMin is the longest slot findMin scans without sorting it. The
// width aims at about one record per slot, so only ties, or a width not
// yet rebuilt to the density, make longer ones.
const calSortMin = 16

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
		buckets:  make([]*event, calMinBuckets),
		farBound: calMinBuckets,
		mask:     calMinBuckets - 1,
		width:    1,
		sortedVB: -1,
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

// link pushes e onto the head of the chain of bucket vb and marks it
// near. Chain position never affects pop order (findMin takes the exact
// (time, seq) minimum over the whole slot), so head insertion — the only
// O(1) spot — is safe. Into the sorted slot, a record that sorts after
// the tail goes behind it instead, which keeps the chain sorted; any other
// record unsorts the slot.
//
//churnlb:hotpath
func (q *calQueue) link(e *event, vb int64) {
	b := int(vb & q.mask)
	e.vb = vb
	e.index = 0
	if vb == q.sortedVB {
		if t := q.sortedTail; t == nil || eventLess(t, e) {
			e.next = nil
			if t == nil {
				q.buckets[b] = e
			} else {
				t.next = e
			}
			q.sortedTail = e
			return
		}
		q.sortedVB, q.sortedTail = -1, nil
	}
	e.next = q.buckets[b]
	q.buckets[b] = e
}

// push appends e and records its slot in e.index (slot + 1).
//
//churnlb:hotpath
func (f *farTier) push(e *event) {
	if f.n == len(f.blocks)*farBlock {
		f.grow()
	}
	*f.at(f.n) = farEntry{e.time, e}
	f.n++
	e.index = f.n
}

// grow appends a block: push's allocating path, kept out of the hot path
// (a tier that has held n entries holds its blocks from then on).
func (f *farTier) grow() {
	f.blocks = append(f.blocks, new([farBlock]farEntry))
}

// remove takes entry i out, moving the last entry into its slot.
//
//churnlb:hotpath
func (f *farTier) remove(i int) {
	f.n--
	if i != f.n {
		x := f.at(i)
		*x = *f.at(f.n)
		x.e.index = i + 1
	}
}

// unlink takes e out of its tier — out of its chain given its predecessor
// there (nil when e is the head), or out of the far array — marks it dead,
// leaving e.next for the free list to overwrite, and shrinks the array
// once it is under a quarter full.
//
//churnlb:hotpath
func (q *calQueue) unlink(e, prev *event) {
	switch {
	case e.index > 0:
		q.far.remove(e.index - 1)
	case prev == nil:
		q.buckets[int(e.vb&q.mask)] = e.next
	default:
		prev.next = e.next
	}
	if e == q.sortedTail {
		q.sortedTail = prev
	}
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
	q.min = nil
	q.count++
	if vb := q.vbOf(e.time); vb < q.farBound {
		q.link(e, vb)
	} else {
		q.farPushes++
		q.far.push(e)
	}
	if q.count > 2*len(q.buckets) {
		q.grows++
		q.resize(2 * len(q.buckets))
	}
}

// Remove cancels e. A far entry leaves its array in O(1). A chain has no
// back links, so Remove walks a near record's slot from the head to find
// the predecessor; cancels are rare next to pops and a slot holds about
// one record.
//
//churnlb:hotpath
func (q *calQueue) Remove(e *event) {
	var prev *event
	if e.index == 0 {
		for p := q.buckets[int(e.vb&q.mask)]; p != e; p = p.next {
			prev = p
		}
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
	// Half a year of the near tier is left: sweep the far tier. A resize
	// above has just set farBound a whole year ahead.
	if 2*(q.farBound-q.vcur) < int64(len(q.buckets)) {
		q.sweeps++
		q.farBound = q.vcur + int64(len(q.buckets))
		q.migrated += q.migrate()
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
// its chain and the scan slot it belongs to, without committing anything:
// PopMin commits the slot (so successive pops resume the sweep where the
// last one ended), PeekMin deliberately does not — it only caches the
// answer until the queue changes. Committing on a peek would be unsound —
// a later push between the peek and the next pop may land behind the
// advanced position yet ahead of the peeked event, and the sweep would
// skip it.
//
// With the near tier empty the answer is the earliest far entry (a jump).
// Otherwise it is the near minimum, which the invariant puts in a slot
// below farBound, less than a year from the scan position: the head of a
// sorted slot, else the minimum of a scan of the slot, which sorts it
// when it is longer than calSortMin.
//
//churnlb:hotpath
func (q *calQueue) findMin() (best, prev *event, vb int64) {
	if q.count == q.far.n {
		return q.jump()
	}
	for vb = q.vcur; vb < q.farBound; vb++ {
		b := int(vb & q.mask)
		if vb == q.sortedVB && q.buckets[b] != nil {
			return q.buckets[b], nil, vb
		}
		var p *event
		k := 0
		for e := q.buckets[b]; e != nil; p, e = e, e.next {
			k++
			if e.vb == vb && (best == nil || eventLess(e, best)) {
				best, prev = e, p
			}
		}
		if best == nil {
			continue
		}
		if k > calSortMin {
			q.sorts++
			q.sorted += k
			q.buckets[b], q.sortedTail = sortChain(q.buckets[b])
			q.sortedVB = vb
			return q.buckets[b], nil, vb
		}
		return best, prev, vb
	}
	panic("des: calendar queue holds a near event outside [vcur, farBound)")
}

// sortChain sorts a chain into (time, seq) order and returns its new
// head and last record, relinking the records it holds and allocating
// nothing. It is a natural merge sort: each pass merges neighbouring
// ascending runs in pairs, so a chain of k records in r runs costs
// O(k log r).
func sortChain(head *event) (first, last *event) {
	for {
		var out *event
		last = nil
		pairs := 0
		for p := head; p != nil; pairs++ {
			a, aLast, rest := cutRun(p)
			b, bLast, rest := cutRun(rest)
			m, mLast := mergeRuns(a, aLast, b, bLast)
			if out == nil {
				out = m
			} else {
				last.next = m
			}
			last, p = mLast, rest
		}
		if pairs <= 1 {
			return out, last
		}
		head = out
	}
}

// cutRun detaches the run at the front of chain p, ascending or
// descending, returning it in ascending order — a descending run is
// reversed as it is cut — with its first and last records and the rest
// of the chain; all nil for an empty chain. A resize rethreads a sorted
// chain onto one head in reverse, which this sees as a single run.
func cutRun(p *event) (first, last, rest *event) {
	if p == nil {
		return nil, nil, nil
	}
	if p.next != nil && eventLess(p.next, p) {
		first, last, rest = p, p, p.next
		p.next = nil
		for rest != nil && eventLess(rest, first) {
			rest.next, first, rest = first, rest, rest.next
		}
		return first, last, rest
	}
	last = p
	for last.next != nil && eventLess(last, last.next) {
		last = last.next
	}
	rest, last.next = last.next, nil
	return p, last, rest
}

// mergeRuns merges the ascending runs a…aLast and b…bLast (b may be
// empty) and returns the merged run's first and last records.
func mergeRuns(a, aLast, b, bLast *event) (first, last *event) {
	if b == nil {
		return a, aLast
	}
	tail := &first
	for a != nil && b != nil {
		if eventLess(b, a) {
			*tail, b = b, b.next
		} else {
			*tail, a = a, a.next
		}
		tail = &(*tail).next
	}
	if a != nil {
		*tail = a
		return first, aLast
	}
	*tail = b
	return first, bLast
}

// jump returns the earliest far entry's record and virtual bucket: the
// minimum of a queue whose near tier is empty. It compares inline times
// and reads a record only to break a tie.
func (q *calQueue) jump() (*event, *event, int64) {
	q.jumps++
	b := q.far.at(0)
	for i := 1; i < q.far.n; i++ {
		if f := q.far.at(i); f.time < b.time || f.time == b.time && f.e.seq < b.e.seq {
			b = f
		}
	}
	return b.e, nil, q.vbOf(b.time)
}

// migrate links every far entry whose virtual bucket now falls below
// farBound and returns how many it linked. Only the entries it moves, and
// the ones it swaps into their slots, have their records touched.
func (q *calQueue) migrate() int {
	n := 0
	for i := 0; i < q.far.n; {
		f := *q.far.at(i)
		vb := q.vbOf(f.time)
		if vb >= q.farBound {
			i++
			continue
		}
		q.far.remove(i) // the last entry moves into slot i: look at it next
		q.link(f.e, vb)
		n++
	}
	return n
}

// drain kills every live event, leaving its chain link stale (newEvent
// clears it when the record is reissued), and returns the queue to
// newCalQueue's state — calMinBuckets buckets, width 1, no gap estimate,
// scan position 0, counters at zero — on the arrays it holds, so a reused
// queue walks the resize trajectory of a fresh one.
func (q *calQueue) drain() {
	for _, head := range q.buckets {
		for e := head; e != nil; e = e.next {
			e.index = -1
		}
	}
	for i := 0; i < q.far.n; i++ {
		q.far.at(i).e.index = -1
	}
	buckets := q.buckets[:calMinBuckets]
	clear(buckets)
	*q = calQueue{
		buckets: buckets, spare: q.spare, far: farTier{blocks: q.far.blocks},
		farBound: calMinBuckets, mask: calMinBuckets - 1, width: 1, sortedVB: -1,
	}
}

// resize rebuilds the bucket array at the new size with a width
// re-estimated from the observed inter-pop gap, aiming at about one
// near-head event per slot (before the first gap, at the same year).
// The scan position rejoins at the last popped time — which bounds every
// live event's slot from below, since the scheduler never pushes into the
// past — and farBound moves a year past it. Then both tiers are
// re-partitioned under the new width: far entries now below farBound are
// linked, and every chained record is rethreaded into its new slot or,
// beyond farBound, sent far. The chains rethread in place, from one of
// the queue's two head arrays into the other: the rebuild allocates only
// when the other is too small (or the far tier needs a block), and the
// array it leaves becomes the target of the next rebuild.
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
	q.sortedVB, q.sortedTail = -1, nil
	q.rethreaded += q.count - q.far.n
	q.mask = int64(nb) - 1
	q.width = w
	q.vcur = q.vbOf(q.lastPop)
	q.farBound = q.vcur + int64(nb)
	q.toNear += q.migrate()
	for _, head := range old {
		for e := head; e != nil; {
			next := e.next
			if vb := q.vbOf(e.time); vb < q.farBound {
				q.link(e, vb)
			} else {
				e.next = nil
				q.far.push(e)
				q.toFar++
			}
			e = next
		}
	}
}
