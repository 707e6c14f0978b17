package des

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"churnlb/internal/xrand"
)

// The tests in this file enforce the EventQueue contract: every backend
// fires the exact same schedule in the exact same order. The heap is the
// oracle; the calendar queue (and any future backend) is replayed against
// it over randomized programs of schedule/Cancel/ProcessNext/Run operations,
// including same-time ties, events scheduled by firing events, sparse
// far-future tails (the calendar queue's direct-search path) and
// cancellations that force bucket compaction and resizes. Programs may
// also book batches: on every backend they go through BatchIndexed and
// CommitBatch, into the scheduler's sorted run, while the oracle schedules
// each of their events alone with AtIndexed — so the run and the batches
// committed behind it onto the queue are held to the queue's own order.

// qop is one step of a queue-differential program. Programs are generated
// once and replayed identically against each backend, so the only way two
// backends can diverge is by ordering events differently.
type qop struct {
	kind      int     // 0 schedule, 1 cancel, 2 step, 3 run-horizon, 4 batch, 5 peek, 6 cancel by rank
	delta     float64 // schedule: offset from the clock at execution time
	child     float64 // schedule: >= 0 means the event schedules a child at now+child when it fires
	cancelSel int     // cancel: index into the retained handles (mod len); cancel by rank: the rank (mod 3)
	horizon   float64 // run-horizon: offset from the clock
	batch     []batchEv
}

// batchEv is one event of a batch op: delta from the clock at execution
// time or, for tie >= 0, the exact time of the retained handle
// handles[tie mod len] when that event is still pending. A plain event is
// scheduled with AtIndexed between the batch's bookings, the way a
// balancing episode arms a sender's completion timer between its sends.
type batchEv struct {
	delta float64
	tie   int
	plain bool
}

// genProgram derives a random program from a seed. Deltas mix a quantized
// grid (forcing exact float ties), dense exponential-like spacing, and
// rare far-future outliers.
func genProgram(seed uint64, nOps int) []qop {
	rng := xrand.NewStream(seed, 0xD1FF)
	ops := make([]qop, 0, nOps)
	for i := 0; i < nOps; i++ {
		o := qop{}
		switch r := rng.Float64(); {
		case r < 0.55:
			o.kind = 0
			switch d := rng.Float64(); {
			case d < 0.30: // quantized: exact ties across separate At calls
				o.delta = float64(rng.Intn(12)) * 0.25
			case d < 0.92: // dense
				o.delta = rng.Float64() * 3
			default: // sparse tail, far beyond the calendar "year"
				o.delta = 100 + rng.Float64()*10000
			}
			if rng.Float64() < 0.3 {
				o.child = rng.Float64() * 2
			} else {
				o.child = -1
			}
		case r < 0.70:
			o.kind = 1
			o.cancelSel = rng.Intn(1 << 20)
		case r < 0.95:
			o.kind = 2
		default:
			o.kind = 3
			o.horizon = rng.Float64() * 4
		}
		ops = append(ops, o)
	}
	return ops
}

// genBatch draws one batch op of 1–600 events, small ones as often as
// large: events exactly at the clock, events tied to the exact time of a
// pending event, quantized events tied with each other, dense ones and a
// sparse tail.
func genBatch(rng *xrand.Rand) qop {
	size := 1 + rng.Intn(20)
	if rng.Float64() < 0.5 {
		size = 1 + rng.Intn(600)
	}
	o := qop{kind: 4, batch: make([]batchEv, size)}
	for j := range o.batch {
		ev := batchEv{tie: -1, plain: rng.Float64() < 0.1}
		switch r := rng.Float64(); {
		case r < 0.15: // at the clock
		case r < 0.35:
			ev.tie = rng.Intn(1 << 20)
		case r < 0.55:
			ev.delta = float64(rng.Intn(12)) * 0.25
		case r < 0.98:
			ev.delta = rng.Float64() * 3
		default:
			ev.delta = 100 + rng.Float64()*10000
		}
		o.batch[j] = ev
	}
	return o
}

// sprinkleBatches returns a copy of ops with a batch op in front of about
// one op in ten, and one in front of the last op, so a run can also be
// pending at the full drain a program ends with.
func sprinkleBatches(ops []qop, seed uint64) []qop {
	rng := xrand.NewStream(seed, 0xBA7C)
	out := make([]qop, 0, len(ops)+len(ops)/8)
	for i, o := range ops {
		if rng.Float64() < 0.1 || i == len(ops)-1 {
			out = append(out, genBatch(rng))
		}
		out = append(out, o)
	}
	return out
}

// fireRec is one fired event: exact time bits plus the event's program id.
type fireRec struct {
	timeBits uint64
	id       int
}

// progResult is what a program left: its fire log, the final clock bits
// and the scheduler's Fired count.
type progResult struct {
	fires []fireRec
	now   uint64
	count uint64
}

// progRun is one scheduler executing queue-differential programs: the
// fire log and the handles accumulate across exec calls, so a test can
// stop a program midway, Reset the scheduler and run another on it.
type progRun struct {
	s       *Scheduler
	fired   []fireRec
	handles []Handle
	// child maps a schedule op's event id to the delay of the child it
	// books when it fires (negative: none).
	child map[int32]float64
	// batched sends batch ops through BatchIndexed and CommitBatch; the
	// oracle leaves it false and schedules each of their events alone.
	batched bool
	// commits counts batch commits by what they did with the batch: it
	// became the run, or went onto the queue behind a pending run.
	commits [2]int
	// beforeOp, when set, runs ahead of every op.
	beforeOp func(o qop)
}

// The event kinds a program books: an event of a schedule op (which may
// book a child when it fires), that child, and a batch op's event.
const (
	progScheduled int32 = iota
	progChild
	progBatched
)

// dispatch logs every fired event's id and books a scheduled event's
// child, if its op asked for one.
func (r *progRun) dispatch(kind, arg int32) {
	r.fired = append(r.fired, fireRec{math.Float64bits(r.s.Now()), int(arg)})
	if kind == progScheduled {
		if child := r.child[arg]; child >= 0 {
			r.s.AfterIndexed(child, progChild, 1_000_000+arg)
		}
	}
}

// exec runs ops in order, without the final drain.
func (r *progRun) exec(ops []qop) {
	s := r.s
	s.SetDispatcher(r.dispatch)
	if r.child == nil {
		r.child = map[int32]float64{}
	}
	for i, o := range ops {
		if r.beforeOp != nil {
			r.beforeOp(o)
		}
		switch o.kind {
		case 0:
			r.child[int32(i)] = o.child
			r.handles = append(r.handles, s.AfterIndexed(o.delta, progScheduled, int32(i)))
		case 1, 6:
			r.target(o).Cancel()
		case 2:
			s.ProcessNext()
		case 3:
			s.Run(s.Now() + o.horizon)
		case 4:
			r.book(i, o.batch)
		case 5:
			s.PeekNextTime()
		}
	}
}

// target is the handle a cancel op names: a retained handle by index,
// live or not, or for a cancel by rank the live retained event of that
// rank in (time, seq) order — the earliest or one of the two behind it,
// which is the same event on every backend. The zero Handle when there is
// none.
func (r *progRun) target(o qop) Handle {
	if o.kind == 1 {
		if len(r.handles) == 0 {
			return Handle{}
		}
		return r.handles[o.cancelSel%len(r.handles)]
	}
	var live []Handle
	for _, h := range r.handles {
		if h.Active() {
			live = append(live, h)
		}
	}
	sort.Slice(live, func(i, j int) bool { return eventLess(live[i].e, live[j].e) })
	if k := o.cancelSel % 3; k < len(live) {
		return live[k]
	}
	return Handle{}
}

// book executes one batch op.
func (r *progRun) book(op int, batch []batchEv) {
	s := r.s
	for j, ev := range batch {
		at := s.Now() + ev.delta
		if ev.tie >= 0 && len(r.handles) > 0 {
			if h := r.handles[ev.tie%len(r.handles)]; h.Active() {
				at = h.e.time
			}
		}
		id := int32(2_000_000 + op*1000 + j)
		if r.batched && !ev.plain {
			s.BatchIndexed(at, progBatched, id)
		} else {
			s.AtIndexed(at, progBatched, id)
		}
	}
	if !r.batched {
		return
	}
	booked, pending, queued := len(s.batch), len(s.run)-s.head, s.q.Len()
	s.CommitBatch()
	switch run := len(s.run) - s.head; {
	case booked == 0:
	case pending == 0 && run == booked:
		r.commits[0]++
	case pending > 0 && run == pending && s.q.Len() == queued+booked:
		r.commits[1]++
	default:
		panic(fmt.Sprintf("a commit of %d events with %d pending in the run left %d in the run and %d more on the queue",
			booked, pending, run, s.q.Len()-queued))
	}
}

// finish fires whatever is still pending and returns what the program
// left.
func (r *progRun) finish() progResult {
	for r.s.ProcessNext() {
	}
	return progResult{r.fired, math.Float64bits(r.s.Now()), r.s.Fired()}
}

// runProgram replays a program on a fresh scheduler of the given backend,
// batch ops booked as runs when batched, and returns what it left after
// the final drain.
func runProgram(kind QueueKind, batched bool, ops []qop) progResult {
	r := &progRun{s: NewWithQueue(kind), batched: batched}
	r.exec(ops)
	return r.finish()
}

// assertSameOrder replays ops on the heap oracle, which books no run, and
// on every backend with its batches booked as runs, and fails on the
// first divergence.
func assertSameOrder(t *testing.T, ops []qop) bool {
	t.Helper()
	ref := runProgram(QueueHeap, false, ops)
	for _, kind := range QueueKinds() {
		if !sameFires(t, kind.String(), runProgram(kind, true, ops), ref) {
			return false
		}
	}
	return true
}

// sameFires fails on the first difference between a backend's result and
// the heap oracle's.
func sameFires(t *testing.T, label string, got, ref progResult) bool {
	t.Helper()
	if len(got.fires) != len(ref.fires) {
		t.Errorf("%s fired %d events, heap fired %d", label, len(got.fires), len(ref.fires))
		return false
	}
	for i := range ref.fires {
		if g, r := got.fires[i], ref.fires[i]; g != r {
			t.Errorf("%s diverged at fire %d: got id=%d t=%x, heap id=%d t=%x",
				label, i, g.id, g.timeBits, r.id, r.timeBits)
			return false
		}
	}
	if got.now != ref.now {
		t.Errorf("%s final clock bits %x, heap %x", label, got.now, ref.now)
		return false
	}
	if got.count != ref.count {
		t.Errorf("%s Fired() = %d, heap %d", label, got.count, ref.count)
		return false
	}
	return true
}

// TestQueueDifferentialSprinkledBatches: a program with batches sprinkled
// in fires, on every backend, exactly what the heap fires for the same
// program with every batched event scheduled alone.
func TestQueueDifferentialSprinkledBatches(t *testing.T) {
	f := func(seed uint16) bool {
		return assertSameOrder(t, sprinkleBatches(genProgram(uint64(seed), 300+int(seed)%200), uint64(seed)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueDifferentialBatch holds runs to the heap oracle on both
// backends over 20 seeds of programs whose batches of 1–600 events tie
// with pending events and with the clock, become the run or, with a run
// pending, go onto the queue, between cancellations of queue events — and
// a scheduler Reset with a run pending then fires a whole program exactly
// as a fresh one does. Every seed must agree in fire order, clock and
// Fired(); over all of them, both ways a commit can go must have happened.
func TestQueueDifferentialBatch(t *testing.T) {
	for _, kind := range QueueKinds() {
		var commits [2]int
		for seed := uint64(0); seed < 20; seed++ {
			ops := sprinkleBatches(genProgram(seed, 400), seed)
			ref := runProgram(QueueHeap, false, ops)
			r := &progRun{s: NewWithQueue(kind), batched: true}
			r.exec(ops)
			if !sameFires(t, kind.String(), r.finish(), ref) {
				t.Fatalf("%v seed %d", kind, seed)
			}
			for i, n := range r.commits {
				commits[i] += n
			}

			rng := xrand.NewStream(seed, 0x2E5E7)
			pre := &progRun{s: NewWithQueue(kind), batched: true}
			pre.exec(sprinkleBatches(genProgram(seed+1000, 200), seed+1000)[:50+rng.Intn(150)])
			pre.book(0, genBatch(rng).batch)
			if len(pre.s.run) == 0 {
				t.Fatalf("%v seed %d: no run pending before the Reset", kind, seed)
			}
			pre.s.Reset()
			pre.fired, pre.handles = nil, nil
			pre.exec(ops)
			if !sameFires(t, kind.String()+" after a Reset with a run pending", pre.finish(), ref) {
				t.Fatalf("%v seed %d", kind, seed)
			}
		}
		for i, what := range []string{"became the run", "went onto the queue behind a pending run"} {
			if commits[i] == 0 {
				t.Errorf("%v: no batch %s", kind, what)
			}
		}
	}
}

// TestWarmBatchAllocatesNothing: once the run's two arrays have grown to
// a cycle's needs, booking a batch that becomes the run and one that goes
// onto the queue behind it, and firing both, allocates nothing — whether
// the scheduler was fresh or already held a population, recycled records
// and a part-used slab. The population lies far beyond the calendar's
// year, so on the calendar it is live in the far tier throughout, and the
// cycles' sweeps read past it.
func TestWarmBatchAllocatesNothing(t *testing.T) {
	const burst = 3000
	for _, kind := range QueueKinds() {
		for _, standing := range []int{0, 300} {
			s := NewWithQueue(kind)
			s.SetDispatcher(func(int32, int32) {})
			rng := xrand.NewStream(5, uint64(standing))
			var hs []Handle
			for i := 0; i < standing; i++ {
				hs = append(hs, s.AfterIndexed(1e6+rng.Float64()*10, 0, int32(i)))
			}
			for i := 0; i < standing/3; i++ {
				hs[i*3].Cancel()
			}
			live := s.Len()
			book := func(k int) {
				for i := 0; i < k; i++ {
					s.BatchIndexed(s.Now()+rng.Float64()*10, 0, int32(i))
				}
				s.CommitBatch()
			}
			cycle := func() {
				book(burst) // the run
				for i := 0; i < burst/2; i++ {
					s.ProcessNext()
				}
				book(burst / 8) // onto the queue: a run is pending
				for s.Len() > live {
					s.ProcessNext()
				}
			}
			// The arrays trade places from run to run: a few cycles grow
			// both of them to the burst.
			for i := 0; i < 4; i++ {
				cycle()
			}
			if allocs := testing.AllocsPerRun(3, cycle); allocs != 0 {
				t.Errorf("%v, %d standing: %v allocations per warm batch cycle", kind, standing, allocs)
			}
			if s.Len() != live {
				t.Fatalf("%v: %d pending, want %d", kind, s.Len(), live)
			}
			if q, ok := s.q.(*calQueue); ok && q.far.n != live {
				t.Fatalf("%v, %d standing: %d far entries, want the %d standing events", kind, standing, q.far.n, live)
			}
		}
	}
}

// TestQueueDifferentialReset: a scheduler that ran program A to a random
// point — events still pending, some cancelled, maybe a run pending, its
// records and arrays grown to A's needs — and was Reset fires program B
// exactly as a fresh scheduler fires B alone, on both backends: same
// order, same clock, same Fired count, and nothing of A ever fires again.
// Every handle A issued is dead from the Reset on, and stays dead while
// its record carries B's events: Cancel on all of them ahead of every op
// of B must change nothing (which is what fails if Reset restarts the
// sequence counter — A's k-th handle would then match the k-th event of B
// on the same record — or leaves a live event linked).
func TestQueueDifferentialReset(t *testing.T) {
	for _, kind := range QueueKinds() {
		for seed := uint64(0); seed < 20; seed++ {
			rng := xrand.NewStream(seed, 0x2E5E7)
			opsA := sprinkleBatches(genProgram(seed, 500), seed)
			opsB := sprinkleBatches(genProgram(seed+1000, 300+int(seed)*10), seed+1000)

			fresh := &progRun{s: NewWithQueue(kind), batched: true}
			fresh.exec(opsB)
			want := fresh.finish()

			r := &progRun{s: NewWithQueue(kind), batched: true}
			r.exec(opsA[:100+rng.Intn(len(opsA)-100)])
			r.handles = append(r.handles, r.s.AfterIndexed(1e6, progBatched, -1)) // fires only if Reset leaks it
			firedA := len(r.fired)
			r.s.Reset()
			if r.s.Len() != 0 || r.s.HasPending() || r.s.Now() != 0 || r.s.Fired() != 0 {
				t.Fatalf("%v seed %d: after Reset Len=%d Now=%v Fired=%d, want a fresh scheduler's zeros",
					kind, seed, r.s.Len(), r.s.Now(), r.s.Fired())
			}
			handlesA := r.handles
			r.fired, r.handles = nil, nil
			r.beforeOp = func(qop) {
				for _, h := range handlesA {
					if h.Active() {
						t.Fatalf("%v seed %d: a handle from before Reset is active", kind, seed)
					}
					h.Cancel()
				}
			}
			r.exec(opsB)
			if !sameFires(t, kind.String()+" after Reset", r.finish(), want) {
				t.Fatalf("%v seed %d: A fired %d events before the Reset", kind, seed, firedA)
			}
		}
	}
}

// mallocsOf counts the heap allocations of one call of f, the way
// testing.AllocsPerRun does but without its warm-up call.
func mallocsOf(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.Mallocs
	f()
	runtime.ReadMemStats(&m)
	return m.Mallocs - before
}

// TestResetKeepsCapacity: Reset keeps every array a run grew — the record
// slabs, the queue's arrays (the calendar's far-tier blocks among them)
// and the run's two; the free list is chained through the records and
// has no array — so once a cycle of queue events, some of them far beyond
// the calendar's year, a batch that becomes the run, a batch that goes
// onto the queue behind it, some firing and a Reset with the far events
// still live has run twice, the next cycles allocate nothing, and a Reset
// itself never allocates.
func TestResetKeepsCapacity(t *testing.T) {
	const k = 3000
	for _, kind := range QueueKinds() {
		s := NewWithQueue(kind)
		rng := xrand.NewStream(7, 7)
		dispatch := func(int32, int32) {}
		book := func(n int) {
			for i := 0; i < n; i++ {
				s.BatchIndexed(s.Now()+rng.Float64()*10, 0, int32(i))
			}
			s.CommitBatch()
		}
		farLive := 0 // far entries a calendar held at its last Reset
		cycle := func() {
			s.SetDispatcher(dispatch)
			for i := 0; i < k; i++ {
				s.AfterIndexed(rng.Float64()*10, 0, int32(i))
				if i%4 == 0 {
					s.AfterIndexed(1000+rng.Float64()*10, 0, int32(i))
				}
			}
			book(k)
			for i := 0; i < k/2; i++ {
				s.ProcessNext()
			}
			book(k / 2)
			for i := 0; i < k/2; i++ {
				s.ProcessNext()
			}
			if q, ok := s.q.(*calQueue); ok {
				farLive = q.far.n
			}
			s.Reset()
		}
		cycle()
		cycle()
		book(k / 4) // a run pending at the Reset below
		runCap := cap(s.run) + cap(s.batch)
		if n := mallocsOf(s.Reset); n != 0 {
			t.Errorf("%v: Reset with a run pending allocated %d times", kind, n)
		}
		if got := cap(s.run) + cap(s.batch); got != runCap || len(s.run) != 0 || len(s.batch) != 0 {
			t.Errorf("%v: after Reset the run's arrays hold %d events' room (was %d), run %d, batch %d: want the room kept and both empty",
				kind, got, runCap, len(s.run), len(s.batch))
		}
		if allocs := testing.AllocsPerRun(5, cycle); allocs != 0 {
			t.Errorf("%v: %v allocations per queue-batch-Reset cycle on a warm scheduler, want 0", kind, allocs)
		}
		if q, ok := s.q.(*calQueue); ok && (farLive < k/4 || q.far.n != 0 || len(q.far.blocks) == 0) {
			t.Errorf("%v: %d far entries live at the last Reset, %d after it in %d kept blocks: want at least %d, none, and the blocks kept",
				kind, farLive, q.far.n, len(q.far.blocks), k/4)
		}
	}
}

// TestDrainAllocatesNothing: retiring a record costs no memory. A fresh
// scheduler books 10⁴ events, then half of them are cancelled and the rest
// fired; every record goes onto the free list, which is chained through
// the records themselves, so the drain allocates nothing on the heap. On
// the calendar the one allowed allocation is a head array for a same-size
// width rebuild, when the spare array (left at half the size by the
// fill's last grow) is too small: shrinks fit in either array, and the
// drain neither grows the queue nor adds a far block. On the heap, which
// never links a live record, a record reused off the free list or
// reissued from a slab after a Reset must carry no link.
func TestDrainAllocatesNothing(t *testing.T) {
	const n = 10000
	for _, kind := range QueueKinds() {
		s := NewWithQueue(kind)
		s.SetDispatcher(func(int32, int32) {})
		rng := xrand.NewStream(11, 0xD7A1)
		hs := make([]Handle, n)
		for i := range hs {
			hs[i] = s.AfterIndexed(rng.Float64()*10, 0, int32(i))
		}
		var was calQueue
		q, cal := s.q.(*calQueue)
		if cal {
			was = *q
		}
		mallocs := mallocsOf(func() {
			for i := 0; i < n; i += 2 {
				hs[i].Cancel()
			}
			for s.ProcessNext() {
			}
		})
		if s.Len() != 0 || s.Fired() != n/2 {
			t.Fatalf("%v: %d pending and %d fired after the drain, want 0 and %d", kind, s.Len(), s.Fired(), n/2)
		}
		allowed := uint64(0)
		if cal {
			t.Logf("%v: %d mallocs; rebuilds over the drain: %d grows, %d shrinks, %d width; far blocks %d → %d",
				kind, mallocs, q.grows-was.grows, q.shrinks-was.shrinks, q.widthRebuilds-was.widthRebuilds, len(was.far.blocks), len(q.far.blocks))
			if q.grows != was.grows || len(q.far.blocks) != len(was.far.blocks) {
				t.Errorf("%v: the drain grew the queue or its far tier", kind)
			}
			allowed = uint64(q.widthRebuilds - was.widthRebuilds)
		}
		if mallocs > allowed {
			t.Errorf("%v: draining %d events allocated %d times, want at most %d (one per width rebuild)", kind, n, mallocs, allowed)
		}
		if cal {
			continue
		}
		for _, reset := range []bool{false, true} {
			if reset {
				for _, h := range hs {
					h.Cancel() // the free list now links every record
				}
				s.Reset()
			}
			for i := range hs {
				if hs[i] = s.AfterIndexed(1, 0, 0); hs[i].e.next != nil {
					t.Fatalf("%v: a live record links another (after Reset: %v)", kind, reset)
				}
			}
		}
	}
}

// genUnlinkProgram derives a program aimed at the calendar queue's unlink
// and tier paths: most deltas on a coarse grid, so a slot holds chains of
// tied records; a tied tail far beyond the calendar's year, pushed into
// the far tier; peeks that cache a minimum and its predecessor before the
// next op; cancels of the earliest retained events, which under ties are
// the cached minimum and the record right before it in its chain, and of
// random retained ones, far entries among them; and drains that leave
// only the far tail, whose next pop jumps over the empty near tier.
func genUnlinkProgram(seed uint64, nOps int) []qop {
	rng := xrand.NewStream(seed, 0x0411)
	ops := make([]qop, 0, nOps)
	for len(ops) < nOps {
		o := qop{child: -1}
		switch r := rng.Float64(); {
		case r < 0.40:
			switch d := rng.Float64(); {
			case d < 0.75:
				o.delta = float64(rng.Intn(4)) * 0.5
			case d < 0.90:
				o.delta = rng.Float64() * 2
			default:
				o.delta = 100 + float64(rng.Intn(3))*1000
			}
		case r < 0.47:
			o.kind = 1
			o.cancelSel = rng.Intn(1 << 20)
		case r < 0.65:
			o.kind = 5
		case r < 0.80:
			o.kind = 6
			o.cancelSel = rng.Intn(3)
		case r < 0.97:
			o.kind = 2
		default: // drain to the far tail
			for i := 0; i < 40; i++ {
				ops = append(ops, qop{kind: 2})
			}
			continue
		}
		ops = append(ops, o)
	}
	return ops
}

// unlinkPaths counts, on a calendar-queue run, the cancels, pops, sweeps
// and resizes that took each of the calendar's unlink and tier paths.
type unlinkPaths struct {
	midChain, tail, cachedMin, minPrev int
	farLast, farInner, jumpPop         int
	farPush, migrated, toNear, toFar   int
}

// checkTiers fails t unless q's two tiers hold exactly its Len records
// and keep the calendar's invariant: every chained record sits in its
// slot with a virtual bucket in [vcur, farBound) and index 0, farBound is
// at most a year past vcur, and every far entry carries its record's
// time, lies at or beyond farBound by that time, and its record's index
// is its slot + 1.
func checkTiers(t *testing.T, q *calQueue) {
	t.Helper()
	if nb := int64(len(q.buckets)); q.farBound > q.vcur+nb {
		t.Fatalf("farBound %d is more than a year (%d buckets) past the scan position %d", q.farBound, nb, q.vcur)
	}
	linked := 0
	for b, head := range q.buckets {
		for e := head; e != nil; e = e.next {
			if linked++; linked > q.count {
				t.Fatalf("the chains hold more than the queue's %d records: a record left linked, or a cycle", q.count)
			}
			if e.vb < q.vcur || e.vb >= q.farBound || int(e.vb&q.mask) != b || e.index != 0 {
				t.Fatalf("a chained record in slot %d has vb %d and index %d, want vb in [%d, %d) on that slot and index 0",
					b, e.vb, e.index, q.vcur, q.farBound)
			}
		}
	}
	if linked+q.far.n != q.count {
		t.Fatalf("the chains hold %d records and the far tier %d, the queue counts %d", linked, q.far.n, q.count)
	}
	for i := 0; i < q.far.n; i++ {
		f := q.far.at(i)
		if f.e.index != i+1 {
			t.Fatalf("far entry %d has a record whose index is %d, want %d", i, f.e.index, i+1)
		}
		if f.time != f.e.time {
			t.Fatalf("far entry %d holds time %v, its record %v", i, f.time, f.e.time)
		}
		if vb := q.vbOf(f.time); vb < q.farBound {
			t.Fatalf("far entry %d has vb %d, below farBound %d", i, vb, q.farBound)
		}
	}
}

// watch returns a beforeOp hook that checks r's calendar queue with
// checkTiers, then classifies the record each cancel op is about to take
// out, and the minimum each step is about to pop when a jump over an
// empty near tier finds it. It peeks before a step to see that; a peek
// commits nothing and the pop after it takes the same event, so the run
// is the run without the hook.
func (p *unlinkPaths) watch(t *testing.T, r *progRun) func(qop) {
	return func(o qop) {
		q := r.s.q.(*calQueue)
		checkTiers(t, q)
		switch o.kind {
		case 1, 6:
			h := r.target(o)
			if !h.Active() {
				return
			}
			e := h.e
			switch head := q.buckets[int(e.vb&q.mask)]; {
			case e.index > 0 && e.index == q.far.n:
				p.farLast++
			case e.index > 0:
				p.farInner++
			case q.min == e:
				p.cachedMin++
			case q.min != nil && q.minPrev == e:
				p.minPrev++
			case e != head && e.next != nil:
				p.midChain++
			case e != head:
				p.tail++
			}
		case 2:
			if q.min != nil || len(r.s.run) > 0 {
				return
			}
			j := q.jumps
			if q.PeekMin() != nil && q.jumps > j {
				p.jumpPop++
			}
		}
	}
}

// tally adds what q's counters saw over a run to the totals.
func (p *unlinkPaths) tally(q *calQueue) {
	p.farPush += q.farPushes
	p.migrated += q.migrated
	p.toNear += q.toNear
	p.toFar += q.toFar
}

// TestQueueDifferentialUnlink holds the calendar queue's unlink and tier
// paths to the heap oracle over 40 seeds of tie-heavy programs, checking
// both tiers (checkTiers) before every op: cancels of a mid-chain record,
// of a chain's tail, of the cached minimum and of its cached predecessor
// between PeekMin and PopMin; pushes into the far tier; cancels of the
// far array's last entry and of one before it, whose slot the last
// entry then takes; sweeps that link far entries; pops of a minimum found
// by a jump over an empty near tier; and resizes that link far entries
// and resizes that send chained records far. Each path must be
// taken somewhere. Then a scheduler Reset with tied chains live and a
// cached minimum with a predecessor must fire the next program exactly as
// a fresh one does.
func TestQueueDifferentialUnlink(t *testing.T) {
	var paths unlinkPaths
	resetWithChains := 0
	for seed := uint64(0); seed < 40; seed++ {
		ops := genUnlinkProgram(seed, 600)
		ref := runProgram(QueueHeap, false, ops)
		r := &progRun{s: NewWithQueue(QueueCalendar), batched: true}
		r.beforeOp = paths.watch(t, r)
		r.exec(ops)
		if !sameFires(t, "calendar", r.finish(), ref) {
			t.Fatalf("seed %d", seed)
		}
		paths.tally(r.s.q.(*calQueue))

		pre := &progRun{s: NewWithQueue(QueueCalendar), batched: true}
		pre.exec(genUnlinkProgram(seed+1000, 300))
		pre.s.PeekNextTime()
		if q := pre.s.q.(*calQueue); q.min != nil && q.minPrev != nil {
			resetWithChains++
		}
		pre.s.Reset()
		pre.fired, pre.handles = nil, nil
		pre.exec(ops)
		if !sameFires(t, "calendar after a Reset with chains live", pre.finish(), ref) {
			t.Fatalf("seed %d", seed)
		}
	}
	t.Logf("paths taken: %+v; Resets with a cached minimum behind a predecessor: %d", paths, resetWithChains)
	for _, c := range append(paths.taken(), pathCount{"Reset with a cached minimum behind a predecessor", resetWithChains}) {
		if c.n == 0 {
			t.Errorf("no %s", c.what)
		}
	}
}

// pathCount is how often a run took one path.
type pathCount struct {
	what string
	n    int
}

// taken lists what p counted, path by path.
func (p *unlinkPaths) taken() []pathCount {
	return []pathCount{
		{"cancel of a mid-chain record", p.midChain},
		{"cancel of a chain's tail", p.tail},
		{"cancel of the cached minimum", p.cachedMin},
		{"cancel of the cached minimum's predecessor", p.minPrev},
		{"push into the far tier", p.farPush},
		{"cancel of the far array's last entry", p.farLast},
		{"cancel of a far entry before the last", p.farInner},
		{"far entry linked by a sweep", p.migrated},
		{"pop of a minimum found by a jump over an empty near tier", p.jumpPop},
		{"far entry linked by a resize", p.toNear},
		{"chained record sent far by a resize", p.toFar},
	}
}

// farTierSeeds are FuzzQueueOrder seed entries, one per far-tier path of
// the calendar queue (a fresh queue has 8 buckets of width 1, so its far
// tier starts at t = 8; a sparse schedule lands at 50 or later).
var farTierSeeds = []struct {
	path string
	data []byte
}{
	// A sparse schedule: far from the start.
	{"push into the far tier", []byte{2, 127}},
	// A dense and a sparse schedule, then two steps: the second finds
	// the near tier empty.
	{"pop of a minimum found by a jump over an empty near tier", []byte{0, 8, 2, 0, 4, 0, 4, 0}},
	// One far event, cancelled.
	{"cancel of the far array's last entry", []byte{2, 179, 3, 167}},
	// Two far events; the first is cancelled and the second takes its slot.
	{"cancel of a far entry before the last", []byte{2, 172, 2, 135, 3, 30}},
	// Dense schedules with children: the first pop narrows the buckets
	// and sends a child far, and a later pop brings the scan position
	// within half a year of the far tier.
	{"far entry linked by a sweep", []byte{0, 136, 1, 223, 0, 140, 1, 225}},
	// Two far events: the first pop's gap widens the buckets, and the
	// rebuild links the second.
	{"far entry linked by a resize", []byte{2, 221, 2, 235}},
	// Near events at 0.125 and 2.875: the first pop's gap narrows the
	// buckets, and the rebuild sends the second far.
	{"chained record sent far by a resize", []byte{1, 55, 1, 65}},
}

// TestFuzzSeedsTakeFarTierPaths replays each of farTierSeeds on the
// calendar, checking both tiers before every op and every pop of the
// drain, and fails a seed that no longer takes the path it is there for.
func TestFuzzSeedsTakeFarTierPaths(t *testing.T) {
	for _, seed := range farTierSeeds {
		var p unlinkPaths
		r := &progRun{s: NewWithQueue(QueueCalendar), batched: true}
		r.beforeOp = p.watch(t, r)
		r.exec(fuzzOps(seed.data))
		for r.s.HasPending() {
			r.beforeOp(qop{kind: 2})
			r.s.ProcessNext()
		}
		p.tally(r.s.q.(*calQueue))
		for _, c := range p.taken() {
			if c.what == seed.path && c.n == 0 {
				t.Errorf("seed %v took no %s", seed.data, c.what)
			}
		}
	}
}

// TestQueueDifferentialQuick replays many randomized programs; any
// ordering disagreement between backends fails.
func TestQueueDifferentialQuick(t *testing.T) {
	f := func(seed uint16) bool {
		return assertSameOrder(t, genProgram(uint64(seed), 300+int(seed)%200))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// FuzzQueueOrder is the native fuzz entry over raw bytes: each byte pair
// becomes one operation, so the fuzzer can minimize a diverging program.
// `go test` runs the seed corpus; `go test -fuzz FuzzQueueOrder` explores.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0, 0, 0, 0, 40, 1, 80, 2, 200, 3})
	f.Add([]byte{10, 255, 10, 255, 10, 0, 60, 60, 60, 60, 90, 5, 130, 7})
	f.Add([]byte{5, 47, 0, 8, 4, 3, 11, 20, 5, 9, 4, 250, 17, 200, 23, 46, 4, 1})
	// Three records tied in one slot, chained newest first: cancel the
	// middle one, then the tail.
	f.Add([]byte{0, 8, 0, 8, 0, 8, 3, 1, 3, 0, 4, 0, 4, 0})
	// Peek, then cancel the cached minimum before the pop.
	f.Add([]byte{0, 8, 0, 8, 0, 8, 4, 170, 3, 240, 4, 0, 4, 0})
	// Peek, then cancel the cached minimum's predecessor before the pop.
	f.Add([]byte{0, 8, 0, 8, 0, 8, 4, 170, 3, 241, 4, 0, 4, 0, 4, 0})
	// Only a tied far tail pending: the peek jumps to it over the empty
	// near tier, and the pops follow.
	f.Add([]byte{2, 0, 2, 0, 2, 0, 4, 170, 4, 0, 4, 0, 4, 0})
	for _, seed := range farTierSeeds {
		f.Add(seed.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		assertSameOrder(t, fuzzOps(data))
	})
}

// fuzzMaxEvents caps the events one FuzzQueueOrder input books: a
// schedule op books one and its child one more, a batch op its size.
// Uncapped, 4096 bytes of batch ops — 2048 batches of 48 events on 32
// instants — ran for 8 to 13 s per calendar replay (2-vCPU Xeon guest),
// when a calendar pop still scanned its whole slot of tied events. Under
// the cap the worst input replays on every backend in about a tenth of a
// second (TestFuzzOpsCapEvents).
const fuzzMaxEvents = 1 << 14

// fuzzOps decodes FuzzQueueOrder's input: each byte pair is one op, at
// most 4096 bytes are read, and decoding stops before the op that would
// book more than fuzzMaxEvents events in all.
func fuzzOps(data []byte) []qop {
	if len(data) > 4096 {
		data = data[:4096]
	}
	var ops []qop
	booked := 0
	for i := 0; i+1 < len(data); i += 2 {
		a, b := data[i], data[i+1]
		o := qop{}
		switch a % 6 {
		case 0, 1: // dense schedule; b quantizes so ties arise
			o.kind = 0
			o.delta = float64(b%32) * 0.125
			o.child = -1
			if b >= 128 {
				o.child = float64(b%16) * 0.25
			}
		case 2: // sparse schedule
			o.kind = 0
			o.delta = 50 + float64(b)*37.5
			o.child = -1
		case 3: // cancel a retained handle, or from 240 on the earliest live one or one of the two behind it
			o.kind = 1
			o.cancelSel = int(b)
			if b >= 240 {
				o.kind = 6
				o.cancelSel = int(b - 240)
			}
		case 4: // step, peek, or run to a horizon
			if b < 160 {
				o.kind = 2
			} else if b < 200 {
				o.kind = 5
			} else {
				o.kind = 3
				o.horizon = float64(b%8) * 0.5
			}
		default: // batch of 1–48 on the same grid, every fifth tied to a pending event, every seventh plain
			o.kind = 4
			o.batch = make([]batchEv, 1+int(b)%48)
			for j := range o.batch {
				o.batch[j] = batchEv{delta: float64((int(b)+7*j)%32) * 0.125, tie: -1, plain: j%7 == 3}
				if j%5 == 0 {
					o.batch[j].tie = int(b) + j
				}
			}
		}
		switch {
		case o.kind == 4:
			booked += len(o.batch)
		case o.kind == 0 && o.child >= 0:
			booked += 2
		case o.kind == 0:
			booked++
		}
		if booked > fuzzMaxEvents {
			break
		}
		ops = append(ops, o)
	}
	return ops
}

// TestFuzzOpsCapEvents decodes the costliest input FuzzQueueOrder can be
// given — 4096 bytes of batch ops of 48 tied events each — and requires
// fuzzOps to stop within one batch of fuzzMaxEvents, and the capped
// program to fire alike on every backend.
func TestFuzzOpsCapEvents(t *testing.T) {
	ops := fuzzOps(bytes.Repeat([]byte{5, 47}, 2048))
	events := 0
	for _, o := range ops {
		events += len(o.batch)
	}
	if events > fuzzMaxEvents || events <= fuzzMaxEvents-48 {
		t.Fatalf("an all-batch input decodes to %d events in %d ops, want the last batch of 48 to reach the %d-event cap",
			events, len(ops), fuzzMaxEvents)
	}
	assertSameOrder(t, ops)
}

// TestQueueDifferentialChurnRealisation replays a whole churn-heavy
// "realisation" at the des level — n nodes alternating memoryless up/down
// timers plus completion-style timers that cancel and rearm — and demands
// identical fire order across backends. This is the dense-timer workload
// the calendar queue exists for.
func TestQueueDifferentialChurnRealisation(t *testing.T) {
	const (
		nodes     = 300
		maxFires  = 60_000
		mtbf      = 20.0
		mttr      = 2.0
		svcMean   = 0.5
		reschedPr = 0.9
	)
	const (
		evServe int32 = iota
		evFail
		evRecover
	)
	run := func(kind QueueKind) ([]fireRec, uint64) {
		s := NewWithQueue(kind)
		rng := xrand.NewStream(99, 4242)
		var fired []fireRec
		svc := make([]Handle, nodes)
		s.SetDispatcher(func(kind, arg int32) {
			i := int(arg)
			fired = append(fired, fireRec{math.Float64bits(s.Now()), int(kind)*nodes + i})
			switch kind {
			case evServe:
				if rng.Float64() < reschedPr {
					svc[i] = s.AfterIndexed(rng.ExpMean(svcMean), evServe, arg)
				}
			case evFail:
				// A failure cancels the node's service timer (stale-handle
				// exercise) and arms recovery.
				svc[i].Cancel()
				s.AfterIndexed(rng.ExpMean(mttr), evRecover, arg)
			case evRecover:
				svc[i] = s.AfterIndexed(rng.ExpMean(svcMean), evServe, arg)
				s.AfterIndexed(rng.ExpMean(mtbf), evFail, arg)
			}
		})
		for i := int32(0); i < nodes; i++ {
			svc[i] = s.AfterIndexed(rng.ExpMean(svcMean), evServe, i)
			s.AfterIndexed(rng.ExpMean(mtbf), evFail, i)
		}
		for len(fired) < maxFires && s.ProcessNext() {
		}
		return fired, math.Float64bits(s.Now())
	}
	ref, refNow := run(QueueHeap)
	for _, kind := range QueueKinds() {
		if kind == QueueHeap {
			continue
		}
		got, gotNow := run(kind)
		if len(got) != len(ref) || gotNow != refNow {
			t.Fatalf("%v: %d fires, clock %x; heap: %d fires, clock %x",
				kind, len(got), gotNow, len(ref), refNow)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%v diverged at fire %d: got (%x,%d), heap (%x,%d)",
					kind, i, got[i].timeBits, got[i].id, ref[i].timeBits, ref[i].id)
			}
		}
	}
}
