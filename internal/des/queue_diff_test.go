package des

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"churnlb/internal/xrand"
)

// The tests in this file enforce the EventQueue contract: every backend
// fires the exact same schedule in the exact same order. The heap is the
// oracle; the calendar queue (and any future backend) is replayed against
// it over randomized programs of At/After/Cancel/Step/Run operations,
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
	kind      int     // 0 schedule, 1 cancel, 2 step, 3 run-horizon, 4 batch
	delta     float64 // schedule: offset from the clock at execution time
	child     float64 // schedule: >= 0 means the event schedules a child at now+child when it fires
	cancelSel int     // cancel: index into the retained handles (mod len)
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
	// batched sends batch ops through BatchIndexed and CommitBatch; the
	// oracle leaves it false and schedules each of their events alone.
	batched bool
	// commits counts batch commits by what they did with the batch: it
	// became the run, or went onto the queue behind a pending run.
	commits [2]int
	// beforeOp, when set, runs ahead of every op.
	beforeOp func()
}

// dispatch is the indexed-event handler: batch events log their id.
func (r *progRun) dispatch(_, arg int32) {
	r.fired = append(r.fired, fireRec{math.Float64bits(r.s.Now()), int(arg)})
}

// exec runs ops in order, without the final drain.
func (r *progRun) exec(ops []qop) {
	s := r.s
	s.SetDispatcher(r.dispatch)
	for i, o := range ops {
		if r.beforeOp != nil {
			r.beforeOp()
		}
		switch o.kind {
		case 0:
			id := i
			child := o.child
			r.handles = append(r.handles, s.After(o.delta, func() {
				r.fired = append(r.fired, fireRec{math.Float64bits(s.Now()), id})
				if child >= 0 {
					cid := 1_000_000 + id
					s.After(child, func() {
						r.fired = append(r.fired, fireRec{math.Float64bits(s.Now()), cid})
					})
				}
			}))
		case 1:
			if len(r.handles) > 0 {
				r.handles[o.cancelSel%len(r.handles)].Cancel()
			}
		case 2:
			s.Step()
		case 3:
			s.Run(s.Now() + o.horizon)
		case 4:
			r.book(i, o.batch)
		}
	}
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
			s.BatchIndexed(at, 0, id)
		} else {
			s.AtIndexed(at, 0, id)
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
	for r.s.Step() {
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
// and a part-used slab.
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
			r.handles = append(r.handles, r.s.After(1e6, func() { t.Error("an event of A fired after Reset") }))
			firedA := len(r.fired)
			r.s.Reset()
			if r.s.Len() != 0 || r.s.HasPending() || r.s.Now() != 0 || r.s.Fired() != 0 {
				t.Fatalf("%v seed %d: after Reset Len=%d Now=%v Fired=%d, want a fresh scheduler's zeros",
					kind, seed, r.s.Len(), r.s.Now(), r.s.Fired())
			}
			handlesA := r.handles
			r.fired, r.handles = nil, nil
			r.beforeOp = func() {
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
// slabs, the free list, the queue's arrays and the run's two — so once a
// cycle of queue events, a batch that becomes the run, a batch that goes
// onto the queue behind it, some firing and a Reset has run twice, the
// next cycles allocate nothing, and a Reset itself never allocates.
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
		cycle := func() {
			s.SetDispatcher(dispatch)
			for i := 0; i < k; i++ {
				s.AfterIndexed(rng.Float64()*10, 0, int32(i))
			}
			book(k)
			for i := 0; i < k/2; i++ {
				s.Step()
			}
			book(k / 2)
			for i := 0; i < k/2; i++ {
				s.Step()
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
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		var ops []qop
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
			case 3:
				o.kind = 1
				o.cancelSel = int(b)
			case 4:
				if b < 200 {
					o.kind = 2
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
			ops = append(ops, o)
		}
		assertSameOrder(t, ops)
	})
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
	run := func(kind QueueKind) ([]fireRec, uint64) {
		s := NewWithQueue(kind)
		rng := xrand.NewStream(99, 4242)
		var fired []fireRec
		svc := make([]Handle, nodes)
		var fail, recov func(i int) func()
		var serve func(i int) func()
		serve = func(i int) func() {
			return func() {
				fired = append(fired, fireRec{math.Float64bits(s.Now()), i})
				if rng.Float64() < reschedPr {
					svc[i] = s.After(rng.ExpMean(svcMean), serve(i))
				}
			}
		}
		fail = func(i int) func() {
			return func() {
				fired = append(fired, fireRec{math.Float64bits(s.Now()), nodes + i})
				// A failure cancels the node's service timer (stale-handle
				// exercise) and arms recovery.
				svc[i].Cancel()
				s.After(rng.ExpMean(mttr), recov(i))
			}
		}
		recov = func(i int) func() {
			return func() {
				fired = append(fired, fireRec{math.Float64bits(s.Now()), 2*nodes + i})
				svc[i] = s.After(rng.ExpMean(svcMean), serve(i))
				s.After(rng.ExpMean(mtbf), fail(i))
			}
		}
		for i := 0; i < nodes; i++ {
			svc[i] = s.After(rng.ExpMean(svcMean), serve(i))
			s.After(rng.ExpMean(mtbf), fail(i))
		}
		for len(fired) < maxFires && s.Step() {
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
