package des

import (
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
// cancellations that force bucket compaction and resizes.

// qop is one step of a queue-differential program. Programs are generated
// once and replayed identically against each backend, so the only way two
// backends can diverge is by ordering events differently.
type qop struct {
	kind      int     // 0 schedule, 1 cancel, 2 step, 3 run-horizon
	delta     float64 // schedule: offset from the clock at execution time
	child     float64 // schedule: >= 0 means the event schedules a child at now+child when it fires
	cancelSel int     // cancel: index into the retained handles (mod len)
	horizon   float64 // run-horizon: offset from the clock
	// reserves, when set, calls Reserve(reserveK) before the op runs. Only
	// sprinkleReserves sets it: a capacity hint must never reorder a fire.
	reserves bool
	reserveK int
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

// fireRec is one fired event: exact time bits plus the event's program id.
type fireRec struct {
	timeBits uint64
	id       int
}

// progRun is one scheduler executing queue-differential programs: the
// fire log and the handles accumulate across exec calls, so a test can
// stop a program midway, Reset the scheduler and run another on it.
type progRun struct {
	s       *Scheduler
	fired   []fireRec
	handles []Handle
	// beforeOp, when set, runs ahead of every op.
	beforeOp func()
}

// exec runs ops in order, without the final drain.
func (r *progRun) exec(ops []qop) {
	s := r.s
	for i, o := range ops {
		if r.beforeOp != nil {
			r.beforeOp()
		}
		if o.reserves {
			s.Reserve(o.reserveK)
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
		}
	}
}

// finish fires whatever is still pending and returns the full fire log
// plus the final clock bits.
func (r *progRun) finish() ([]fireRec, uint64) {
	for r.s.Step() {
	}
	return r.fired, math.Float64bits(r.s.Now())
}

// runProgram replays a program on a fresh scheduler of the given backend
// and returns the full fire log (including the final drain) plus the
// final clock bits.
func runProgram(kind QueueKind, ops []qop) ([]fireRec, uint64) {
	r := &progRun{s: NewWithQueue(kind)}
	r.exec(ops)
	return r.finish()
}

// assertSameOrder replays ops on the heap oracle and on every other
// backend and fails on the first divergence.
func assertSameOrder(t *testing.T, ops []qop) bool {
	t.Helper()
	ref, refNow := runProgram(QueueHeap, ops)
	for _, kind := range QueueKinds() {
		if kind == QueueHeap {
			continue
		}
		got, gotNow := runProgram(kind, ops)
		if !sameFires(t, kind.String(), got, gotNow, ref, refNow) {
			return false
		}
	}
	return true
}

// sameFires fails on the first difference between a backend's fire log
// and the heap oracle's.
func sameFires(t *testing.T, label string, got []fireRec, gotNow uint64, ref []fireRec, refNow uint64) bool {
	t.Helper()
	if len(got) != len(ref) {
		t.Errorf("%s fired %d events, heap fired %d", label, len(got), len(ref))
		return false
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Errorf("%s diverged at fire %d: got id=%d t=%x, heap id=%d t=%x",
				label, i, got[i].id, got[i].timeBits, ref[i].id, ref[i].timeBits)
			return false
		}
	}
	if gotNow != refNow {
		t.Errorf("%s final clock bits %x, heap %x", label, gotNow, refNow)
		return false
	}
	return true
}

// sprinkleReserves returns a copy of ops with Reserve calls in front of
// about one op in ten — k of zero, negative, a few and a few thousand,
// on whatever population the program holds at that point — and one in
// front of the last op, so a reservation is also followed by the full
// drain runProgram ends with.
func sprinkleReserves(ops []qop, seed uint64) []qop {
	rng := xrand.NewStream(seed, 0x2E5E)
	out := append([]qop(nil), ops...)
	for i := range out {
		if rng.Float64() >= 0.1 && i != len(out)-1 {
			continue
		}
		out[i].reserves = true
		switch rng.Intn(4) {
		case 0:
			out[i].reserveK = 0
		case 1:
			out[i].reserveK = -1 - rng.Intn(100)
		case 2:
			out[i].reserveK = 1 + rng.Intn(8)
		default:
			out[i].reserveK = 50 + rng.Intn(4000)
		}
	}
	return out
}

// TestQueueDifferentialReserve: a program with Reserve calls sprinkled in
// fires, on every backend, exactly what the heap fires for the same
// program without them.
func TestQueueDifferentialReserve(t *testing.T) {
	f := func(seed uint16) bool {
		ops := genProgram(uint64(seed), 300+int(seed)%200)
		ref, refNow := runProgram(QueueHeap, ops)
		reserved := sprinkleReserves(ops, uint64(seed))
		for _, kind := range QueueKinds() {
			got, gotNow := runProgram(kind, reserved)
			if !sameFires(t, kind.String()+" with Reserve", got, gotNow, ref, refNow) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestReserveMakesBurstAllocationFree: after Reserve(k), scheduling k
// events allocates nothing — no slab, no free-list or heap growth, no
// bucket-array doubling — whether the scheduler was fresh or already
// held a population, recycled records and a part-used slab.
func TestReserveMakesBurstAllocationFree(t *testing.T) {
	const burst, runs = 3000, 3
	for _, kind := range QueueKinds() {
		for _, standing := range []int{0, 300} {
			s := NewWithQueue(kind)
			s.SetDispatcher(func(int32, int32) {})
			rng := xrand.NewStream(5, uint64(standing))
			var hs []Handle
			for i := 0; i < standing; i++ {
				hs = append(hs, s.AfterIndexed(rng.Float64()*10, 0, int32(i)))
			}
			for i := 0; i < standing/3; i++ {
				hs[i*3].Cancel()
			}
			// AllocsPerRun calls the burst once to warm up and runs more
			// to measure; all of them fall inside the one reservation.
			s.Reserve((runs + 1) * burst)
			allocs := testing.AllocsPerRun(runs, func() {
				for i := 0; i < burst; i++ {
					s.AfterIndexed(rng.Float64()*10, 0, int32(i))
				}
			})
			if allocs != 0 {
				t.Errorf("%v, %d standing: %v allocations per %d-event burst after Reserve", kind, standing, allocs, burst)
			}
			if want := standing - standing/3 + (runs+1)*burst; s.Len() != want {
				t.Fatalf("%v: %d pending, want %d", kind, s.Len(), want)
			}
			for s.Step() {
			}
		}
	}
}

// TestQueueDifferentialReset: a scheduler that ran program A to a random
// point — events still pending, some cancelled, its records and arrays
// grown to A's needs — and was Reset fires program B exactly as a fresh
// scheduler fires B alone, on both backends: same order, same clock, same
// Fired count, and nothing of A ever fires again. Every handle A issued is
// dead from the Reset on, and stays dead while its record carries B's
// events: Cancel on all of them ahead of every op of B must change nothing
// (which is what fails if Reset restarts the sequence counter — A's k-th
// handle would then match the k-th event of B on the same record — or
// leaves a live event linked).
func TestQueueDifferentialReset(t *testing.T) {
	for _, kind := range QueueKinds() {
		for seed := uint64(0); seed < 20; seed++ {
			rng := xrand.NewStream(seed, 0x2E5E7)
			opsA := sprinkleReserves(genProgram(seed, 500), seed)
			opsB := sprinkleReserves(genProgram(seed+1000, 300+int(seed)*10), seed+1000)

			fresh := &progRun{s: NewWithQueue(kind)}
			fresh.exec(opsB)
			want, wantNow := fresh.finish()

			r := &progRun{s: NewWithQueue(kind)}
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
			got, gotNow := r.finish()
			label := kind.String() + " after Reset"
			if !sameFires(t, label, got, gotNow, want, wantNow) {
				t.Fatalf("%v seed %d: A fired %d events before the Reset", kind, seed, firedA)
			}
			if r.s.Fired() != fresh.s.Fired() {
				t.Fatalf("%v seed %d: Fired() = %d after Reset, fresh scheduler %d", kind, seed, r.s.Fired(), fresh.s.Fired())
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

// TestResetKeepsCapacity: Reserve(k) on a scheduler that already held a
// burst of k before its Reset allocates at most once — the calendar's
// second head array, which the first burst never needed — and from the
// next Reset on a whole reserve-burst-Reset cycle allocates nothing: the
// slab, the free list and the queue's arrays are all the last cycle's.
func TestResetKeepsCapacity(t *testing.T) {
	const k = 3000
	for _, kind := range QueueKinds() {
		s := NewWithQueue(kind)
		rng := xrand.NewStream(7, 7)
		dispatch := func(int32, int32) {}
		cycle := func() {
			s.SetDispatcher(dispatch)
			s.Reserve(k)
			for i := 0; i < k; i++ {
				s.AfterIndexed(rng.Float64()*10, 0, int32(i))
			}
			for i := 0; i < k/2; i++ {
				s.Step()
			}
			s.Reset()
		}
		cycle()
		if n := mallocsOf(func() { s.Reserve(k) }); n > 1 {
			t.Errorf("%v: Reserve(%d) after a Reset that followed the same burst allocated %d times, want at most 1", kind, k, n)
		}
		cycle()
		if allocs := testing.AllocsPerRun(5, cycle); allocs != 0 {
			t.Errorf("%v: %v allocations per reserve-burst-Reset cycle on a warm scheduler, want 0", kind, allocs)
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
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		var ops []qop
		for i := 0; i+1 < len(data); i += 2 {
			a, b := data[i], data[i+1]
			o := qop{}
			switch a % 5 {
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
			default:
				if b < 200 {
					o.kind = 2
				} else {
					o.kind = 3
					o.horizon = float64(b%8) * 0.5
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
