package des

import (
	"testing"

	"churnlb/internal/xrand"
)

// TestCalendarTiesPopFromTheHead: k events on one instant share one
// calendar slot, and while it holds more than calSortMin of them each pop
// must find its minimum at the head of that slot — no predecessor to walk
// to, no scan past the rest — so draining them costs O(k), not O(k²).
// Before the slot sort the minimum of a tied slot was the oldest record,
// at the tail of a newest-first chain, found by scanning the whole slot on
// every pop.
func TestCalendarTiesPopFromTheHead(t *testing.T) {
	const k = 1000
	s := NewWithQueue(QueueCalendar)
	s.SetDispatcher(func(int32, int32) {})
	for i := int32(0); i < k; i++ {
		s.AtIndexed(5, 0, i)
	}
	q := s.q.(*calQueue)
	for popped := 0; popped < k-calSortMin; popped++ {
		m := q.PeekMin()
		if head := q.buckets[int(q.minVB&q.mask)]; m != head || q.minPrev != nil {
			t.Fatalf("pop %d of %d tied events: the minimum is not its slot's head", popped, k)
		}
		s.ProcessNext()
	}
}

// TestCalendarTieDrainIsLinear counts the work of draining k tied events
// on the calendar: whatever the count-driven resizes do to the tied
// chain, the slot sorts order O(k) records in all, not O(k) per pop.
func TestCalendarTieDrainIsLinear(t *testing.T) {
	for _, k := range []int{100, 1000, 10_000} {
		s := NewWithQueue(QueueCalendar)
		s.SetDispatcher(func(int32, int32) {})
		for i := 0; i < k; i++ {
			s.AtIndexed(5, 0, int32(i))
		}
		for s.ProcessNext() {
		}
		q := s.q.(*calQueue)
		t.Logf("k=%d sorts=%d sorted=%d shrinks=%d grows=%d", k, q.sorts, q.sorted, q.shrinks, q.grows)
		if q.sorted > 4*k {
			t.Errorf("draining %d tied events: %d sorts ordered %d records, want at most %d", k, q.sorts, q.sorted, 4*k)
		}
	}
}

// genTieProgram derives a program that keeps calendar slots long: most
// schedules land on three instants a step apart, or exactly at the clock,
// which links a record into the slot being drained — the slot a scan
// sorted; small tied batches; cancels of retained and of the earliest live
// events, which take records out of a sorted chain; peeks and steps.
func genTieProgram(seed uint64, nOps int) []qop {
	rng := xrand.NewStream(seed, 0x71E5)
	ops := make([]qop, 0, nOps)
	for len(ops) < nOps {
		o := qop{child: -1}
		switch r := rng.Float64(); {
		case r < 0.40:
			switch d := rng.Float64(); {
			case d < 0.25: // at the clock
			case d < 0.85:
				o.delta = float64(rng.Intn(3))
			default:
				o.delta = rng.Float64() * 3
			}
			if rng.Float64() < 0.2 {
				o.child = float64(rng.Intn(2))
			}
		case r < 0.45:
			o = genBatch(rng)
			o.batch = o.batch[:min(len(o.batch), 8)]
			for j := range o.batch {
				if o.batch[j].delta < 100 {
					o.batch[j].delta = float64(int(o.batch[j].delta))
				}
			}
		case r < 0.55:
			o.kind = 1
			o.cancelSel = rng.Intn(1 << 20)
		case r < 0.62:
			o.kind = 6
			o.cancelSel = rng.Intn(3)
		case r < 0.70:
			o.kind = 5
		default:
			o.kind = 2
		}
		ops = append(ops, o)
	}
	return ops
}

// tiePaths counts the sorted-slot paths a calendar run took.
type tiePaths struct {
	sorts, pushInto, cancelFrom, headPops int
}

// watchTies returns a beforeOp hook that checks the sorted slot — its
// chain ascending in (time, seq), one virtual bucket throughout — and
// counts schedules that link into it, cancels that take a record out of
// it and steps that pop its head.
func (p *tiePaths) watchTies(t *testing.T, r *progRun) func(qop) {
	return func(o qop) {
		q := r.s.q.(*calQueue)
		checkTiers(t, q)
		if q.sortedVB >= 0 {
			for e := q.buckets[int(q.sortedVB&q.mask)]; e != nil; e = e.next {
				if e.vb != q.sortedVB || e.next != nil && !eventLess(e, e.next) {
					t.Fatalf("the sorted slot of vb %d holds a record of vb %d out of (time, seq) order", q.sortedVB, e.vb)
				}
			}
		}
		switch o.kind {
		case 0:
			if q.vbOf(r.s.Now()+o.delta) == q.sortedVB {
				p.pushInto++
			}
		case 1, 6:
			if h := r.target(o); h.Active() && h.e.index == 0 && h.e.vb == q.sortedVB {
				p.cancelFrom++
			}
		case 2:
			if r.s.head == len(r.s.run) && q.PeekMin() != nil && q.minVB == q.sortedVB {
				p.headPops++
			}
		}
	}
}

// TestQueueDifferentialTies holds the calendar's sorted slots to the heap
// oracle over 40 seeds of tie-heavy programs: slots long enough to be
// sorted, schedules at the clock that link into the sorted slot, cancels
// out of it and pops of its head, each taken somewhere.
func TestQueueDifferentialTies(t *testing.T) {
	var paths tiePaths
	for seed := uint64(0); seed < 40; seed++ {
		ops := genTieProgram(seed, 800)
		ref := runProgram(QueueHeap, false, ops)
		r := &progRun{s: NewWithQueue(QueueCalendar), batched: true}
		r.beforeOp = paths.watchTies(t, r)
		r.exec(ops)
		if !sameFires(t, "calendar", r.finish(), ref) {
			t.Fatalf("seed %d", seed)
		}
		paths.sorts += r.s.q.(*calQueue).sorts
		if !sameFires(t, "calendar, batches as single events", runProgram(QueueCalendar, false, ops), ref) {
			t.Fatalf("seed %d", seed)
		}
	}
	t.Logf("sorted-slot paths: %+v", paths)
	for _, c := range []pathCount{
		{"slot sort", paths.sorts}, {"schedule into the sorted slot", paths.pushInto},
		{"cancel out of the sorted slot", paths.cancelFrom}, {"pop of the sorted slot's head", paths.headPops},
	} {
		if c.n == 0 {
			t.Errorf("no %s", c.what)
		}
	}
}

// TestSortChain sorts chains of every run shape — ascending, descending,
// alternating, random, all on one instant — and checks the result is the
// same records in (time, seq) order.
func TestSortChain(t *testing.T) {
	rng := xrand.NewStream(7, 0x5087)
	for _, shape := range []string{"ascending", "descending", "zigzag", "random", "tied"} {
		for _, k := range []int{1, 2, 3, 17, 100, 1000} {
			evs := make([]event, k)
			var head *event
			for i := range evs {
				e := &evs[i]
				e.seq = uint64(i)
				switch shape {
				case "ascending":
					e.time = float64(k - i) // chained at the head: ascending from it
				case "descending":
					e.time = float64(i)
				case "zigzag":
					e.time = float64(i % 5)
				case "random":
					e.time = float64(rng.Intn(k))
				}
				e.next, head = head, e
			}
			head, last := sortChain(head)
			n := 0
			for e := head; e != nil; e = e.next {
				if n++; e.next != nil && !eventLess(e, e.next) {
					t.Fatalf("%s chain of %d: record %d is not below the next", shape, k, n)
				}
				if e.next == nil && e != last {
					t.Fatalf("%s chain of %d: sortChain's last record is not the chain's", shape, k)
				}
			}
			if n != k {
				t.Fatalf("%s chain of %d: the sorted chain holds %d records", shape, k, n)
			}
		}
	}
}

// TestCalendarTieAtTheClockKeepsTheSort: k events tied on one instant,
// then pops that each book one more event at the clock — a timer re-armed
// at its own instant. Every new event sorts after the sorted slot's tail,
// so it goes behind it and the slot stays sorted: the drain sorts once,
// not once per pop as when any link into the slot forgot the sort.
func TestCalendarTieAtTheClockKeepsTheSort(t *testing.T) {
	const k, pops = 1000, 10_000
	s := NewWithQueue(QueueCalendar)
	s.SetDispatcher(func(int32, int32) {})
	for i := int32(0); i < k; i++ {
		s.AtIndexed(5, 0, i)
	}
	for i := int32(0); i < pops; i++ {
		s.ProcessNext()
		s.AtIndexed(s.Now(), 0, k+i)
	}
	q := s.q.(*calQueue)
	t.Logf("sorts=%d sorted=%d", q.sorts, q.sorted)
	if q.sorts > 2 {
		t.Errorf("%d pops each booking an event at the clock behind %d ties: %d slot sorts (%d records), want at most 2",
			pops, k, q.sorts, q.sorted)
	}
}

// TestSortedTailIsTheChainsLast replays the tie-heavy programs of
// TestQueueDifferentialTies on the calendar and checks, before every op,
// that the sorted slot's remembered tail is the last record of its chain
// (nil when the chain is empty): pops, cancels, links behind the tail,
// sweeps and resizes each keep it.
func TestSortedTailIsTheChainsLast(t *testing.T) {
	appended := 0
	for seed := uint64(0); seed < 40; seed++ {
		r := &progRun{s: NewWithQueue(QueueCalendar), batched: true}
		var lastTail *event
		lastVB := int64(-1)
		r.beforeOp = func(qop) {
			q := r.s.q.(*calQueue)
			if q.sortedVB < 0 && q.sortedTail != nil {
				t.Fatalf("seed %d: no sorted slot, but a sorted tail", seed)
			}
			var last *event
			if q.sortedVB >= 0 {
				for e := q.buckets[int(q.sortedVB&q.mask)]; e != nil; e = e.next {
					last = e
				}
			}
			if q.sortedTail != last {
				t.Fatalf("seed %d: the sorted slot's tail is not its chain's last record", seed)
			}
			// Only a link behind it moves a slot's tail to a later record.
			if q.sortedVB == lastVB && last != nil && lastTail != nil && eventLess(lastTail, last) {
				appended++
			}
			lastTail, lastVB = last, q.sortedVB
		}
		r.exec(genTieProgram(seed, 800))
	}
	if appended == 0 {
		t.Error("no link went behind the sorted slot's tail")
	}
}
