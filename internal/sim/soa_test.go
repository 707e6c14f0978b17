package sim

import (
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

	"churnlb/internal/des"
	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/xrand"
)

// TestNodeHotLayout pins the packed hot-struct size the nodestate.go doc
// comment promises: 56 bytes per node (two 16-byte handles, a float64,
// two int32s and a bool, alignment-padded from 53). Growing it is not
// forbidden — but it must be a conscious decision, because the hot array
// is the entire per-node working set of a large realisation and a 10⁶-node
// run budgets 56 MB for it. It also pins where the array starts: the hot
// array of a realisation of 10³ nodes or more — fresh, or a parked arena's
// reused — begins on a 64-byte boundary, so which nodes straddle two cache
// lines is the same in every run.
func TestNodeHotLayout(t *testing.T) {
	if got := unsafe.Sizeof(nodeHot{}); got != 56 {
		t.Fatalf("nodeHot is %d bytes, want 56 — update the layout doc and the memory budget if this growth is intentional", got)
	}
	if got := unsafe.Sizeof(des.Handle{}); got != 16 {
		t.Fatalf("des.Handle is %d bytes, want 16 — nodeHot's packing assumes two 8-aligned 16-byte handles", got)
	}
	dropIdleArenas()
	defer dropIdleArenas()
	for _, n := range []int{1000, 10000, 1000} { // the second 10³ run reuses the 10⁴ run's arena
		p, load := probeParams(n)
		r, err := Start(Options{Params: p, InitialLoad: load, Rand: xrand.NewStream(1, 1)})
		if err != nil {
			t.Fatal(err)
		}
		if addr := uintptr(unsafe.Pointer(&r.s.hot[0])); addr%64 != 0 {
			t.Errorf("N=%d: the hot array starts at %#x, %d bytes past a cache line", n, addr, addr%64)
		}
		for !r.Done() && r.ProcessNext() {
		}
		if _, err := r.Finish(); err != nil {
			t.Fatal(err)
		}
	}
}

// soaMirror is the naive array-of-slices shadow of the hot array,
// maintained purely from TaskObserver callbacks — an independent
// derivation of every queue and up-bit from the event stream itself.
type soaMirror struct {
	queues []int
	up     []bool
}

func newSoaMirror(n int) *soaMirror {
	m := &soaMirror{queues: make([]int, n), up: make([]bool, n)}
	for i := range m.up {
		m.up[i] = true // matches the simulator's all-up default
	}
	return m
}

func (m *soaMirror) TasksArrived(node, count int, t float64) { m.queues[node] += count }
func (m *soaMirror) TaskCompleted(node int, arrival, firstService, completion float64) {
	m.queues[node]--
}
func (m *soaMirror) NodeStateChanged(node int, up bool, t float64) { m.up[node] = up }
func (m *soaMirror) TransferDeparted(from, to, tasks int, t float64) {
	m.queues[from] -= tasks
}
func (m *soaMirror) TransferArrived(to, tasks int, t float64) { m.queues[to] += tasks }

// check compares the packed hot array against the mirror, field by field.
func (m *soaMirror) check(t *testing.T, hot []nodeHot) (ok bool) {
	t.Helper()
	if len(hot) != len(m.queues) {
		t.Errorf("hot array has %d nodes, mirror %d", len(hot), len(m.queues))
		return false
	}
	for i := range hot {
		if int(hot[i].queue) != m.queues[i] {
			t.Errorf("node %d: hot queue %d, mirror %d", i, hot[i].queue, m.queues[i])
			return false
		}
		if hot[i].up != m.up[i] {
			t.Errorf("node %d: hot up %v, mirror %v", i, hot[i].up, m.up[i])
			return false
		}
	}
	return true
}

// TestHotStateMatchesAoSMirror is the struct-of-arrays equivalence
// property: after every event of randomized realisations — mixed
// policies, routers, arrival processes, clusters on both sides of the
// event-queue threshold — the packed hot array must equal, field by field,
// a naive AoS mirror maintained independently from the observer's event
// stream. It is the accounting probe test's pattern applied to the data
// layout itself: the layout refactor cannot have dropped or reordered a
// state write without the two derivations diverging at the very next
// event.
func TestHotStateMatchesAoSMirror(t *testing.T) {
	t.Parallel()
	events, bad := 0, 0
	f := func(seed uint16, nRaw, polRaw, routerRaw, queueRaw uint8) bool {
		rng := xrand.NewStream(uint64(seed), 33)
		n := 2 + int(nRaw)%6
		if queueRaw%2 == 1 {
			n += calendarNodes
		}
		p, load := randomParams(rng, n)

		var pol policy.Policy
		switch polRaw % 3 {
		case 0:
			pol = policy.LBP2{K: 1}
		case 1:
			pol = policy.Dynamic{Base: policy.LBP2{K: 1}}
		default:
			pol = policy.LBP1Multi{K: 0.8}
		}
		var router policy.Router
		if routerRaw%2 == 0 {
			router = policy.JSQ{}
		}
		mirror := newSoaMirror(n)
		res, err := Run(Options{
			Params:         p,
			Policy:         pol,
			InitialLoad:    load,
			Rand:           rng,
			ArrivalRate:    0.8,
			ArrivalBatch:   1 + int(nRaw)%3,
			ArrivalHorizon: 25,
			Router:         router,
			TaskObserver:   NewLedger(n, mirror),
			probe: func(s *simState, _ EventKind, _ int) {
				events++
				if !mirror.check(t, s.hot) {
					bad++
				}
			},
		})
		if err != nil {
			t.Log(err)
			return false
		}
		return res.CompletionTime > 0 && bad == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("soa probe never fired")
	}
	if bad > 0 {
		t.Fatalf("hot array diverged from the AoS mirror at %d of %d events", bad, events)
	}
}

// TestMillionNodeSmoke drives one realisation at N = 10⁶ — the scale the
// SoA layout exists for — on the calendar queue with lazy churn, and holds
// the run to the documented memory budget of 500 B/node total alloc. The
// hot array itself is 56 B/node; the rest is the slab-allocated event
// records and the calendar queue's bucket-head array — every node holds
// work under this uniform load, so lazy churn detaches nobody and the run
// keeps ~2 live timers per node (a measured ~394 B/node; the ceiling
// leaves headroom for GC timing). The same probe under the old five-slice
// AoS layout with 3n per-node closures and slice-of-slices buckets cost
// roughly twice that (see the README memory-layout table for the
// per-size before/after numbers). Skipped under -short: the run fires a
// few million events.
func TestMillionNodeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁶-node realisation is a long smoke test")
	}
	const n = 1_000_000
	p := model.Params{
		ProcRate:     make([]float64, n),
		FailRate:     make([]float64, n),
		RecRate:      make([]float64, n),
		DelayPerTask: 0.02,
	}
	load := make([]int, n)
	for i := 0; i < n; i++ {
		p.ProcRate[i] = 1.5
		p.FailRate[i] = 1.0 / 200
		p.RecRate[i] = 1.0 / 30
		load[i] = 2
	}
	// One fresh realisation is measured, and its ~400 MB arena is not left
	// pinned for the rest of the test binary.
	dropIdleArenas()
	defer dropIdleArenas()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Run(Options{
		Params:      p,
		Policy:      policy.LBP2{K: 1},
		InitialLoad: load,
		Rand:        xrand.NewStream(1, 99),
		LazyChurn:   true,
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionTime <= 0 {
		t.Fatalf("completion time %v, want > 0", res.CompletionTime)
	}
	if got, want := res.Processed[0]+res.Processed[n-1], 0; got < want {
		t.Fatalf("processed counts missing: %d", got)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	perNode := float64(alloc) / n
	t.Logf("N=%d: completion=%.3f, failures=%d, recoveries=%d, totalAlloc=%.1f MB (%.1f B/node)",
		n, res.CompletionTime, res.Failures, res.Recoveries, float64(alloc)/(1<<20), perNode)
	if perNode > 500 {
		t.Fatalf("allocated %.1f B/node, budget is 500 B/node — the layout regressed", perNode)
	}
}
