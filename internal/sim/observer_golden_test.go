package sim

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/xrand"
)

// The hashes below were recorded at commit a6c2a4b, where every transfer
// re-armed its sender's completion timer and landed through a closure —
// the last three cases at commit ee9cf46, where the simulator still kept
// the per-task records itself. They cover what Result cannot see: the
// order and the arguments of every callback a Ledger hands its TaskSink,
// including the firstService stamps it rebuilds for the senders of an
// episode being applied.

// streamHash is a TaskSink folding every callback into one FNV-1a.
type streamHash struct {
	h     hash.Hash64
	buf   [8]byte
	calls int
	// travelled counts completions away from node 0 of a task whose
	// service first began at t = 0.
	travelled int
}

func newStreamHash() *streamHash { return &streamHash{h: fnv.New64a()} }

func (o *streamHash) word(v uint64) {
	binary.LittleEndian.PutUint64(o.buf[:], v)
	o.h.Write(o.buf[:])
}

func (o *streamHash) rec(kind int, ints []int, times ...float64) {
	o.calls++
	o.word(uint64(kind))
	for _, v := range ints {
		o.word(uint64(v))
	}
	for _, t := range times {
		o.word(math.Float64bits(t))
	}
}

func (o *streamHash) TasksArrived(node, count int, t float64) {
	o.rec(1, []int{node, count}, t)
}

func (o *streamHash) TaskCompleted(node int, arrival, firstService, completion float64) {
	if node != 0 && firstService == 0 {
		o.travelled++
	}
	o.rec(2, []int{node}, arrival, firstService, completion)
}

func (o *streamHash) NodeStateChanged(node int, up bool, t float64) {
	b := 0
	if up {
		b = 1
	}
	o.rec(3, []int{node, b}, t)
}

func (o *streamHash) TransferDeparted(from, to, tasks int, t float64) {
	o.rec(4, []int{from, to, tasks}, t)
}

func (o *streamHash) TransferArrived(to, tasks int, t float64) {
	o.rec(5, []int{to, tasks}, t)
}

// hashOf returns the streamHash an observer built as NewLedger(n,
// newStreamHash()), or a decisionHash's ledger, feeds.
func hashOf(o TaskObserver) (*streamHash, bool) {
	if d, ok := o.(*decisionHash); ok {
		o = d.Ledger
	}
	if l, ok := o.(*Ledger); ok {
		h, ok := l.sink.(*streamHash)
		return h, ok
	}
	return nil, false
}

// hotspotCluster builds n heterogeneous churning nodes with perHot tasks
// on each of the first hot of them and rest on every other.
func hotspotCluster(n, hot, perHot, rest int) (model.Params, []int) {
	p := model.Params{
		ProcRate:     make([]float64, n),
		FailRate:     make([]float64, n),
		RecRate:      make([]float64, n),
		DelayPerTask: 0.02,
	}
	load := make([]int, n)
	for i := 0; i < n; i++ {
		p.ProcRate[i] = 1 + float64(i%4)*0.5
		p.FailRate[i] = 1.0 / 20
		p.RecRate[i] = 1.0 / 2
		load[i] = rest
		if i < hot {
			load[i] = perHot
		}
	}
	return p, load
}

// shipAll is a test policy whose episodes empty the sender: at t = 0 node
// 0 ships its whole queue in two transfers (the second carries the front
// task the first re-arm stamped), and a failing node ships everything it
// holds to its successor — a one-receiver plan row that
// FailurePlan.Transfers caps at the queue.
type shipAll struct{}

func (shipAll) Name() string { return "ship-all" }

func (shipAll) EachInitial(v model.StateView, _ model.Params, emit func(model.Transfer)) {
	q := v.Queue(0)
	emit(model.Transfer{From: 0, To: 1, Tasks: q / 2})
	emit(model.Transfer{From: 0, To: 2, Tasks: q - q/2})
}

func (shipAll) FailurePlan(p model.Params) *policy.FailurePlan {
	n := p.N()
	rows := make([][]model.Transfer, n)
	for j := range rows {
		rows[j] = []model.Transfer{{From: j, To: (j + 1) % n, Tasks: math.MaxInt}}
	}
	return policy.NewFailurePlan(rows)
}

// shipT0 is shipAll with its own t = 0 episode.
type shipT0 struct {
	shipAll
	initial func(v model.StateView) []model.Transfer
}

func (p shipT0) EachInitial(v model.StateView, _ model.Params, emit func(model.Transfer)) {
	for _, tr := range p.initial(v) {
		emit(tr)
	}
}

// stampWatch is a streamHash that also counts, from the callbacks alone,
// the stamp rule's edge cases as they happen in a run.
type stampWatch struct {
	*streamHash
	queue []int
	// recovered holds the first recovery time of every node that started
	// down holding tasks: -1 until it comes up, 0 for every other node.
	recovered []float64
	// flights holds, per destination, the sizes of its batches in flight
	// in departure order.
	flights [][]int
	// shippedWhole counts t = 0 departures that emptied their sender;
	// stampedAtRecovery completions of a t = 0 task first served the
	// instant an initially-down node first came up; overtaken landings of
	// a batch that departed after another still in flight to its node.
	shippedWhole, stampedAtRecovery, overtaken int
}

func newStampWatch(n int) *stampWatch {
	return &stampWatch{streamHash: newStreamHash(), queue: make([]int, n), recovered: make([]float64, n), flights: make([][]int, n)}
}

func (w *stampWatch) TasksArrived(node, count int, t float64) {
	w.queue[node] += count
	w.streamHash.TasksArrived(node, count, t)
}

func (w *stampWatch) TaskCompleted(node int, arrival, firstService, completion float64) {
	w.queue[node]--
	if arrival == 0 && firstService > 0 && slices.Contains(w.recovered, firstService) {
		w.stampedAtRecovery++
	}
	w.streamHash.TaskCompleted(node, arrival, firstService, completion)
}

func (w *stampWatch) NodeStateChanged(node int, up bool, t float64) {
	switch {
	case !up && t == 0 && w.queue[node] > 0:
		w.recovered[node] = -1
	case up && w.recovered[node] < 0:
		w.recovered[node] = t
	}
	w.streamHash.NodeStateChanged(node, up, t)
}

func (w *stampWatch) TransferDeparted(from, to, tasks int, t float64) {
	w.queue[from] -= tasks
	if t == 0 && w.queue[from] == 0 {
		w.shippedWhole++
	}
	w.flights[to] = append(w.flights[to], tasks)
	w.streamHash.TransferDeparted(from, to, tasks, t)
}

func (w *stampWatch) TransferArrived(to, tasks int, t float64) {
	w.queue[to] += tasks
	k := slices.Index(w.flights[to], tasks)
	if k > 0 {
		w.overtaken++
	}
	w.flights[to] = slices.Delete(w.flights[to], k, k+1)
	w.streamHash.TransferArrived(to, tasks, t)
}

func TestObserverStreamGolden(t *testing.T) {
	hp, hload := hotspotCluster(40, 3, 600, 3)
	sp, sload := hotspotCluster(5, 1, 200, 0)
	wp, wload := hotspotCluster(5, 1, 200, 3)
	fp, fload := hotspotCluster(5, 2, 200, 3)
	cases := []struct {
		name  string
		opt   Options
		calls int
		fnv   uint64
		// happens, when set, names what the case exists for and counts how
		// often it happened in the run, which must be at least once.
		happens func(w *stampWatch) (what string, n int)
	}{
		{
			name:  "hotspot",
			opt:   Options{Params: hp, Policy: policy.LBP2{K: 1}, InitialLoad: hload, Rand: xrand.NewStream(11, 1)},
			calls: 2384, fnv: 0xd80ddbbfaa3ba6cf,
		},
		{
			name:  "hotspot-speedblind",
			opt:   Options{Params: hp, Policy: policy.LBP2{K: 0.8, SpeedBlind: true}, InitialLoad: hload, Rand: xrand.NewStream(12, 1), TransferMode: TransferPerTask},
			calls: 2722, fnv: 0x2d9b6d6e0eb35b41,
		},
		{
			// The backlog starts on node 0 alone: a task first served at
			// t = 0 that completes elsewhere is one the sender's re-arm
			// stamped and a later transfer then shipped.
			name:  "whole-queue-shipped",
			opt:   Options{Params: sp, Policy: shipAll{}, InitialLoad: sload, Rand: xrand.NewStream(13, 1)},
			calls: 237, fnv: 0xf7422a4a7a5abe41,
			happens: func(w *stampWatch) (string, int) {
				return "a stamped in-service task travelling with a transfer", w.travelled
			},
		},
		{
			name:  "two-node",
			opt:   Options{Params: model.PaperBaseline(), Policy: policy.LBP2{K: 1}, InitialLoad: []int{100, 60}, Rand: xrand.NewStream(42, 7)},
			calls: 189, fnv: 0x3e1cbfdb0a59a1af,
		},
		{
			// One t = 0 transfer takes node 0's whole queue: Start ships it
			// before arming any node, so its front travels unstamped and is
			// first served where it lands.
			name: "t0-whole-queue-unstamped",
			opt: Options{Params: sp, Policy: shipT0{initial: func(v model.StateView) []model.Transfer {
				return []model.Transfer{{From: 0, To: 1, Tasks: v.Queue(0)}}
			}}, InitialLoad: sload, Rand: xrand.NewStream(14, 1)},
			calls: 261, fnv: 0xbd6b9af3e130ff7b,
			happens: func(w *stampWatch) (string, int) {
				return "a t = 0 transfer emptying its sender", w.shippedWhole
			},
		},
		{
			// Node 0 starts down holding the backlog: its front is first
			// served when it recovers, not at t = 0.
			name: "initially-down-loaded",
			opt: Options{Params: wp, Policy: shipT0{initial: func(model.StateView) []model.Transfer { return nil }},
				InitialLoad: wload, InitialUp: []bool{false, true, true, true, true}, Rand: xrand.NewStream(15, 1)},
			calls: 289, fnv: 0x4d6ff9384caf6d2b,
			happens: func(w *stampWatch) (string, int) {
				return "a t = 0 task first served at its node's recovery", w.stampedAtRecovery
			},
		},
		{
			// Per-task delays: the big t = 0 batch from node 0 to node 2,
			// which carries the front the first transfer's re-arm stamped,
			// is overtaken by the small one node 1 sends after it.
			name: "landings-out-of-order",
			opt: Options{Params: fp, Policy: shipT0{initial: func(v model.StateView) []model.Transfer {
				q := v.Queue(0)
				return []model.Transfer{{From: 0, To: 1, Tasks: q / 2}, {From: 0, To: 2, Tasks: q - q/2}, {From: 1, To: 2, Tasks: 1}}
			}}, InitialLoad: fload, Rand: xrand.NewStream(16, 1), TransferMode: TransferPerTask},
			calls: 559, fnv: 0x576d3dd5e7e37352,
			happens: func(w *stampWatch) (string, int) {
				return "a landing overtaking an earlier departure to its node", w.overtaken
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := newStampWatch(c.opt.Params.N())
			opt := c.opt
			opt.TaskObserver = NewLedger(opt.Params.N(), o)
			res, err := Run(opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.TransfersSent == 0 || res.Failures == 0 {
				t.Fatalf("case exercises no episode: %d transfers, %d failures", res.TransfersSent, res.Failures)
			}
			if c.happens != nil {
				if what, n := c.happens(o); n == 0 {
					t.Errorf("the run has no %s", what)
				}
			}
			if got := o.h.Sum64(); o.calls != c.calls || got != c.fnv {
				t.Errorf("observer stream: %d calls, fnv %#x; recorded %d calls, fnv %#x", o.calls, got, c.calls, c.fnv)
			}
		})
	}
}
