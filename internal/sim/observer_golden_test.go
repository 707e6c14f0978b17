package sim

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/xrand"
)

// The hashes below were recorded at commit a6c2a4b, where every transfer
// re-armed its sender's completion timer and landed through a closure.
// They cover what Result cannot see: the order and the arguments of every
// TaskObserver callback, including the firstService stamps that the
// sender's re-arm writes while an episode is being applied.

// streamHash is a TaskObserver folding every callback into one FNV-1a.
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
// holds to its successor.
type shipAll struct{}

func (shipAll) Name() string { return "ship-all" }

func (shipAll) Initial(v model.StateView, _ model.Params) []model.Transfer {
	q := v.Queue(0)
	return []model.Transfer{{From: 0, To: 1, Tasks: q / 2}, {From: 0, To: 2, Tasks: q - q/2}}
}

func (shipAll) OnFailure(failed int, v model.StateView, _ model.Params) []model.Transfer {
	return []model.Transfer{{From: failed, To: (failed + 1) % v.N(), Tasks: v.Queue(failed)}}
}

func TestObserverStreamGolden(t *testing.T) {
	hp, hload := hotspotCluster(40, 3, 600, 3)
	sp, sload := hotspotCluster(5, 1, 200, 0)
	cases := []struct {
		name  string
		opt   Options
		calls int
		fnv   uint64
		// travels marks the case whose backlog starts on node 0 alone: a
		// task first served at t = 0 that completes elsewhere is one the
		// sender's re-arm stamped and a later transfer then shipped.
		travels bool
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
			name:  "whole-queue-shipped",
			opt:   Options{Params: sp, Policy: shipAll{}, InitialLoad: sload, Rand: xrand.NewStream(13, 1)},
			calls: 237, fnv: 0xf7422a4a7a5abe41, travels: true,
		},
		{
			name:  "two-node",
			opt:   Options{Params: model.PaperBaseline(), Policy: policy.LBP2{K: 1}, InitialLoad: []int{100, 60}, Rand: xrand.NewStream(42, 7)},
			calls: 189, fnv: 0x3e1cbfdb0a59a1af,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := newStreamHash()
			opt := c.opt
			opt.TaskObserver = o
			res, err := Run(opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.TransfersSent == 0 || res.Failures == 0 {
				t.Fatalf("case exercises no episode: %d transfers, %d failures", res.TransfersSent, res.Failures)
			}
			if c.travels && o.travelled == 0 {
				t.Error("no stamped in-service task travelled with a transfer")
			}
			if got := o.h.Sum64(); o.calls != c.calls || got != c.fnv {
				t.Errorf("observer stream: %d calls, fnv %#x; recorded %d calls, fnv %#x", o.calls, got, c.calls, c.fnv)
			}
		})
	}
}
