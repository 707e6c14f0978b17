package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/xrand"
)

// TestTotalInitialLoadCapped: any queue can receive the whole backlog
// through transfers, and queues and batches in flight count in int32, so
// the cap binds the total — one task over is rejected by name on both
// engines, and the largest accepted total validates clean.
func TestTotalInitialLoadCapped(t *testing.T) {
	opt := churnHeavyOptions(4, 0, policy.NoBalance{}, 1)
	opt.InitialLoad = []int{math.MaxInt32 - 2, 1, 1, 1}
	for _, shards := range []int{0, 2} {
		opt.Shards = shards
		_, err := Run(opt)
		if err == nil || !strings.Contains(err.Error(), "total initial load") {
			t.Fatalf("shards %d: total of MaxInt32+1 gave %v, want the total-load error", shards, err)
		}
	}
	opt.Shards = 0
	opt.InitialLoad = []int{math.MaxInt32 - 2, 1, 1, 0}
	if n, err := validateOptions(&opt); err != nil || n != 4 {
		t.Fatalf("total of exactly MaxInt32 rejected: n=%d err=%v", n, err)
	}
}

// episodeState starts a churn-free realisation of n nodes under no
// policy, each holding perNode tasks, for tests that apply episodes by
// hand.
func episodeState(t testing.TB, n, perNode int, delay float64, obs TaskObserver, seed uint64) *simState {
	t.Helper()
	p := model.Params{
		ProcRate:     make([]float64, n),
		FailRate:     make([]float64, n),
		RecRate:      make([]float64, n),
		DelayPerTask: delay,
	}
	load := make([]int, n)
	for i := range load {
		p.ProcRate[i] = 1 + float64(i%3)
		load[i] = perNode
	}
	r, err := Start(Options{Params: p, InitialLoad: load, Rand: xrand.NewStream(seed, 1), TaskObserver: obs})
	if err != nil {
		t.Fatal(err)
	}
	return r.s
}

// TestWarmEpisodeAllocatesNothing: once a realisation's pools have seen
// one 1000-transfer episode, applying the next one and landing all 1000
// batches performs no allocation at all — no closure, no event record,
// no table or free-list growth — on the calendar queue, which 1001 nodes
// select.
func TestWarmEpisodeAllocatesNothing(t *testing.T) {
	const k = 1000
	s := episodeState(t, k+1, 100_000, 1e-4, nil, 7)
	ts := make([]model.Transfer, k)
	for i := range ts {
		ts[i] = model.Transfer{From: 0, To: i + 1, Tasks: 1 + i%3}
	}
	episode := func() {
		s.applyTransfers(ts)
		for s.inFlight > 0 {
			s.sched.ProcessNext()
		}
	}
	episode() // warm: pools sized by reserveEpisode, records recycled
	sent := s.res.TransfersSent
	if allocs := testing.AllocsPerRun(5, episode); allocs != 0 {
		t.Errorf("warm %d-transfer episode and its landings: %v allocations", k, allocs)
	}
	if got := s.res.TransfersSent - sent; got != 6*k {
		t.Fatalf("measured episodes sent %d transfers, want %d", got, 6*k)
	}
	if len(s.flights) > k || len(s.freeFlights) != len(s.flights) {
		t.Errorf("flight table holds %d rows (%d free) after %d-transfer episodes all landed", len(s.flights), len(s.freeFlights), k)
	}
}

// TestInterleavedSendersMatchPerTransferRearm: applyTransfers holds a
// sender's completion insert across a run of its transfers; applying the
// same slice one transfer at a time is the per-transfer re-arm it
// replaces (cancel, draw, insert — every time). On a slice whose senders
// interleave, repeat and run dry, both must leave the same realisation:
// the same Result, the same observer stream, the same position of the
// random stream. Zero delay makes every landing tie at the send instant,
// where only (time, seq) order separates them.
func TestInterleavedSendersMatchPerTransferRearm(t *testing.T) {
	ts := []model.Transfer{
		{From: 0, To: 3, Tasks: 5}, {From: 1, To: 3, Tasks: 2}, {From: 0, To: 4, Tasks: 1},
		{From: 0, To: 5, Tasks: 7}, {From: 2, To: 0, Tasks: 40}, // empties node 2
		{From: 2, To: 1, Tasks: 3}, // nothing left: not sent
		{From: 1, To: 2, Tasks: 4}, {From: 0, To: 1, Tasks: 0}, {From: 1, To: 5, Tasks: 6},
		{From: 0, To: 2, Tasks: 9}, {From: 4, To: 0, Tasks: 1},
	}
	for _, delay := range []float64{0.05, 0} {
		run := func(apply func(s *simState)) (*Result, uint64, uint64) {
			o := newStreamHash()
			s := episodeState(t, 6, 40, delay, o, 21)
			apply(s) // at t = 0, over the timers Start armed
			for i := 0; i < 25; i++ {
				s.sched.ProcessNext()
			}
			apply(s) // mid-run
			r := &Realisation{s: s}
			for !r.Done() && r.ProcessNext() {
			}
			res, err := r.Finish()
			if err != nil {
				t.Fatal(err)
			}
			return res, o.h.Sum64(), s.rng.Uint64()
		}
		held, heldObs, heldRng := run(func(s *simState) { s.applyTransfers(ts) })
		ref, refObs, refRng := run(func(s *simState) {
			for i := range ts {
				s.applyTransfers(ts[i : i+1])
			}
		})
		if !reflect.DeepEqual(held, ref) {
			t.Errorf("delay %v: results differ:\nheld: %+v\nref:  %+v", delay, held, ref)
		}
		if heldObs != refObs {
			t.Errorf("delay %v: observer streams differ: %#x vs %#x", delay, heldObs, refObs)
		}
		if heldRng != refRng {
			t.Errorf("delay %v: random streams ended at different positions", delay)
		}
		if held.TransfersSent != 2*9 {
			t.Fatalf("sent %d transfers, want 18", held.TransfersSent)
		}
	}
}

// TestRunEpisodeMatchesQueueEpisode: an episode of at least episodeRunMin
// transfers books its deliveries as one batch, which the scheduler fires
// from a sorted run; applied one transfer at a time, the same episode
// books each delivery on the event queue. Both must leave the same
// realisation — the same Result, the same observer stream, the same
// position of the random stream — over three episodes with senders
// interleaved: one at t = 0 over the timers Start armed, one while its run
// is still pending (which goes onto the queue), and one after that run
// has drained (which becomes a new run mid-realisation). Zero delay ties
// every landing at its send instant; a delay per task spreads them. The
// 40-node cluster runs on the calendar queue, the 8-node one on the heap.
func TestRunEpisodeMatchesQueueEpisode(t *testing.T) {
	for _, n := range []int{8, 40} {
		rng := xrand.NewStream(3, uint64(n))
		episode := func(k int) []model.Transfer {
			ts := make([]model.Transfer, k)
			for i := range ts {
				from := rng.Intn(n)
				ts[i] = model.Transfer{From: from, To: (from + 1 + rng.Intn(n-1)) % n, Tasks: 1 + rng.Intn(3)}
			}
			return ts
		}
		episodes := [][]model.Transfer{episode(1600), episode(300), episode(1200)}
		for _, delay := range []float64{0, 0.05} {
			run := func(apply func(s *simState, ts []model.Transfer)) (*Result, uint64, uint64) {
				o := newStreamHash()
				s := episodeState(t, n, 2000, delay, o, 5)
				for k, ts := range episodes {
					// Fire enough events that the first run is still pending
					// at the second episode and drained at the third.
					for i := 0; i < []int{0, 50, 3000}[k]; i++ {
						s.sched.ProcessNext()
					}
					apply(s, ts)
				}
				r := &Realisation{s: s}
				for !r.Done() && r.ProcessNext() {
				}
				res, err := r.Finish()
				if err != nil {
					t.Fatal(err)
				}
				return res, o.h.Sum64(), s.rng.Uint64()
			}
			batched, batchedObs, batchedRng := run(func(s *simState, ts []model.Transfer) { s.applyTransfers(ts) })
			ref, refObs, refRng := run(func(s *simState, ts []model.Transfer) {
				for i := range ts {
					s.applyTransfers(ts[i : i+1])
				}
			})
			if !reflect.DeepEqual(batched, ref) {
				t.Errorf("%d nodes, delay %v: results differ:\nrun:   %+v\nqueue: %+v", n, delay, batched, ref)
			}
			if batchedObs != refObs {
				t.Errorf("%d nodes, delay %v: observer streams differ: %#x vs %#x", n, delay, batchedObs, refObs)
			}
			if batchedRng != refRng {
				t.Errorf("%d nodes, delay %v: random streams ended at different positions", n, delay)
			}
			if batched.TransfersSent < 3000 {
				t.Fatalf("%d nodes, delay %v: sent only %d transfers", n, delay, batched.TransfersSent)
			}
		}
	}
}
