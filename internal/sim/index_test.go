package sim

import (
	"testing"
	"testing/quick"

	"churnlb/internal/des"
	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/xrand"
)

// TestScoreIndexRandomOps drives the indexed min-heap with random score
// updates and checks its argmin against a naive scan after every one,
// including the (score, index) tie-break.
func TestScoreIndexRandomOps(t *testing.T) {
	rng := xrand.NewStream(11, 3)
	for _, n := range []int{1, 2, 3, 17, 128} {
		x := newScoreIndex(make([]nodeHot, n))
		ref := make([]float64, n)
		for op := 0; op < 4000; op++ {
			i := rng.Intn(n)
			// A coarse grid forces plenty of exact ties.
			s := float64(rng.Intn(6))
			x.set(i, s)
			ref[i] = s
			best := 0
			for j := 1; j < n; j++ {
				if ref[j] < ref[best] {
					best = j
				}
			}
			if got := x.min(); got != best {
				t.Fatalf("n=%d op %d: index argmin %d (score %v), scan %d (score %v)",
					n, op, got, ref[got], best, ref[best])
			}
		}
	}
}

// scanMinScore recomputes the index argmin the pre-index way: a strict
// less-than scan over every node — the reference the incremental index is
// held to.
func scanMinScore(s *simState) int {
	best := 0
	bestW := s.scoreFn(0, s.queueOf(0), s.hot[0].up)
	for i := 1; i < len(s.hot); i++ {
		if w := s.scoreFn(i, s.queueOf(i), s.hot[i].up); w < bestW {
			best, bestW = i, w
		}
	}
	return best
}

// scanRouter hides every capability of the router it wraps except Route:
// a run given one maintains no load index, so an indexable router falls
// back to its reference scan of the live view — the path routers without
// the IndexedRouter capability always take.
type scanRouter struct{ policy.Router }

// TestLoadIndexMatchesScanEveryEvent is the equivalence property of the
// incremental load index: replaying mixed workloads — external arrivals,
// completions, transfers, failures and recoveries — the index argmin must
// agree with a fresh O(n) reference scan after every single event, for
// both indexable routers (JSQ's queue-length score and LEW's
// expected-delay score) across randomized systems, policies and seeds,
// traced or not. It mirrors the accounting probe test for scanRemaining.
func TestLoadIndexMatchesScanEveryEvent(t *testing.T) {
	t.Parallel()
	mismatches, events := 0, 0
	f := func(seed uint16, nRaw, polRaw, routerRaw uint8) bool {
		rng := xrand.NewStream(uint64(seed), 21)
		n := 2 + int(nRaw)%6
		p, load := randomParams(rng, n)

		var pol policy.Policy
		switch polRaw % 3 {
		case 0:
			pol = policy.LBP2{K: 1} // on-failure transfers
		case 1:
			pol = policy.Dynamic{Base: policy.LBP2{K: 1}} // transfers at every arrival
		default:
			pol = policy.LBP1Multi{K: 0.8} // initial transfers only
		}
		var router policy.Router
		if routerRaw%2 == 0 {
			router = policy.JSQ{}
		} else {
			router = policy.LeastExpectedWork{}
		}
		res, err := Run(Options{
			Params:         p,
			Policy:         pol,
			InitialLoad:    load,
			Rand:           rng,
			ArrivalRate:    0.8,
			ArrivalBatch:   1 + int(nRaw)%3,
			ArrivalHorizon: 25,
			Router:         router,
			Trace:          routerRaw%4 >= 2, // a traced run keeps its index
			probe: func(s *simState, _ EventKind, _ int) {
				if s.lidx == nil {
					return
				}
				events++
				if s.lidx.min() != scanMinScore(s) {
					mismatches++
				}
			},
		})
		if err != nil {
			t.Log(err)
			return false
		}
		return res.CompletionTime > 0 && mismatches == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("index probe never fired — no run maintained an index")
	}
	if mismatches > 0 {
		t.Fatalf("load index diverged from the reference scan %d of %d times", mismatches, events)
	}
}

// TestIndexedRoutingBitIdenticalToScan proves the end-to-end equivalence:
// a run whose router hides its IndexedRouter capability routes through the
// O(n) reference scan, a run with the bare router through the incremental
// index, and for the same seed both must make exactly the same decisions —
// bit-identical completion times and identical per-node processed counts.
// An observer folding every decision changes neither: the observed run
// keeps its index.
func TestIndexedRoutingBitIdenticalToScan(t *testing.T) {
	for _, tc := range []struct {
		name   string
		router func() policy.Router
	}{
		{"jsq", func() policy.Router { return policy.JSQ{} }},
		{"lew", func() policy.Router { return policy.LeastExpectedWork{} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(router policy.Router, wantIndex bool, observer TaskObserver) *Result {
				rng := xrand.NewStream(17, 5)
				p, load := randomParams(rng, 6)
				probed := false
				res, err := Run(Options{
					Params:         p,
					Policy:         policy.LBP2{K: 1},
					InitialLoad:    load,
					Rand:           rng,
					ArrivalRate:    1.2,
					ArrivalHorizon: 30,
					Router:         router,
					TaskObserver:   observer,
					probe: func(s *simState, _ EventKind, _ int) {
						probed = true
						if got := s.lidx != nil; got != wantIndex {
							t.Fatalf("run maintains an index: %v, want %v", got, wantIndex)
						}
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				if !probed {
					t.Fatal("probe never fired")
				}
				return res
			}
			folded := newDecisionHash(6, tc.router())
			scan, indexed, observed := run(scanRouter{tc.router()}, false, nil), run(tc.router(), true, nil), run(tc.router(), true, folded)
			if !sameResult(scan, indexed) {
				t.Errorf("indexed run diverged from the scan:\nscan:    %+v\nindexed: %+v", scan, indexed)
			}
			if !sameResult(indexed, observed) {
				t.Errorf("observed run diverged:\nplain:    %+v\nobserved: %+v", indexed, observed)
			}
			if folded.decisions == 0 {
				t.Error("the observer saw no decision")
			}
			if scan.ExternalArrivals == 0 {
				t.Error("no arrival was routed; the comparison proved nothing")
			}
		})
	}
}

// benchIndexedState builds a live, score-indexed view over n nodes with
// random queue lengths — the state a router sees mid-run.
func benchIndexedState(b *testing.B, n int, r policy.IndexedRouter) (*simState, *xrand.Rand) {
	b.Helper()
	rng := xrand.NewStream(1, uint64(n))
	p := model.Params{
		ProcRate: make([]float64, n),
		FailRate: make([]float64, n),
		RecRate:  make([]float64, n),
	}
	s := &simState{
		p:     p,
		sched: des.NewWithQueue(des.QueueHeap),
		hot:   make([]nodeHot, n),
	}
	for i := 0; i < n; i++ {
		p.ProcRate[i] = 0.5 + 2*rng.Float64()
		p.FailRate[i] = 0.01
		p.RecRate[i] = 0.05
		s.hot[i].queue = int32(rng.Intn(50))
		s.hot[i].up = rng.Float64() < 0.9
	}
	s.live = &liveView{s}
	s.scoreFn = r.RouteScore(p)
	s.lidx = newScoreIndex(s.hot)
	for i := 0; i < n; i++ {
		s.lidx.set(i, s.scoreFn(i, s.queueOf(i), s.hot[i].up))
	}
	return s, rng
}

// benchRouteIndexed measures one routed arrival against the incremental
// index: the O(1) argmin lookup plus the O(log n) index refresh of the
// chosen queue — the full hot-path cost the simulator pays per task.
func benchRouteIndexed(b *testing.B, n int, r policy.IndexedRouter) {
	s, rng := benchIndexedState(b, n, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node := r.Route(s.live, s.p, rng)
		s.hot[node].queue++
		s.reindex(node)
	}
}

// BenchmarkRouteJSQIndexed times index-backed JSQ dispatch; per-op cost
// must stay flat as N grows 100 -> 10000.
func BenchmarkRouteJSQIndexed(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(sizeLabel(n), func(b *testing.B) { benchRouteIndexed(b, n, policy.JSQ{}) })
	}
}

// BenchmarkRouteLEWIndexed times index-backed full-scan LeastExpectedWork
// dispatch (D = 0) at the same sizes.
func BenchmarkRouteLEWIndexed(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(sizeLabel(n), func(b *testing.B) { benchRouteIndexed(b, n, policy.LeastExpectedWork{}) })
	}
}

func sizeLabel(n int) string {
	switch n {
	case 100:
		return "N100"
	case 1000:
		return "N1000"
	default:
		return "N10000"
	}
}
