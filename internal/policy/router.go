package policy

import (
	"fmt"

	"churnlb/internal/model"
	"churnlb/internal/xrand"
)

// Router is the dispatcher side of the open-system serving layer: where a
// load-balancing Policy moves tasks that are already queued, a Router
// decides which node receives each arriving task. The randomized
// few-choice family (RoundRobin, JSQ, PowerOfD) is deliberately
// churn-blind — it ranks nodes by queue length alone, the standard
// baseline for stochastic arrivals — while LeastExpectedWork transplants
// the paper's insight to routing by pricing a down node at its expected
// recovery time.
//
// Route is the only decision procedure a router has: the simulator and
// the live dispatcher both call it, observed or not
// (a decision trace learns the size of the rule's candidate set from
// Considered, not from a second implementation). Routers may keep per-run
// state (RoundRobin does); supply a fresh instance to every realisation.
// The view passed to Route dies with the call, on every run, traced or
// not; keep model.AsState(v).Clone() to retain what it showed.
type Router interface {
	// Name identifies the router in reports.
	Name() string
	// Route returns the node index that receives the arriving task batch.
	Route(v model.StateView, p model.Params, rng *xrand.Rand) int
}

// RouteScore maps one node's live state to the routing score an
// incremental index maintains: lower wins, ties to the lowest index. The
// function must be pure — the same (i, queue, up) must always produce the
// same score — because the index only re-evaluates it when node i's queue
// or up state changes.
type RouteScore func(i, queue int, up bool) float64

// IndexedRouter is implemented by routers whose full-scan argmin can be
// maintained incrementally by the realisation. When the installed router
// returns a non-nil RouteScore, the simulator keeps a score-keyed indexed
// min-heap fresh across every queue and up/down mutation and exposes its
// argmin through model.ScoreIndexed, turning each Route call from an O(n)
// rescan into an O(1) lookup. Each node's heap slot lives inside the
// simulator's packed per-node hot struct (sim's SoA layout) rather than a
// side array, so the index refresh triggered by an event writes to cache
// lines that event already touched.
type IndexedRouter interface {
	Router
	// RouteScore returns the score to index for parameter set p, or nil
	// when this configuration routes by sampling and needs no index.
	RouteScore(p model.Params) RouteScore
}

// RoundRobin cycles through nodes in index order regardless of queue
// length or up/down state — the naive dispatcher baseline.
type RoundRobin struct {
	next int
}

// NewRoundRobin returns a fresh rotation starting at node 0.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Router.
func (*RoundRobin) Name() string { return "rr" }

// Route implements Router.
//
//churnlb:hotpath
func (r *RoundRobin) Route(v model.StateView, p model.Params, _ *xrand.Rand) int {
	i := r.next % p.N()
	r.next++
	return i
}

// JSQ joins the shortest queue over all nodes (ties to the lowest index).
// It is churn-blind: a down node's frozen queue looks exactly as
// attractive as a live one, which is precisely the failure mode the
// churn-aware router exists to fix. Against a score-indexed live view a
// Route is O(1); against a plain snapshot it falls back to the O(n) scan.
type JSQ struct{}

// Name implements Router.
func (JSQ) Name() string { return "jsq" }

// RouteScore implements IndexedRouter: the score is the queue length
// itself, so the indexed argmin reproduces the scan's pick exactly
// (shortest queue, lowest index on ties).
func (JSQ) RouteScore(model.Params) RouteScore {
	return func(_, queue int, _ bool) float64 { return float64(queue) }
}

// Route implements Router.
//
//churnlb:hotpath
func (JSQ) Route(v model.StateView, _ model.Params, _ *xrand.Rand) int {
	if ix, ok := v.(model.ScoreIndexed); ok {
		if i, ok := ix.MinScoreNode(); ok {
			return i
		}
	}
	best := 0
	for i := 1; i < v.N(); i++ {
		if v.Queue(i) < v.Queue(best) {
			best = i
		}
	}
	return best
}

// PowerOfD samples D nodes uniformly (with replacement) and joins the
// shortest sampled queue — the classic power-of-d-choices dispatcher,
// O(d) per task. Churn-blind like JSQ.
type PowerOfD struct {
	// D is the number of choices; values < 2 default to 2.
	D int
}

// Name implements Router.
func (r PowerOfD) Name() string { return fmt.Sprintf("pod%d", r.choices()) }

func (r PowerOfD) choices() int {
	if r.D < 2 {
		return 2
	}
	return r.D
}

// Route implements Router.
//
//churnlb:hotpath
func (r PowerOfD) Route(v model.StateView, p model.Params, rng *xrand.Rand) int {
	n := p.N()
	best := rng.Intn(n)
	for d := 1; d < r.choices(); d++ {
		c := rng.Intn(n)
		if v.Queue(c) < v.Queue(best) {
			best = c
		}
	}
	return best
}

// LeastExpectedWork is the churn-aware router: it scores a node by the
// expected time the arriving task would wait behind the work already
// there, discounting throughput by long-run availability and charging a
// down node its expected remaining recovery time 1/λr — the paper's
// failure-and-recovery statistics transplanted from transfer sizing to
// dispatch. With D > 0 it scores D sampled nodes (O(d) per task, the
// drop-in churn-aware counterpart of PowerOfD); with D = 0 it considers
// all nodes (the idealised counterpart of JSQ) — O(1) against a
// score-indexed live view, an O(n) scan against a plain snapshot.
type LeastExpectedWork struct {
	// D is the number of sampled choices; 0 scans every node.
	D int
}

// Name implements Router.
func (r LeastExpectedWork) Name() string {
	if r.D <= 0 {
		return "lew"
	}
	return fmt.Sprintf("lew%d", r.D)
}

// ExpectedWork returns the expected completion delay of a task joining
// node i in state (queue, up): the queue ahead of it (plus itself) over
// the node's availability-discounted throughput, plus the expected
// remaining recovery time 1/λr when the node is down. It is the score
// LeastExpectedWork routes by and the load index maintains, and the price
// the decision-trace bus puts on every counterfactual candidate.
//
//churnlb:hotpath
func ExpectedWork(i, queue int, up bool, p model.Params) float64 {
	w := float64(queue+1) / p.EffectiveRate(i)
	if !up && p.RecRate[i] > 0 {
		w += 1 / p.RecRate[i]
	}
	return w
}

// RouteScore implements IndexedRouter: the full-scan configuration (D = 0)
// indexes the expected-delay score, evaluated with exactly the arithmetic
// of the scan so the indexed argmin is bit-identical to it; sampled
// configurations (D > 0) return nil.
func (r LeastExpectedWork) RouteScore(p model.Params) RouteScore {
	if r.D > 0 {
		return nil
	}
	return func(i, queue int, up bool) float64 { return ExpectedWork(i, queue, up, p) }
}

// Route implements Router.
//
//churnlb:hotpath
func (r LeastExpectedWork) Route(v model.StateView, p model.Params, rng *xrand.Rand) int {
	n := p.N()
	if r.D <= 0 {
		if ix, ok := v.(model.ScoreIndexed); ok {
			if i, ok := ix.MinScoreNode(); ok {
				return i
			}
		}
		best := 0
		bestW := ExpectedWork(0, v.Queue(0), v.Up(0), p)
		for i := 1; i < n; i++ {
			if w := ExpectedWork(i, v.Queue(i), v.Up(i), p); w < bestW {
				best, bestW = i, w
			}
		}
		return best
	}
	best := rng.Intn(n)
	bestW := ExpectedWork(best, v.Queue(best), v.Up(best), p)
	for d := 1; d < r.D; d++ {
		c := rng.Intn(n)
		if w := ExpectedWork(c, v.Queue(c), v.Up(c), p); w < bestW {
			best, bestW = c, w
		}
	}
	return best
}

// Considered returns how many nodes r's rule consults for one decision on
// an n-node cluster — 1 for the rotation, n for the full scans (JSQ, LEW
// with D = 0), the sample size for the few-choice rules, and 0 for nil
// (uniform) or any router this package does not define. It is a constant
// of the router configuration; decision traces record it as "cands".
func Considered(r Router, n int) int {
	switch r := r.(type) {
	case *RoundRobin:
		return 1
	case JSQ:
		return n
	case PowerOfD:
		return r.choices()
	case LeastExpectedWork:
		if r.D > 0 {
			return r.D
		}
		return n
	}
	return 0
}
