// Package model defines the N-node system description shared by the
// policies, the Monte-Carlo simulator and the concurrent testbed: node
// rates, system snapshots and transfer directives. The two-node analytical
// package (internal/markov) keeps its own specialised representation
// mirroring the paper's equations; FromMarkov/ToMarkov convert between the
// two.
package model

import (
	"fmt"
	"math"
)

// Params describes an N-node distributed system. All rates are per second
// of simulated time; index i is node i.
type Params struct {
	// ProcRate is λd: tasks per second processed by each node while up.
	ProcRate []float64
	// FailRate is λf: failures per second while up (0 = never fails).
	FailRate []float64
	// RecRate is λr: recoveries per second while down.
	RecRate []float64
	// DelayPerTask is δ: mean seconds of transfer delay per task; a bundle
	// of L tasks takes (on average) δ·L seconds to arrive.
	DelayPerTask float64
}

// N returns the number of nodes.
func (p Params) N() int { return len(p.ProcRate) }

// Validate checks dimensions and well-posedness.
func (p Params) Validate() error {
	n := p.N()
	if n == 0 {
		return fmt.Errorf("model: no nodes")
	}
	if len(p.FailRate) != n || len(p.RecRate) != n {
		return fmt.Errorf("model: rate slices disagree: %d proc, %d fail, %d rec",
			n, len(p.FailRate), len(p.RecRate))
	}
	for i := 0; i < n; i++ {
		if p.ProcRate[i] <= 0 || math.IsNaN(p.ProcRate[i]) || math.IsInf(p.ProcRate[i], 0) {
			return fmt.Errorf("model: ProcRate[%d] = %v must be positive and finite", i, p.ProcRate[i])
		}
		if p.FailRate[i] < 0 || math.IsNaN(p.FailRate[i]) {
			return fmt.Errorf("model: FailRate[%d] = %v must be non-negative", i, p.FailRate[i])
		}
		if p.RecRate[i] < 0 || math.IsNaN(p.RecRate[i]) {
			return fmt.Errorf("model: RecRate[%d] = %v must be non-negative", i, p.RecRate[i])
		}
		if p.FailRate[i] > 0 && p.RecRate[i] <= 0 {
			return fmt.Errorf("model: node %d can fail but never recovers", i)
		}
	}
	if p.DelayPerTask < 0 || math.IsNaN(p.DelayPerTask) {
		return fmt.Errorf("model: DelayPerTask = %v must be non-negative", p.DelayPerTask)
	}
	return nil
}

// Availability returns λr/(λf+λr) for node i (1 if the node never fails).
func (p Params) Availability(i int) float64 {
	if p.FailRate[i] == 0 {
		return 1
	}
	return p.RecRate[i] / (p.FailRate[i] + p.RecRate[i])
}

// EffectiveRate returns the long-run processing rate λd·availability.
func (p Params) EffectiveRate(i int) float64 {
	return p.ProcRate[i] * p.Availability(i)
}

// TotalProcRate returns Σλd over all nodes.
func (p Params) TotalProcRate() float64 {
	s := 0.0
	for _, r := range p.ProcRate {
		s += r
	}
	return s
}

// Aggregates caches the O(n) reductions over a parameter set that
// per-event code would otherwise recompute on every call: Σλd and the
// per-node steady-state availabilities. Both values are produced by the
// corresponding Params methods (same arithmetic, same index order), so
// consumers that switch to the cache stay bit-identical with ones that
// recompute. Rates never change mid-run; build once and share.
type Aggregates struct {
	// TotalProcRate is Σλd over all nodes (Params.TotalProcRate).
	TotalProcRate float64
	// Availability[i] is λr/(λf+λr) for node i (Params.Availability).
	Availability []float64
}

// Aggregates computes the cached reductions for p.
func (p Params) Aggregates() Aggregates {
	a := Aggregates{
		TotalProcRate: p.TotalProcRate(),
		Availability:  make([]float64, p.N()),
	}
	for i := range a.Availability {
		a.Availability[i] = p.Availability(i)
	}
	return a
}

// Clone deep-copies the parameter set.
func (p Params) Clone() Params {
	return Params{
		ProcRate:     append([]float64(nil), p.ProcRate...),
		FailRate:     append([]float64(nil), p.FailRate...),
		RecRate:      append([]float64(nil), p.RecRate...),
		DelayPerTask: p.DelayPerTask,
	}
}

// NoFailure returns a copy with every failure rate zeroed.
func (p Params) NoFailure() Params {
	c := p.Clone()
	for i := range c.FailRate {
		c.FailRate[i] = 0
	}
	return c
}

// WithDelay returns a copy with the per-task delay replaced.
func (p Params) WithDelay(delta float64) Params {
	c := p.Clone()
	c.DelayPerTask = delta
	return c
}

// PaperBaseline returns the two-node parameter set measured in Section 4
// of the paper.
func PaperBaseline() Params {
	return Params{
		ProcRate:     []float64{1.08, 1.86},
		FailRate:     []float64{1.0 / 20, 1.0 / 20},
		RecRate:      []float64{1.0 / 10, 1.0 / 20},
		DelayPerTask: 0.02,
	}
}

// EventKind labels trace entries emitted by the simulators and the
// testbed.
type EventKind string

// Trace event kinds.
const (
	EvStart      EventKind = "start"
	EvCompletion EventKind = "completion"
	EvFailure    EventKind = "failure"
	EvRecovery   EventKind = "recovery"
	EvSend       EventKind = "send"
	EvArrival    EventKind = "arrival"
	EvExternal   EventKind = "external"
	EvDone       EventKind = "done"
)

// TracePoint records the queue vector after an event — the raw material of
// the paper's Fig. 4 sample paths.
type TracePoint struct {
	Time   float64
	Kind   EventKind
	Node   int // primary node of the event (-1 when not applicable)
	Queues []int
}

// Transfer directs Tasks tasks from node From to node To.
type Transfer struct {
	From, To int
	Tasks    int
}

// State is a snapshot of the system handed to policies.
type State struct {
	Time          float64
	Queues        []int
	Up            []bool
	InFlightTasks int
}

// StateView is a read-only view of the system state handed to routers
// and policy callbacks. Unlike State it carries no slices of its own: a live view's
// accessors read the simulator's working arrays directly, so building one
// costs nothing no matter how many nodes the cluster has. A view (and
// anything read through it) is only valid for the duration of the call it
// was passed to; callers that must retain state across calls should keep
// AsState(v).Clone() — AsState alone may hand back a buffer the
// realisation reuses.
type StateView interface {
	// Time is the current simulated time.
	Time() float64
	// N is the number of nodes.
	N() int
	// Queue returns the number of tasks queued at node i.
	Queue(i int) int
	// Up reports whether node i is in the working state.
	Up(i int) bool
	// InFlight returns the number of tasks in transfer flight.
	InFlight() int
}

// ScoreIndexed is the optional StateView extension exposed by realisations
// that maintain an incremental routing-score index: MinScoreNode returns
// the node minimising the registered score (ties to the lowest index) in
// O(1), or ok=false when no index is active — callers then fall back to a
// full scan.
type ScoreIndexed interface {
	MinScoreNode() (node int, ok bool)
}

// SnapshotView adapts a copied State to the StateView interface: what a
// caller that owns a State (the live daemon, the sharded engine's t = 0
// balance, tests) hands to a policy or router. The simulator's event loop
// never hands one out — its callbacks get the live view, whose lifetime
// is the call; keep AsState(v).Clone() to retain what a view showed. It
// never carries a score index.
type SnapshotView struct {
	State State
}

// Time implements StateView.
func (v SnapshotView) Time() float64 { return v.State.Time }

// N implements StateView.
func (v SnapshotView) N() int { return len(v.State.Queues) }

// Queue implements StateView.
func (v SnapshotView) Queue(i int) int { return v.State.Queues[i] }

// Up implements StateView.
func (v SnapshotView) Up(i int) bool { return v.State.Up[i] }

// InFlight implements StateView.
func (v SnapshotView) InFlight() int { return v.State.InFlightTasks }

// AsState returns the State behind v: the wrapped State without copying
// when v is a SnapshotView, and a freshly materialized copy otherwise.
// Like the view itself, the result is only valid for the duration of the
// call v was passed to — a SnapshotView may wrap a scratch buffer the
// realisation refills at the next event. Clone the result to retain it.
func AsState(v StateView) State {
	if sv, ok := v.(SnapshotView); ok {
		return sv.State
	}
	n := v.N()
	s := State{
		Time:          v.Time(),
		Queues:        make([]int, n),
		Up:            make([]bool, n),
		InFlightTasks: v.InFlight(),
	}
	for i := 0; i < n; i++ {
		s.Queues[i] = v.Queue(i)
		s.Up[i] = v.Up(i)
	}
	return s
}

// TotalQueued returns the number of queued tasks across all nodes.
func (s State) TotalQueued() int {
	t := 0
	for _, q := range s.Queues {
		t += q
	}
	return t
}

// Remaining returns queued plus in-flight tasks.
func (s State) Remaining() int { return s.TotalQueued() + s.InFlightTasks }

// Clone deep-copies the snapshot.
func (s State) Clone() State {
	return State{
		Time:          s.Time,
		Queues:        append([]int(nil), s.Queues...),
		Up:            append([]bool(nil), s.Up...),
		InFlightTasks: s.InFlightTasks,
	}
}
