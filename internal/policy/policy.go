// Package policy implements the load-balancing policies of the paper:
// LBP-1 (a single preemptive transfer at t = 0 sized by a gain K that
// accounts for failure and recovery statistics) and LBP-2 (a
// failure-agnostic initial balance using speed-weighted excess loads,
// eqs. 6–7, plus a compensating transfer at every failure instant, eq. 8).
// It also provides the no-balancing baseline and the ablated variants used
// by the benchmark harness.
package policy

import (
	"fmt"
	"math"

	"churnlb/internal/model"
)

// Policy is what a balancing policy does: one episode at t = 0 and a
// failure plan fixed before the run starts. The paper's two policies need
// nothing else — LBP-1 acts once at t = 0, and LBP-2's failure action,
// eq. (8)'s LF_ij, depends on rates alone — and every engine (the
// simulator, serving, the live daemon) runs exactly this contract.
// Implementations must be stateless with respect to individual runs (the
// simulator may invoke one instance from many concurrent replications).
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// EachInitial hands emit the transfers executed at t = 0, one at a
	// time and in episode order. The view is the state before the episode
	// and dies with the call, on every run, traced or not: the simulator's
	// is a zero-copy window onto the realisation's working arrays, held at
	// the initial queues while the episode streams. An implementation that
	// must keep what it saw keeps model.AsState(v).Clone(). A realisation
	// ships each transfer as it is emitted, so no episode is ever held in
	// a list; CollectInitial gathers one for callers that want the slice.
	EachInitial(v model.StateView, p model.Params, emit func(model.Transfer))
	// FailurePlan returns the transfers a failing node's backup executes,
	// precomputed for parameter set p (see plan.go); nil means nothing
	// moves on a failure.
	FailurePlan(p model.Params) *FailurePlan
}

// ArrivalBalancer is implemented by policies that additionally rebalance
// when external workload arrives (the dynamic extension sketched in the
// paper's conclusion). It sits on the arrival hot path, so it receives
// the zero-copy StateView: implementations that only sample a few nodes
// pay O(1) per arrival, and those that need the whole vector recover it
// via model.AsState (free when the view wraps a snapshot, one
// materializing copy otherwise). The view and the AsState result are
// valid only for the duration of the call — retaining state across
// arrivals requires AsState(v).Clone().
type ArrivalBalancer interface {
	OnArrival(node int, v model.StateView, p model.Params) []model.Transfer
}

// CollectInitial returns pol's t = 0 episode in a slice of its own, nil
// when nothing moves: what the live daemon's preload and Dynamic's arrival
// episodes ship.
func CollectInitial(pol Policy, v model.StateView, p model.Params) []model.Transfer {
	var out []model.Transfer
	pol.EachInitial(v, p, func(tr model.Transfer) { out = append(out, tr) })
	return out
}

// NoBalance performs no transfers at all; the baseline every comparison
// in the paper is implicitly made against.
type NoBalance struct{}

// Name implements Policy.
func (NoBalance) Name() string { return "none" }

// EachInitial implements Policy: nothing moves.
func (NoBalance) EachInitial(model.StateView, model.Params, func(model.Transfer)) {}

// FailurePlan implements Policy: nothing moves on a failure.
func (NoBalance) FailurePlan(model.Params) *FailurePlan { return nil }

// AutoSender selects the sender with the larger initial queue (the
// optimal choice observed throughout Section 4 of the paper).
const AutoSender = -1

// LBP1 is the preemptive policy: one one-way transfer of
// RoundGain(K, m_sender) tasks at t = 0 and nothing afterwards. For
// two-node systems the sender is either fixed or chosen as the more loaded
// node; the gain K should come from the analytical optimisation
// (markov.MeanSolver.OptimizeLBP1).
type LBP1 struct {
	// K is the load-balancing gain in [0, 1].
	K float64
	// Sender is the sending node index, or AutoSender to pick the node
	// with the larger queue.
	Sender int
}

// Name implements Policy.
func (l LBP1) Name() string { return fmt.Sprintf("LBP-1(K=%.2f)", l.K) }

// EachInitial implements Policy.
func (l LBP1) EachInitial(v model.StateView, p model.Params, emit func(model.Transfer)) {
	n := p.N()
	if n != 2 {
		// LBP-1 is specified by the paper for two nodes. For larger
		// systems use LBP1Multi.
		panic(fmt.Sprintf("policy: LBP1 requires 2 nodes, got %d (use LBP1Multi)", n))
	}
	sender := l.Sender
	if sender == AutoSender {
		sender = 0
		if v.Queue(1) > v.Queue(0) {
			sender = 1
		}
	}
	if sender != 0 && sender != 1 {
		panic(fmt.Sprintf("policy: LBP1 invalid sender %d", sender))
	}
	if tasks := RoundGain(l.K, v.Queue(sender)); tasks > 0 {
		emit(model.Transfer{From: sender, To: 1 - sender, Tasks: tasks})
	}
}

// FailurePlan implements Policy: LBP-1 never reacts to failures.
func (LBP1) FailurePlan(model.Params) *FailurePlan { return nil }

// LBP1Multi generalises the preemptive idea to N nodes (a documented
// extension, not part of the paper): the target share of each node is
// proportional to its *effective* rate λd·availability — exactly the
// quantity LBP-1's optimisation discounts for two nodes — and every
// overloaded node ships gain-scaled excess to the underloaded ones in a
// single initial round.
type LBP1Multi struct {
	K float64
}

// Name implements Policy.
func (l LBP1Multi) Name() string { return fmt.Sprintf("LBP-1-multi(K=%.2f)", l.K) }

// EachInitial implements Policy.
func (l LBP1Multi) EachInitial(v model.StateView, p model.Params, emit func(model.Transfer)) {
	proportionalRebalance(v, p, l.K, emit)
}

// FailurePlan implements Policy: the preemptive round is all it does.
func (LBP1Multi) FailurePlan(model.Params) *FailurePlan { return nil }

// LBP2 is the on-failure policy of Section 2.2: a failure-agnostic initial
// balance (speed-weighted excess, eqs. 6–7, gain K optimised under the
// no-failure model) plus a fixed-size compensating transfer from the
// failing node's backup at every failure instant (eq. 8).
type LBP2 struct {
	// K is the initial load-balancing gain in [0, 1].
	K float64
	// SpeedBlind replicates the authors' earlier excess definition that
	// ignored processing speeds (ablation).
	SpeedBlind bool
	// AvailabilityBlind drops the λr/(λf+λr) steady-state weighting from
	// the on-failure transfer size (ablation of eq. 8).
	AvailabilityBlind bool
}

// Name implements Policy.
func (l LBP2) Name() string {
	suffix := ""
	if l.SpeedBlind {
		suffix += ",speed-blind"
	}
	if l.AvailabilityBlind {
		suffix += ",avail-blind"
	}
	return fmt.Sprintf("LBP-2(K=%.2f%s)", l.K, suffix)
}

// ExcessLoad returns eq. (6)'s excess for node j: the positive part of the
// queue beyond the node's speed-weighted share of the total workload.
func (l LBP2) ExcessLoad(j int, v model.StateView, p model.Params) int {
	return l.excessOf(j, v, p, totalQueued(v), p.TotalProcRate())
}

// excessOf is ExcessLoad with the aggregate sums supplied by the caller.
func (l LBP2) excessOf(j int, v model.StateView, p model.Params, total int, totalProc float64) int {
	share := p.ProcRate[j] / totalProc
	if l.SpeedBlind {
		share = 1 / float64(p.N())
	}
	excess := float64(v.Queue(j)) - share*float64(total)
	if excess <= 0 {
		return 0
	}
	return int(excess) // the paper floors to whole tasks
}

// PartitionFraction returns p_ij of eq. (6): the fraction of node j's
// excess that is shipped to node i. The fractions over i ≠ j sum to one.
func (l LBP2) PartitionFraction(i, j int, v model.StateView, p model.Params) float64 {
	n := p.N()
	if i == j {
		return 0
	}
	if n == 2 {
		return 1
	}
	// Σ_{l≠j} m_l/λd_l: total expected drain time of the receivers.
	var denom float64
	for k := 0; k < n; k++ {
		if k == j {
			continue
		}
		denom += float64(v.Queue(k)) / p.ProcRate[k]
	}
	if denom == 0 {
		// Every receiver is empty; split evenly.
		return 1 / float64(n-1)
	}
	return (1 - (float64(v.Queue(i))/p.ProcRate[i])/denom) / float64(n-2)
}

// Initial is eq. (7), L_ij = K·p_ij·excess_j for every overloaded node j,
// in a slice of its own (nil when nothing moves): EachInitial's episode,
// counted by a first pass and then collected into a slice of exactly that
// length, so the call allocates once.
func (l LBP2) Initial(v model.StateView, p model.Params) []model.Transfer {
	k := 0
	l.EachInitial(v, p, func(model.Transfer) { k++ })
	if k == 0 {
		return nil
	}
	out := make([]model.Transfer, 0, k)
	l.EachInitial(v, p, func(tr model.Transfer) { out = append(out, tr) })
	return out
}

// EachInitial implements Policy: eq. (7)'s episode, sender by sender in
// ascending j and each sender's receivers in ascending i. The aggregate
// sums behind ExcessLoad and PartitionFraction are hoisted out of the node
// loops, making a balancing episode O(n·(overloaded nodes)) instead of
// O(n³) on large clusters; every per-pair expression evaluates in the same
// order as the exported eq.-level methods, so transfer sizes stay
// bit-identical to them.
func (l LBP2) EachInitial(v model.StateView, p model.Params, emit func(model.Transfer)) {
	n := p.N()
	total := totalQueued(v)
	totalProc := p.TotalProcRate()
	for j := 0; j < n; j++ {
		excess := l.excessOf(j, v, p, total, totalProc)
		if excess == 0 {
			continue
		}
		// Σ_{k≠j} m_k/λd_k of eq. (6), accumulated in the same k order as
		// PartitionFraction.
		var denom float64
		if n > 2 {
			for k := 0; k < n; k++ {
				if k == j {
					continue
				}
				denom += float64(v.Queue(k)) / p.ProcRate[k]
			}
		}
		sent := 0
		for i := 0; i < n; i++ {
			if i == j {
				continue
			}
			var frac float64
			switch {
			case n == 2:
				frac = 1
			case denom == 0:
				// Every receiver is empty; split evenly.
				frac = 1 / float64(n-1)
			default:
				frac = (1 - (float64(v.Queue(i))/p.ProcRate[i])/denom) / float64(n-2)
			}
			tasks := int(math.Round(l.K * frac * float64(excess)))
			if tasks <= 0 {
				continue
			}
			if sent+tasks > v.Queue(j) {
				tasks = v.Queue(j) - sent
			}
			if tasks <= 0 {
				break
			}
			sent += tasks
			emit(model.Transfer{From: j, To: i, Tasks: tasks})
		}
	}
}

// FailureTransferSize returns eq. (8)'s LF_ij: the number of tasks the
// failing node j sends to node i at a failure instant —
// ⌊ availability_i · (λd_i/Σλd) · (λd_j/λr_j) ⌋, the expected backlog
// accumulated during j's recovery, split by processing speed and
// discounted by the receiver's own availability.
func (l LBP2) FailureTransferSize(i, j int, p model.Params) int {
	if i == j || p.RecRate[j] == 0 {
		return 0
	}
	avail := p.Availability(i)
	if l.AvailabilityBlind {
		avail = 1
	}
	backlog := p.ProcRate[j] / p.RecRate[j]
	share := p.ProcRate[i] / p.TotalProcRate()
	return int(math.Floor(avail * share * backlog))
}

// OnFailure is the O(n) per-receiver reference scan of eq. (8): the
// failing node's backup sends LF_ij tasks to every peer, never exceeding
// what remains queued. No run calls it — every engine serves failures
// from FailurePlan's precomputed receiver lists — and it survives as the
// oracle the plan is property-tested against.
func (l LBP2) OnFailure(failed int, v model.StateView, p model.Params) []model.Transfer {
	var out []model.Transfer
	remaining := v.Queue(failed)
	if remaining <= 0 || p.RecRate[failed] == 0 {
		return nil
	}
	backlog := p.ProcRate[failed] / p.RecRate[failed]
	totalProc := p.TotalProcRate()
	for i := 0; i < p.N() && remaining > 0; i++ {
		if i == failed {
			continue
		}
		avail := p.Availability(i)
		if l.AvailabilityBlind {
			avail = 1
		}
		tasks := int(math.Floor(avail * (p.ProcRate[i] / totalProc) * backlog))
		if tasks > remaining {
			tasks = remaining
		}
		if tasks <= 0 {
			continue
		}
		remaining -= tasks
		out = append(out, model.Transfer{From: failed, To: i, Tasks: tasks})
	}
	return out
}

// Dynamic wraps a base policy and re-runs its initial balancing step at
// every external-arrival instant — the simplified dynamic scheme proposed
// in the paper's conclusion ("execute load-balancing episodes at every
// external arrival of new workloads").
type Dynamic struct {
	Base Policy
}

// Name implements Policy.
func (d Dynamic) Name() string { return "dynamic(" + d.Base.Name() + ")" }

// EachInitial implements Policy by delegating to the base policy.
func (d Dynamic) EachInitial(v model.StateView, p model.Params, emit func(model.Transfer)) {
	d.Base.EachInitial(v, p, emit)
}

// FailurePlan implements Policy by delegating to the base policy: Dynamic
// only changes arrival behaviour.
func (d Dynamic) FailurePlan(p model.Params) *FailurePlan { return d.Base.FailurePlan(p) }

// OnArrival implements ArrivalBalancer by replaying the base policy's
// initial balance against the current view.
func (d Dynamic) OnArrival(_ int, v model.StateView, p model.Params) []model.Transfer {
	return CollectInitial(d.Base, v, p)
}

// totalQueued sums the queue lengths through a view in index order.
func totalQueued(v model.StateView) int {
	t := 0
	for i, n := 0, v.N(); i < n; i++ {
		t += v.Queue(i)
	}
	return t
}

type deficitNode struct {
	id     int
	amount float64
}

// proportionalRebalance emits the transfers that ship gain-scaled excess
// (relative to weighted shares) from overloaded to underloaded nodes.
// Weights are effective rates λd·availability.
func proportionalRebalance(v model.StateView, p model.Params, k float64, emit func(model.Transfer)) {
	n := p.N()
	total := totalQueued(v)
	weights, excesses := make([]float64, n), make([]int, n)
	var deficits []deficitNode
	var wsum float64
	for i := 0; i < n; i++ {
		weights[i] = p.EffectiveRate(i)
		wsum += weights[i]
	}
	for i := 0; i < n; i++ {
		target := weights[i] / wsum * float64(total)
		diff := float64(v.Queue(i)) - target
		if diff >= 1 {
			excesses[i] = int(math.Floor(k * diff))
		} else if diff <= -1 {
			deficits = append(deficits, deficitNode{id: i, amount: -diff})
		}
	}
	var deficitTotal float64
	for _, d := range deficits {
		deficitTotal += d.amount
	}
	if deficitTotal == 0 {
		return
	}
	for j := 0; j < n; j++ {
		if excesses[j] == 0 {
			continue
		}
		remaining := excesses[j]
		if q := v.Queue(j); remaining > q {
			remaining = q
		}
		for _, d := range deficits {
			tasks := int(math.Round(float64(excesses[j]) * d.amount / deficitTotal))
			if tasks > remaining {
				tasks = remaining
			}
			if tasks <= 0 {
				continue
			}
			remaining -= tasks
			emit(model.Transfer{From: j, To: d.id, Tasks: tasks})
		}
	}
}

// RoundGain is the paper's transfer size L = round(K·m): the tasks a gain
// k moves out of a queue of m. LBP-1 applies it at t = 0, and
// internal/markov prices it, so the analysis and the simulation move the
// same L. The result lies in [0, m] for every k: a gain that is not
// positive (NaN included) moves nothing and one of at least 1 (+Inf
// included) moves the whole queue.
func RoundGain(k float64, m int) int {
	if !(k > 0) || m <= 0 {
		return 0
	}
	if k >= 1 {
		return m
	}
	return int(math.Round(k * float64(m)))
}

// CheckGain reports whether k is a load-balancing gain, a number in
// [0, 1]; NaN is not one.
func CheckGain(k float64) error {
	if !(k >= 0 && k <= 1) {
		return fmt.Errorf("policy: gain K = %v outside [0, 1]", k)
	}
	return nil
}
