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
	"sync"

	"churnlb/internal/model"
)

// Policy decides load transfers. Implementations must be stateless with
// respect to individual runs (the simulator may invoke one instance from
// many concurrent replications); all run state arrives through the
// model.StateView, a zero-copy window onto the realisation's working
// arrays — handing one to a callback costs nothing no matter how many
// nodes the cluster has, which is what keeps failure episodes off the
// O(n)-snapshot path. The view (and anything read through it) dies with
// the call, on every run, traced or not; implementations that must retain
// state across calls keep model.AsState(v).Clone().
//
// Policies whose on-failure transfer sizes depend only on Params should
// additionally implement FailurePlanner (see plan.go): the realisation
// then precomputes eq. (8)'s receiver lists once per run and a failure
// episode costs O(active receivers) instead of O(n).
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Initial returns the transfers executed at t = 0.
	Initial(v model.StateView, p model.Params) []model.Transfer
	// OnFailure returns the transfers the failing node's backup system
	// executes at a failure instant.
	OnFailure(failed int, v model.StateView, p model.Params) []model.Transfer
}

// ArrivalBalancer is implemented by policies that additionally rebalance
// when external workload arrives (the dynamic extension sketched in the
// paper's conclusion). Unlike the rare Initial/OnFailure hooks this one
// sits on the arrival hot path, so it receives the zero-copy StateView:
// implementations that only sample a few nodes pay O(1) per arrival, and
// those that need the whole vector recover it via model.AsState (free when
// the view wraps a snapshot, one materializing copy otherwise). The view
// and the AsState result are valid only for the duration of the call —
// retaining state across arrivals requires AsState(v).Clone().
type ArrivalBalancer interface {
	OnArrival(node int, v model.StateView, p model.Params) []model.Transfer
}

// InitialAppender is implemented by policies that can write their t = 0
// episode into a buffer the caller owns: AppendInitial appends exactly the
// transfers Initial returns, in the same order, to dst and returns it, the
// way FailurePlan.Transfers does for a failure episode. A realisation that
// finds the capability passes its reusable episode buffer, so the largest
// episode of a closed run — one transfer per (sender, receiver) pair that
// rounds to a task — stops being allocated once per run. As with
// FailurePlanner, a wrapper that embeds such a policy and overrides Initial
// must shadow AppendInitial too, or method promotion bypasses the override.
type InitialAppender interface {
	AppendInitial(dst []model.Transfer, v model.StateView, p model.Params) []model.Transfer
}

// NoBalance performs no transfers at all; the baseline every comparison
// in the paper is implicitly made against.
type NoBalance struct{}

// Name implements Policy.
func (NoBalance) Name() string { return "none" }

// Initial implements Policy.
func (NoBalance) Initial(model.StateView, model.Params) []model.Transfer { return nil }

// OnFailure implements Policy.
func (NoBalance) OnFailure(int, model.StateView, model.Params) []model.Transfer { return nil }

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

// Initial implements Policy.
func (l LBP1) Initial(v model.StateView, p model.Params) []model.Transfer {
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
	tasks := RoundGain(l.K, v.Queue(sender))
	if tasks == 0 {
		return nil
	}
	return []model.Transfer{{From: sender, To: 1 - sender, Tasks: tasks}}
}

// OnFailure implements Policy; LBP-1 never reacts to failures.
func (LBP1) OnFailure(int, model.StateView, model.Params) []model.Transfer { return nil }

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

// Initial implements Policy.
func (l LBP1Multi) Initial(v model.StateView, p model.Params) []model.Transfer {
	return proportionalRebalance(v, p, l.K, true)
}

// OnFailure implements Policy.
func (LBP1Multi) OnFailure(int, model.StateView, model.Params) []model.Transfer { return nil }

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

// Initial implements Policy: eq. (7), L_ij = K·p_ij·excess_j for every
// overloaded node j, in a slice of its own (nil when nothing moves).
func (l LBP2) Initial(v model.StateView, p model.Params) []model.Transfer {
	out := l.AppendInitial(nil, v, p)
	if len(out) == 0 {
		return nil
	}
	return out
}

// AppendInitial implements InitialAppender: Initial's episode appended to
// dst. The aggregate sums behind ExcessLoad and PartitionFraction are
// hoisted out of the node loops, making a balancing episode
// O(n·(overloaded nodes)) instead of O(n³) on large clusters; every
// per-pair expression evaluates in the same order as the exported
// eq.-level methods, so transfer sizes stay bit-identical to them.
//
// dst grows at most once, to exactly a bound an O(n) first pass computes:
// a transfer carries at least one task, so sender j emits at most
// min(n-1, m_j, 2K·excess_j) of them — it never ships more than it holds,
// and a receiver gets a task only when its K·p_ij·excess_j reaches the
// 1/2 that rounds up, which at most 2K·excess_j of the p_ij (they sum to
// one) can do — and none at all when even the largest possible p_ij
// rounds to nothing.
func (l LBP2) AppendInitial(dst []model.Transfer, v model.StateView, p model.Params) []model.Transfer {
	n := p.N()
	total := totalQueued(v)
	totalProc := p.TotalProcRate()
	// p_ij <= 1/(n-2) (1 for two nodes): the expressions below are monotone
	// in it, so no receiver's transfer size exceeds the one maxFrac gives.
	maxFrac := 1.0
	if n > 2 {
		maxFrac = 1 / float64(n-2)
	}
	bound := 0
	for j := 0; j < n; j++ {
		excess := l.excessOf(j, v, p, total, totalProc)
		if excess == 0 || math.Round(l.K*maxFrac*float64(excess)) <= 0 {
			continue
		}
		// +1 absorbs the rounding of Σ p_ij in floating point.
		bound += max(0, min(n-1, v.Queue(j), int(2*l.K*float64(excess))+1))
	}
	if bound == 0 {
		return dst
	}
	if cap(dst)-len(dst) < bound {
		dst = append(make([]model.Transfer, 0, len(dst)+bound), dst...)
	}
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
			dst = append(dst, model.Transfer{From: j, To: i, Tasks: tasks})
		}
	}
	return dst
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

// OnFailure implements Policy: the failing node's backup sends LF_ij tasks
// to every peer, never exceeding what remains queued. This is the O(n)
// per-receiver reference scan of eq. (8); realisations never pay it per
// failure — LBP2 implements FailurePlanner, so the simulator precomputes
// the nonzero receiver lists once per run (plan.go) and the scan survives
// as the oracle the plan is property-tested against.
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

// Initial implements Policy.
func (d Dynamic) Initial(v model.StateView, p model.Params) []model.Transfer {
	return d.Base.Initial(v, p)
}

// OnFailure implements Policy.
func (d Dynamic) OnFailure(failed int, v model.StateView, p model.Params) []model.Transfer {
	return d.Base.OnFailure(failed, v, p)
}

// FailurePlan implements FailurePlanner by delegating to the base policy
// when it plans failures too (Dynamic only changes arrival behaviour);
// nil otherwise, which sends the realisation down the per-call path.
func (d Dynamic) FailurePlan(p model.Params) *FailurePlan {
	if fp, ok := d.Base.(FailurePlanner); ok {
		return fp.FailurePlan(p)
	}
	return nil
}

// OnArrival implements ArrivalBalancer by replaying the base policy's
// initial balance against the current view.
func (d Dynamic) OnArrival(_ int, v model.StateView, p model.Params) []model.Transfer {
	return d.Base.Initial(v, p)
}

// totalQueued sums the queue lengths through a view in index order — the
// StateView counterpart of model.State.TotalQueued, same summation order
// so totals (and everything derived from them) stay bit-identical.
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

// rebalanceScratch holds proportionalRebalance's working arrays. They are
// pooled rather than kept on the policy because policies must stay
// stateless — many concurrent replications share one instance — while the
// rebalance runs on the arrival hot path under Dynamic, where a fresh
// weights/excesses/deficits allocation per arrival adds up.
type rebalanceScratch struct {
	weights  []float64
	excesses []int
	deficits []deficitNode
}

var rebalancePool = sync.Pool{New: func() any { return new(rebalanceScratch) }}

// proportionalRebalance ships gain-scaled excess (relative to weighted
// shares) from overloaded to underloaded nodes. Weights are effective
// rates when failureAware, raw rates otherwise.
func proportionalRebalance(v model.StateView, p model.Params, k float64, failureAware bool) []model.Transfer {
	n := p.N()
	total := totalQueued(v)
	sc := rebalancePool.Get().(*rebalanceScratch)
	defer rebalancePool.Put(sc)
	if cap(sc.weights) < n {
		sc.weights = make([]float64, n)
		sc.excesses = make([]int, n)
	}
	weights, excesses := sc.weights[:n], sc.excesses[:n]
	deficits := sc.deficits[:0]
	var wsum float64
	for i := 0; i < n; i++ {
		if failureAware {
			weights[i] = p.EffectiveRate(i)
		} else {
			weights[i] = p.ProcRate[i]
		}
		wsum += weights[i]
	}
	for i := 0; i < n; i++ {
		target := weights[i] / wsum * float64(total)
		diff := float64(v.Queue(i)) - target
		excesses[i] = 0
		if diff >= 1 {
			excesses[i] = int(math.Floor(k * diff))
		} else if diff <= -1 {
			deficits = append(deficits, deficitNode{id: i, amount: -diff})
		}
	}
	sc.deficits = deficits // keep any growth for the next caller
	var deficitTotal float64
	for _, d := range deficits {
		deficitTotal += d.amount
	}
	if deficitTotal == 0 {
		return nil
	}
	var surplus []model.Transfer
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
			surplus = append(surplus, model.Transfer{From: j, To: d.id, Tasks: tasks})
		}
	}
	return surplus
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
