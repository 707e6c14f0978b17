package policy

import (
	"fmt"
	"math"

	"churnlb/internal/model"
)

// OracleInitial is pol's t = 0 episode as the materialising bodies below
// build it: LBP1, LBP1Multi and LBP2 as they stood before the episode was
// streamed, each appending its transfers to a slice. Kept as the oracle
// EachInitial is held to, transfer for transfer (TestInitialStreamMatchesOracle,
// FuzzInitialEpisode); NoBalance moves nothing and Dynamic is its base.
func OracleInitial(pol Policy, v model.StateView, p model.Params) []model.Transfer {
	switch pol := pol.(type) {
	case NoBalance:
		return nil
	case LBP1:
		return oracleLBP1(pol, nil, v, p)
	case LBP1Multi:
		return oracleProportionalRebalance(nil, v, p, pol.K)
	case LBP2:
		return oracleLBP2(pol, nil, v, p)
	case Dynamic:
		return OracleInitial(pol.Base, v, p)
	}
	panic(fmt.Sprintf("policy: no oracle for %s", pol.Name()))
}

// oracleLBP1 is LBP1's materialising body.
func oracleLBP1(l LBP1, dst []model.Transfer, v model.StateView, p model.Params) []model.Transfer {
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
		return dst
	}
	return append(dst, model.Transfer{From: sender, To: 1 - sender, Tasks: tasks})
}

// oracleLBP2 is LBP2's materialising body, dst sized by its O(n) bound
// pass.
func oracleLBP2(l LBP2, dst []model.Transfer, v model.StateView, p model.Params) []model.Transfer {
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

// oracleProportionalRebalance is LBP1Multi's materialising body.
func oracleProportionalRebalance(dst []model.Transfer, v model.StateView, p model.Params, k float64) []model.Transfer {
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
		return dst
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
			dst = append(dst, model.Transfer{From: j, To: d.id, Tasks: tasks})
		}
	}
	return dst
}
