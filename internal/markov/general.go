package markov

import (
	"encoding/binary"
	"fmt"

	"churnlb/internal/linalg"
	"churnlb/internal/model"
	"churnlb/internal/policy"
)

// PendingTransfer is a load in flight in the general N-node model.
type PendingTransfer struct {
	To    int     // receiving node
	Tasks int     // bundle size
	Rate  float64 // arrival rate (1/(δ·Tasks) under the linear-delay law)
}

// GeneralSolver computes expected completion times for the N-node
// generalisation the paper sketches ("the same rationale and analysis
// applies to systems with multiple nodes"): the state space is the queue
// vector × the subset of still-pending transfers × the 2^N work states.
// Failure/recovery transitions couple the work states at a fixed
// queue/pending point, giving a 2^N×2^N linear system per point, with
// processing and arrival events referencing already-solved points.
//
// Complexity grows as Π(mᵢ+1) · 2^|pending| · 8^N, so this solver is for
// small systems; it cross-validates the specialised two-node MeanSolver
// and analyses the multi-node examples.
type GeneralSolver struct {
	p model.Params
	// memo caches work-state vectors keyed by (queues, pending mask). The
	// key does not identify the pending transfers themselves, so the memo
	// is only valid for one pending list at a time; Mean resets it when
	// the list changes.
	memo    map[string][]float64
	pending []PendingTransfer
}

// NewGeneralSolver validates p and returns a solver.
func NewGeneralSolver(p model.Params) (*GeneralSolver, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.N() > 6 {
		return nil, fmt.Errorf("markov: GeneralSolver supports at most 6 nodes, got %d", p.N())
	}
	return &GeneralSolver{p: p.Clone(), memo: map[string][]float64{}}, nil
}

// Mean returns E[T] for the given queue vector, pending transfers and
// initial work state (up[i] = node i working). Pending transfers must
// number at most 16.
func (g *GeneralSolver) Mean(queues []int, pending []PendingTransfer, up []bool) (float64, error) {
	n := g.p.N()
	if len(queues) != n || len(up) != n {
		return 0, fmt.Errorf("markov: dimension mismatch: %d queues, %d up flags for %d nodes", len(queues), len(up), n)
	}
	if len(pending) > 16 {
		return 0, fmt.Errorf("markov: at most 16 pending transfers supported")
	}
	for i, q := range queues {
		if q < 0 {
			return 0, fmt.Errorf("markov: negative queue %d at node %d", q, i)
		}
	}
	for _, t := range pending {
		if t.To < 0 || t.To >= n || t.Tasks <= 0 || t.Rate <= 0 {
			return 0, fmt.Errorf("markov: invalid pending transfer %+v", t)
		}
	}
	if !samePending(g.pending, pending) {
		g.memo = map[string][]float64{}
		g.pending = append([]PendingTransfer(nil), pending...)
	}
	mask := (1 << len(pending)) - 1
	vals := g.solve(queues, pending, mask)
	s := 0
	for i, u := range up {
		if u {
			s |= 1 << i
		}
	}
	return vals[s], nil
}

func samePending(a, b []PendingTransfer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (g *GeneralSolver) key(queues []int, mask int) string {
	buf := make([]byte, 0, 4*(len(queues)+1))
	var tmp [4]byte
	for _, q := range queues {
		binary.LittleEndian.PutUint32(tmp[:], uint32(q))
		buf = append(buf, tmp[:]...)
	}
	binary.LittleEndian.PutUint32(tmp[:], uint32(mask))
	buf = append(buf, tmp[:]...)
	return string(buf)
}

// solve returns the mean for every work state at (queues, pending mask).
func (g *GeneralSolver) solve(queues []int, pending []PendingTransfer, mask int) []float64 {
	k := g.key(queues, mask)
	if v, ok := g.memo[k]; ok {
		return v
	}
	n := g.p.N()
	ns := 1 << n
	vals := make([]float64, ns)

	totalQueued := 0
	for _, q := range queues {
		totalQueued += q
	}
	if totalQueued == 0 && mask == 0 {
		g.memo[k] = vals // all done: zero for every work state
		return vals
	}

	a := linalg.NewMatrix(ns, ns)
	b := make([]float64, ns)
	for s := 0; s < ns; s++ {
		var total float64
		rhs := 1.0
		// Processing completions (reference solved lattice points).
		for i := 0; i < n; i++ {
			if s&(1<<i) != 0 && queues[i] > 0 {
				r := g.p.ProcRate[i]
				total += r
				queues[i]--
				rhs += r * g.solve(queues, pending, mask)[s]
				queues[i]++
			}
		}
		// Transfer arrivals (reference solved pending subsets).
		for t := 0; t < len(pending); t++ {
			if mask&(1<<t) == 0 {
				continue
			}
			tr := pending[t]
			total += tr.Rate
			queues[tr.To] += tr.Tasks
			rhs += tr.Rate * g.solve(queues, pending, mask&^(1<<t))[s]
			queues[tr.To] -= tr.Tasks
		}
		// Failure/recovery couplings (same point, different work state).
		for i := 0; i < n; i++ {
			if s&(1<<i) != 0 {
				if f := g.p.FailRate[i]; f > 0 {
					total += f
					a.Set(s, s&^(1<<i), a.At(s, s&^(1<<i))-f)
				}
			} else if r := g.p.RecRate[i]; r > 0 {
				total += r
				a.Set(s, s|1<<i, a.At(s, s|1<<i)-r)
			}
		}
		if total == 0 {
			// Unreachable under validated parameters (see MeanSolver).
			a.Set(s, s, 1)
			b[s] = 0
			continue
		}
		a.Set(s, s, a.At(s, s)+total)
		b[s] = rhs
	}
	x, err := linalg.SolveSquare(a, b)
	if err != nil {
		panic(fmt.Sprintf("markov: singular general system at %v mask %b: %v", queues, mask, err))
	}
	copy(vals, x)
	g.memo[k] = vals
	return vals
}

// OptimizeTransferGain finds the integral transfer size L ∈ [0, maxTasks]
// from the given sender that minimises the expected completion time, and
// reports it as a gain K = L/maxTasks together with the achieved mean.
// It is the optimisation the paper runs for LBP-2's initial balance under
// the no-failure model (with maxTasks = the excess load of eq. 6) and is
// also usable for LBP-1 (maxTasks = the sender's whole queue).
func OptimizeTransferGain(ms *MeanSolver, m0, m1, sender, maxTasks int) (float64, float64) {
	if sender != 0 && sender != 1 {
		panic(fmt.Sprintf("markov: invalid sender %d", sender))
	}
	m := [2]int{m0, m1}
	if maxTasks > m[sender] {
		maxTasks = m[sender]
	}
	ms.ensureHat(m0+m1, m0+m1)
	bestL := 0
	bestMean := ms.Hat(m0, m1, BothUp)
	for l := 1; l <= maxTasks; l++ {
		q := m
		q[sender] -= l
		v := ms.MeanWithTransfer(q[0], q[1], Transfer{To: 1 - sender, Tasks: l})
		if v[BothUp] < bestMean {
			bestMean = v[BothUp]
			bestL = l
		}
	}
	if maxTasks == 0 {
		return 0, bestMean
	}
	return float64(bestL) / float64(maxTasks), bestMean
}

// LBP2InitialGain computes the paper's LBP-2 initial gain for a two-node
// workload: the sender and its excess load are policy.LBP2's eq. (6) under
// the no-failure model, and the gain K is optimised with the delay-aware
// no-failure solver (the authors' "previously reported theoretical
// model"). It returns the gain, the sending node and the excess size
// (0, 0, 0 when the workload is already balanced).
func LBP2InitialGain(p model.Params, m0, m1 int) (k float64, sender, excess int, err error) {
	if err := checkTwoNode(p); err != nil {
		return 0, 0, 0, err
	}
	if m0 < 0 || m1 < 0 {
		return 0, 0, 0, fmt.Errorf("markov: negative queue length (%d,%d)", m0, m1)
	}
	nf := p.NoFailure()
	v := model.SnapshotView{State: model.State{Queues: []int{m0, m1}}}
	for sender = 0; sender < 2; sender++ {
		if excess = (policy.LBP2{}).ExcessLoad(sender, v, nf); excess > 0 {
			break
		}
	}
	if excess == 0 {
		return 0, 0, 0, nil
	}
	ms, err := NewMeanSolver(nf)
	if err != nil {
		return 0, 0, 0, err
	}
	k, _ = OptimizeTransferGain(ms, m0, m1, sender, excess)
	return k, sender, excess, nil
}
