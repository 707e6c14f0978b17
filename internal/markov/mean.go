package markov

import (
	"fmt"
	"math"

	"churnlb/internal/linalg"
	"churnlb/internal/model"
	"churnlb/internal/policy"
)

// meanTable stores µ over a queue-length lattice: entry (a, b, s) is the
// expected completion time with a tasks at node 0, b at node 1, work state
// s, under the transfer regime the table was built for.
type meanTable struct {
	n0, n1 int
	mu     []float64 // ((n0+1)*(n1+1)*4) values, index ((a*(n1+1))+b)*4+s
}

func newMeanTable(n0, n1 int) *meanTable {
	return &meanTable{n0: n0, n1: n1, mu: make([]float64, (n0+1)*(n1+1)*4)}
}

func (t *meanTable) at(a, b int, s WorkState) float64 {
	return t.mu[(a*(t.n1+1)+b)*4+int(s)]
}

func (t *meanTable) set(a, b int, s WorkState, v float64) {
	t.mu[(a*(t.n1+1)+b)*4+int(s)] = v
}

// MeanSolver computes expected overall completion times by the lattice
// dynamic program of eq. (4). The solver caches the "hat" table (no
// in-flight load, λ21 = 0), which is shared by every candidate transfer in
// an optimal-gain search — this is what makes sweeping all gains tractable.
type MeanSolver struct {
	p   model.Params
	hat *meanTable
}

// NewMeanSolver checks that p is a well-posed two-node system and returns
// a solver over a copy of it.
func NewMeanSolver(p model.Params) (*MeanSolver, error) {
	if err := checkTwoNode(p); err != nil {
		return nil, err
	}
	return &MeanSolver{p: p.Clone()}, nil
}

// ensureHat grows the cached hat table to cover the lattice [0..n0]×[0..n1].
func (ms *MeanSolver) ensureHat(n0, n1 int) {
	if ms.hat != nil && ms.hat.n0 >= n0 && ms.hat.n1 >= n1 {
		return
	}
	// Grow monotonically so alternating queries do not thrash.
	if ms.hat != nil {
		if ms.hat.n0 > n0 {
			n0 = ms.hat.n0
		}
		if ms.hat.n1 > n1 {
			n1 = ms.hat.n1
		}
	}
	ms.hat = ms.solveLattice(n0, n1, 0, nil, 0)
}

// Hat returns E[T̂^s_{a,b}]: the expected completion time with a and b
// tasks queued, work state s, and no load in flight.
func (ms *MeanSolver) Hat(a, b int, s WorkState) float64 {
	if a < 0 || b < 0 {
		panic(fmt.Sprintf("markov: negative queue length (%d,%d)", a, b))
	}
	ms.ensureHat(a, b)
	return ms.hat.at(a, b, s)
}

// MeanWithTransfer returns E[T^s_{m0,m1}] for all four work states with m0
// and m1 tasks queued and tr.Tasks tasks in flight toward node tr.To. A
// zero-task transfer is treated as "no transfer".
func (ms *MeanSolver) MeanWithTransfer(m0, m1 int, tr Transfer) [4]float64 {
	if m0 < 0 || m1 < 0 {
		panic(fmt.Sprintf("markov: negative queue length (%d,%d)", m0, m1))
	}
	var out [4]float64
	if tr.Tasks <= 0 {
		ms.ensureHat(m0, m1)
		for s := 0; s < 4; s++ {
			out[s] = ms.hat.at(m0, m1, WorkState(s))
		}
		return out
	}
	if tr.To != 0 && tr.To != 1 {
		panic(fmt.Sprintf("markov: invalid transfer receiver %d", tr.To))
	}
	z := transferRate(ms.p, tr.Tasks)
	if math.IsInf(z, 1) {
		// Instantaneous transfer: load lands in the receiver queue now.
		a, b := m0, m1
		if tr.To == 0 {
			a += tr.Tasks
		} else {
			b += tr.Tasks
		}
		ms.ensureHat(a, b)
		for s := 0; s < 4; s++ {
			out[s] = ms.hat.at(a, b, WorkState(s))
		}
		return out
	}
	// Hat values are needed at (a + Ldx, b + Ldy) for a ≤ m0, b ≤ m1.
	hx, hy := 0, 0
	if tr.To == 0 {
		hx = tr.Tasks
	} else {
		hy = tr.Tasks
	}
	ms.ensureHat(m0+hx, m1+hy)
	t := ms.solveLatticeTransfer(m0, m1, tr, z)
	for s := 0; s < 4; s++ {
		out[s] = t.at(m0, m1, WorkState(s))
	}
	return out
}

// solveLatticeTransfer builds the main (in-flight) table for a specific
// transfer using the shared hat table.
func (ms *MeanSolver) solveLatticeTransfer(n0, n1 int, tr Transfer, z float64) *meanTable {
	return ms.solveLattice(n0, n1, z, ms.hat, encodeRecv(tr))
}

// encodeRecv packs the hat-lattice offset implied by a transfer: positive
// values offset node 1's queue, negative offset node 0's.
func encodeRecv(tr Transfer) int {
	if tr.To == 1 {
		return tr.Tasks
	}
	return -tr.Tasks
}

// solveLattice runs the dynamic program over [0..n0]×[0..n1]. If z > 0,
// each state additionally has a transfer-arrival event at rate z that jumps
// to hat at the offset encoded by recvOffset (positive: node 1 receives
// that many tasks; negative: node 0 receives). If z == 0 the result is the
// hat system itself.
func (ms *MeanSolver) solveLattice(n0, n1 int, z float64, hat *meanTable, recvOffset int) *meanTable {
	// The rates as arrays: the loops below index them without bounds checks.
	proc, fail, rec := [2]float64(ms.p.ProcRate), [2]float64(ms.p.FailRate), [2]float64(ms.p.RecRate)
	t := newMeanTable(n0, n1)
	hx, hy := 0, 0
	if z > 0 {
		if recvOffset >= 0 {
			hy = recvOffset
		} else {
			hx = -recvOffset
		}
	}
	var a4 [16]float64
	var b4 [4]float64
	var x4 [4]float64
	for sum := 0; sum <= n0+n1; sum++ {
		for a := 0; a <= n0; a++ {
			b := sum - a
			if b < 0 || b > n1 {
				continue
			}
			if a == 0 && b == 0 && z == 0 {
				// Hat system, nothing queued, nothing in flight: done.
				continue // values already zero
			}
			for i := range a4 {
				a4[i] = 0
			}
			for s := WorkState(0); s < 4; s++ {
				si := int(s)
				var total float64
				rhs := 1.0
				// Processing completions reference already-solved
				// lattice points in the same table.
				if s.Up(0) && a > 0 {
					total += proc[0]
					rhs += proc[0] * t.at(a-1, b, s)
				}
				if s.Up(1) && b > 0 {
					total += proc[1]
					rhs += proc[1] * t.at(a, b-1, s)
				}
				// Failure/recovery transitions couple the four work
				// states at this lattice point.
				for i := 0; i < 2; i++ {
					if s.Up(i) {
						if f := fail[i]; f > 0 {
							total += f
							a4[si*4+int(s.WithDown(i))] -= f
						}
					} else if r := rec[i]; r > 0 {
						total += r
						a4[si*4+int(s.WithUp(i))] -= r
					}
				}
				// Transfer arrival jumps to the hat system with the
				// bundle credited to the receiver.
				if z > 0 {
					total += z
					rhs += z * hat.at(a+hx, b+hy, s)
				}
				if total == 0 {
					// No event can occur. This state is either complete
					// (a == b == 0, handled above for hat) or
					// unreachable under Validate()'d parameters (a dead
					// node with λf = 0 owning all remaining work). Pin
					// to zero; unreachability means the value is never
					// consumed by a reachable state.
					a4[si*4+si] = 1
					b4[si] = 0
					continue
				}
				a4[si*4+si] += total
				b4[si] = rhs
			}
			if !linalg.Solve4(&a4, &b4, &x4) {
				panic(fmt.Sprintf("markov: singular work-state system at lattice (%d,%d)", a, b))
			}
			for s := 0; s < 4; s++ {
				t.set(a, b, WorkState(s), x4[s])
			}
		}
	}
	return t
}

// MeanLBP1 returns the expected overall completion time of LBP-1 with
// initial workload (m0, m1), the given sender, and gain k, starting with
// both nodes up (the paper's Fig. 3 quantity). The transfer size is
// L = round(k·m_sender); the sender's queue drops to m_sender − L at t = 0
// while L tasks travel to the receiver.
func (ms *MeanSolver) MeanLBP1(m0, m1 int, sender int, k float64) float64 {
	return ms.MeanLBP1From(m0, m1, sender, k, BothUp)
}

// MeanLBP1From is MeanLBP1 with an explicit initial work state.
func (ms *MeanSolver) MeanLBP1From(m0, m1, sender int, k float64, s WorkState) float64 {
	if sender != 0 && sender != 1 {
		panic(fmt.Sprintf("markov: invalid sender %d", sender))
	}
	m := [2]int{m0, m1}
	l := policy.RoundGain(k, m[sender])
	if l == 0 {
		ms.ensureHat(m0, m1)
		return ms.hat.at(m0, m1, s)
	}
	m[sender] -= l
	tr := Transfer{To: 1 - sender, Tasks: l}
	v := ms.MeanWithTransfer(m[0], m[1], tr)
	return v[s]
}

// LBP1Optimum describes the optimal LBP-1 configuration for a workload.
type LBP1Optimum struct {
	Sender int     // optimal sending node
	L      int     // optimal transfer size in tasks
	K      float64 // L / m_sender (0 if no transfer is optimal)
	Mean   float64 // minimised expected overall completion time
}

// OptimizeLBP1 finds the gain and sender/receiver pair minimising the
// expected overall completion time, enumerating every feasible integral
// transfer size for both directions (the exact discrete optimum, not a
// grid approximation). Both directions include L = 0, so the no-transfer
// policy is always a candidate.
func (ms *MeanSolver) OptimizeLBP1(m0, m1 int) LBP1Optimum {
	m := [2]int{m0, m1}
	// The hat lattice must cover every post-arrival queue the search can
	// produce; (m0+m1, m0+m1) covers both directions at once.
	ms.ensureHat(m0+m1, m0+m1)
	best := LBP1Optimum{Sender: 0, L: 0, K: 0, Mean: ms.hat.at(m0, m1, BothUp)}
	for sender := 0; sender < 2; sender++ {
		for l := 1; l <= m[sender]; l++ {
			q := m
			q[sender] -= l
			tr := Transfer{To: 1 - sender, Tasks: l}
			z := transferRate(ms.p, l)
			var mean float64
			if math.IsInf(z, 1) {
				r := q
				r[tr.To] += l
				mean = ms.hat.at(r[0], r[1], BothUp)
			} else {
				t := ms.solveLatticeTransfer(q[0], q[1], tr, z)
				mean = t.at(q[0], q[1], BothUp)
			}
			if mean < best.Mean {
				best = LBP1Optimum{Sender: sender, L: l, K: float64(l) / float64(m[sender]), Mean: mean}
			}
		}
	}
	return best
}

// GainSweep evaluates MeanLBP1 on an evenly spaced K grid for a fixed
// sender, as plotted in Fig. 3. It returns the K values and the
// corresponding expected completion times.
func (ms *MeanSolver) GainSweep(m0, m1, sender int, steps int) (ks, means []float64) {
	if steps < 1 {
		steps = 1
	}
	ks = make([]float64, steps+1)
	means = make([]float64, steps+1)
	mSender := [2]int{m0, m1}[sender]
	// Distinct gains can map to the same integral L; cache by L.
	cache := map[int]float64{}
	for i := 0; i <= steps; i++ {
		k := float64(i) / float64(steps)
		l := policy.RoundGain(k, mSender)
		mean, ok := cache[l]
		if !ok {
			mean = ms.MeanLBP1(m0, m1, sender, k)
			cache[l] = mean
		}
		ks[i] = k
		means[i] = mean
	}
	return ks, means
}
