package markov

import (
	"fmt"
	"math"

	"churnlb/internal/linalg"
	"churnlb/internal/model"
	"churnlb/internal/policy"
)

// CDFResult is the sampled distribution function of the overall completion
// time, F(t) = P{T ≤ t}, on a uniform time grid.
type CDFResult struct {
	// Step is the grid spacing; F[i] approximates F(i·Step), F[0] = F(0).
	Step float64
	F    []float64
}

// Times materialises the time grid (convenience for CSV emission).
func (r *CDFResult) Times() []float64 {
	ts := make([]float64, len(r.F))
	for i := range ts {
		ts[i] = float64(i) * r.Step
	}
	return ts
}

// At linearly interpolates F at time t, clamping outside the grid.
func (r *CDFResult) At(t float64) float64 {
	if len(r.F) == 0 {
		return 0
	}
	if t <= 0 {
		return r.F[0]
	}
	x := t / r.Step
	i := int(x)
	if i >= len(r.F)-1 {
		return r.F[len(r.F)-1]
	}
	frac := x - float64(i)
	return r.F[i]*(1-frac) + r.F[i+1]*frac
}

// Mean estimates E[T] = ∫ (1−F) dt from the samples with an exponential
// tail correction. It should agree with MeanSolver up to discretisation.
func (r *CDFResult) Mean() float64 {
	comp := make([]float64, len(r.F))
	for i, f := range r.F {
		c := 1 - f
		if c < 0 {
			c = 0
		}
		comp[i] = c
	}
	return linalg.TrapezoidTail(comp, r.Step)
}

// Quantile returns the first grid time at which F reaches q, or +Inf if
// the grid ends before that.
func (r *CDFResult) Quantile(q float64) float64 {
	for i, f := range r.F {
		if f >= q {
			return float64(i) * r.Step
		}
	}
	return math.Inf(1)
}

// CDFSolver integrates the distribution-function ODE system of eq. (5).
type CDFSolver struct {
	p model.Params
}

// NewCDFSolver checks that p is a well-posed two-node system and returns
// a solver over a copy of it.
func NewCDFSolver(p model.Params) (*CDFSolver, error) {
	if err := checkTwoNode(p); err != nil {
		return nil, err
	}
	return &CDFSolver{p: p.Clone()}, nil
}

// cdfLattice indexes the flattened ODE state vector: a main block for the
// in-flight regime followed by a hat block (or only a hat block if the
// scenario has no transfer).
type cdfLattice struct {
	hasMain  bool
	m0, m1   int // main lattice bounds; the main block starts at 0
	h0, h1   int // hat lattice bounds
	hatOff   int
	hx, hy   int     // hat offset applied on transfer arrival
	z        float64 // transfer arrival rate
	p        model.Params
	startIdx int
}

func (l *cdfLattice) mainIdx(a, b int, s WorkState) int {
	return (a*(l.m1+1)+b)*4 + int(s)
}

func (l *cdfLattice) hatIdx(a, b int, s WorkState) int {
	return l.hatOff + (a*(l.h1+1)+b)*4 + int(s)
}

func (l *cdfLattice) size() int {
	n := (l.h0 + 1) * (l.h1 + 1) * 4
	if l.hasMain {
		n += (l.m0 + 1) * (l.m1 + 1) * 4
	}
	return n
}

// deriv computes the full coupled derivative: for every lattice state,
// ṗ = −λ_s·p + Σ_event rate·p_target. The "done" hat state (0,0) carries
// p ≡ 1 and a derivative that is identically zero by construction.
func (l *cdfLattice) deriv(_ float64, y, dst []float64) {
	// The rates as arrays: the loops below index them without bounds checks.
	proc, fail, rec := [2]float64(l.p.ProcRate), [2]float64(l.p.FailRate), [2]float64(l.p.RecRate)
	// Hat block.
	for a := 0; a <= l.h0; a++ {
		for b := 0; b <= l.h1; b++ {
			for s := WorkState(0); s < 4; s++ {
				idx := l.hatIdx(a, b, s)
				var total, inflow float64
				if s.Up(0) && a > 0 {
					total += proc[0]
					inflow += proc[0] * y[l.hatIdx(a-1, b, s)]
				}
				if s.Up(1) && b > 0 {
					total += proc[1]
					inflow += proc[1] * y[l.hatIdx(a, b-1, s)]
				}
				for i := 0; i < 2; i++ {
					if s.Up(i) {
						if f := fail[i]; f > 0 {
							total += f
							inflow += f * y[l.hatIdx(a, b, s.WithDown(i))]
						}
					} else if r := rec[i]; r > 0 {
						total += r
						inflow += r * y[l.hatIdx(a, b, s.WithUp(i))]
					}
				}
				dst[idx] = inflow - total*y[idx]
			}
		}
	}
	if !l.hasMain {
		return
	}
	for a := 0; a <= l.m0; a++ {
		for b := 0; b <= l.m1; b++ {
			for s := WorkState(0); s < 4; s++ {
				idx := l.mainIdx(a, b, s)
				var total, inflow float64
				if s.Up(0) && a > 0 {
					total += proc[0]
					inflow += proc[0] * y[l.mainIdx(a-1, b, s)]
				}
				if s.Up(1) && b > 0 {
					total += proc[1]
					inflow += proc[1] * y[l.mainIdx(a, b-1, s)]
				}
				for i := 0; i < 2; i++ {
					if s.Up(i) {
						if f := fail[i]; f > 0 {
							total += f
							inflow += f * y[l.mainIdx(a, b, s.WithDown(i))]
						}
					} else if r := rec[i]; r > 0 {
						total += r
						inflow += r * y[l.mainIdx(a, b, s.WithUp(i))]
					}
				}
				total += l.z
				inflow += l.z * y[l.hatIdx(a+l.hx, b+l.hy, s)]
				dst[idx] = inflow - total*y[idx]
			}
		}
	}
}

// CDFWithTransfer computes F(t) for the completion time with initial
// queues (m0, m1), an optional in-flight transfer, and initial work state
// start, on the grid [0, tMax] with requested spacing dt (reduced
// automatically if RK4 stability requires it).
func (cs *CDFSolver) CDFWithTransfer(m0, m1 int, tr Transfer, start WorkState, tMax, dt float64) (*CDFResult, error) {
	if m0 < 0 || m1 < 0 {
		return nil, fmt.Errorf("markov: negative queue length (%d,%d)", m0, m1)
	}
	if !(tMax > 0) || !(dt > 0) || math.IsInf(tMax, 1) || math.IsInf(dt, 1) {
		return nil, fmt.Errorf("markov: need positive, finite tMax and dt, got %v and %v", tMax, dt)
	}
	if tMax/dt > math.MaxInt32 {
		return nil, fmt.Errorf("markov: a grid of %v steps over [0, %v] is too large", tMax/dt, tMax)
	}
	p := cs.p
	lat := &cdfLattice{p: p}
	if tr.Tasks > 0 {
		if tr.To != 0 && tr.To != 1 {
			return nil, fmt.Errorf("markov: invalid transfer receiver %d", tr.To)
		}
		z := transferRate(p, tr.Tasks)
		if math.IsInf(z, 1) {
			// Instantaneous transfer: equivalent hat scenario.
			if tr.To == 0 {
				m0 += tr.Tasks
			} else {
				m1 += tr.Tasks
			}
			tr = Transfer{}
		} else {
			lat.hasMain = true
			lat.z = z
			if tr.To == 0 {
				lat.hx = tr.Tasks
			} else {
				lat.hy = tr.Tasks
			}
		}
	}
	lat.m0, lat.m1 = m0, m1
	lat.h0, lat.h1 = m0+lat.hx, m1+lat.hy
	if lat.hasMain {
		lat.hatOff = (m0 + 1) * (m1 + 1) * 4
		lat.startIdx = lat.mainIdx(m0, m1, start)
	} else {
		lat.startIdx = lat.hatIdx(m0, m1, start)
	}

	// Stability: RK4's real-axis stability limit is ≈ 2.78/λ; stay well
	// inside it. The largest outflow rate bounds the stiffness.
	maxRate := p.ProcRate[0] + p.ProcRate[1] + p.FailRate[0] + p.FailRate[1] +
		p.RecRate[0] + p.RecRate[1] + lat.z
	h := dt
	sub := 1
	for maxRate*h > 0.8 {
		sub *= 2
		h = dt / float64(sub)
	}

	y := make([]float64, lat.size())
	// Completion state: the hat lattice origin is already complete.
	for s := WorkState(0); s < 4; s++ {
		y[lat.hatIdx(0, 0, s)] = 1
	}
	steps := int(math.Ceil(tMax / dt))
	out := &CDFResult{Step: dt, F: make([]float64, steps+1)}
	out.F[0] = y[lat.startIdx]
	for i := 1; i <= steps; i++ {
		linalg.RK4(lat.deriv, float64(i-1)*dt, y, h, sub, nil)
		f := y[lat.startIdx]
		// Clamp tiny FP excursions so F stays a distribution function.
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		out.F[i] = f
	}
	return out, nil
}

// CDFLBP1 computes the completion-time distribution under LBP-1 with gain
// k and the given sender, starting from work state start — the quantity
// plotted in Fig. 5.
func (cs *CDFSolver) CDFLBP1(m0, m1, sender int, k float64, start WorkState, tMax, dt float64) (*CDFResult, error) {
	if sender != 0 && sender != 1 {
		return nil, fmt.Errorf("markov: invalid sender %d", sender)
	}
	m := [2]int{m0, m1}
	l := policy.RoundGain(k, m[sender])
	if l == 0 {
		return cs.CDFWithTransfer(m0, m1, Transfer{}, start, tMax, dt)
	}
	m[sender] -= l
	return cs.CDFWithTransfer(m[0], m[1], Transfer{To: 1 - sender, Tasks: l}, start, tMax, dt)
}
