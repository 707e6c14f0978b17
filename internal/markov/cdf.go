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
	l.block(y, dst, l.hatOff, l.h0, l.h1, false)
	if l.hasMain {
		l.block(y, dst, 0, l.m0, l.m1, true)
	}
}

// block computes the derivative over one block, the lattice [0..n0]×[0..n1]
// whose state (a, b, s) sits at off + (a·(n1+1) + b)·4 + s. Every state
// sums its rates and its inflow in one fixed order — node 0's service,
// node 1's, node 0's failure or recovery, node 1's, then (main block) the
// bundle's landing in the hat block — with a zero coefficient for an
// event that cannot happen (a rate of 0 among them). Adding a zero term
// changes no bit (neither sum is ever −0), so the coefficients, which
// depend only on the work state and on which queues are empty, are set
// up once per call.
func (l *cdfLattice) block(y, dst []float64, off, n0, n1 int, main bool) {
	proc, fail, rec := [2]float64(l.p.ProcRate), [2]float64(l.p.FailRate), [2]float64(l.p.RecRate)
	// coef[busy0][busy1] holds, per work state, the rates of node 0's and
	// node 1's service, node 0's and node 1's failure or recovery, and
	// their total outflow.
	type rates struct{ p0, p1, c0, c1, total [4]float64 }
	var coef [2][2]rates
	for busy0 := 0; busy0 < 2; busy0++ {
		for busy1 := 0; busy1 < 2; busy1++ {
			r := &coef[busy0][busy1]
			for s := WorkState(0); s < 4; s++ {
				var t float64
				if s.Up(0) && busy0 == 1 {
					r.p0[s] = proc[0]
					t += proc[0]
				}
				if s.Up(1) && busy1 == 1 {
					r.p1[s] = proc[1]
					t += proc[1]
				}
				for i, c := range [2]*[4]float64{&r.c0, &r.c1} {
					c[s] = rec[i]
					if s.Up(i) {
						c[s] = fail[i]
					}
					t += c[s]
				}
				if main {
					t += l.z
				}
				r.total[s] = t
			}
		}
	}
	row := (n1 + 1) * 4
	for a := 0; a <= n0; a++ {
		busy0 := min(a, 1)
		for b := 0; b <= n1; b++ {
			busy1 := min(b, 1)
			r := &coef[busy0][busy1]
			base := off + (a*(n1+1)+b)*4
			// An empty queue's neighbour is the state itself, read with a
			// zero coefficient.
			at := y[base : base+4 : base+4]
			left := y[base-row*busy0 : base-row*busy0+4 : base-row*busy0+4]
			down := y[base-4*busy1 : base-4*busy1+4 : base-4*busy1+4]
			landed := at
			if main {
				h := l.hatIdx(a+l.hx, b+l.hy, 0)
				landed = y[h : h+4 : h+4]
			}
			d := dst[base : base+4 : base+4]
			// The four work states, written out: s^1 and s^2 are the states
			// node 0's and node 1's churn leads to.
			var in0, in1, in2, in3 float64
			in0 += r.p0[0] * left[0]
			in1 += r.p0[1] * left[1]
			in2 += r.p0[2] * left[2]
			in3 += r.p0[3] * left[3]
			in0 += r.p1[0] * down[0]
			in1 += r.p1[1] * down[1]
			in2 += r.p1[2] * down[2]
			in3 += r.p1[3] * down[3]
			in0 += r.c0[0] * at[1]
			in1 += r.c0[1] * at[0]
			in2 += r.c0[2] * at[3]
			in3 += r.c0[3] * at[2]
			in0 += r.c1[0] * at[2]
			in1 += r.c1[1] * at[3]
			in2 += r.c1[2] * at[0]
			in3 += r.c1[3] * at[1]
			if main {
				in0 += l.z * landed[0]
				in1 += l.z * landed[1]
				in2 += l.z * landed[2]
				in3 += l.z * landed[3]
			}
			d[0] = in0 - r.total[0]*at[0]
			d[1] = in1 - r.total[1]*at[1]
			d[2] = in2 - r.total[2]*at[2]
			d[3] = in3 - r.total[3]*at[3]
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
	p := cs.p
	lat := &cdfLattice{p: p}
	if tr.Tasks > 0 {
		if tr.To != 0 && tr.To != 1 {
			return nil, fmt.Errorf("markov: invalid transfer receiver %d", tr.To)
		}
		lat.z = transferRate(p, tr.Tasks)
	}
	// Stability: RK4's real-axis stability limit is ≈ 2.78/λ; stay well
	// inside it. The largest outflow rate bounds the stiffness: the step
	// is dt halved sub times over until maxRate·h ≤ 0.8.
	maxRate := p.ProcRate[0] + p.ProcRate[1] + p.FailRate[0] + p.FailRate[1] +
		p.RecRate[0] + p.RecRate[1]
	if !math.IsInf(lat.z, 1) {
		maxRate += lat.z
	}
	// The budget, before anything is built: the grid's points, the
	// lattice's states (the in-flight block, then the hat it lands in)
	// and the integrator's steps over them.
	points := math.Ceil(tMax/dt) + 1
	if points > maxLatticeStates {
		return nil, fmt.Errorf("markov: a grid of %.4g steps over [0, %v] is above the cap of %d points", points-1, tMax, maxLatticeStates)
	}
	h0, h1, states := float64(m0), float64(m1), 0.0
	if tr.Tasks > 0 {
		if !math.IsInf(lat.z, 1) {
			states = lattice(h0, h1)
		}
		if tr.To == 0 {
			h0 += float64(tr.Tasks)
		} else {
			h1 += float64(tr.Tasks)
		}
	}
	states += lattice(h0, h1)
	substeps := math.Exp2(math.Max(0, math.Ceil(math.Log2(maxRate*dt/0.8))))
	if err := checkBudget(states, states*(points-1)*substeps, maxCDFWork); err != nil {
		return nil, err
	}
	if tr.Tasks > 0 {
		if math.IsInf(lat.z, 1) {
			// Instantaneous transfer: equivalent hat scenario.
			if tr.To == 0 {
				m0 += tr.Tasks
			} else {
				m1 += tr.Tasks
			}
			lat.z = 0
		} else {
			lat.hasMain = true
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
	// One integration over every substep, sampling F at each grid point;
	// the derivative does not read the time, so where the integrator
	// starts and stops changes no bit.
	linalg.RK4(lat.deriv, 0, y, h, steps*sub, func(step int, _ float64, y []float64) {
		if step%sub != 0 {
			return
		}
		f := y[lat.startIdx]
		// Clamp tiny FP excursions so F stays a distribution function.
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		out.F[step/sub] = f
	})
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
