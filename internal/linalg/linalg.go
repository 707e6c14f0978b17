// Package linalg implements the small dense linear-algebra kernel used by
// the regenerative-process solvers: dense matrices, LU factorisation with
// partial pivoting, a branch-light fixed-size 4×4 solver (the work-state
// system of eq. (4) of the paper), and a fixed-step RK4 integrator for the
// distribution-function ODEs of eq. (5).
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorisation meets an (effectively)
// singular pivot.
var ErrSingular = errors.New("linalg: singular matrix")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zero r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %d×%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec computes y = m·x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic("linalg: MulVec dimension mismatch")
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// LU holds an LU factorisation with partial pivoting (PA = LU).
type LU struct {
	lu  *Matrix
	piv []int
}

// Factor computes the LU factorisation of a square matrix. The input is
// not modified.
func Factor(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: Factor needs square matrix, got %d×%d", a.Rows, a.Cols)
	}
	n := a.Rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivoting: pick the largest magnitude in column k.
		p := k
		maxv := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > maxv {
				maxv, p = v, i
			}
		}
		if maxv < 1e-300 {
			return nil, ErrSingular
		}
		if p != k {
			rk := lu.Data[k*n : (k+1)*n]
			rp := lu.Data[p*n : (p+1)*n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		pivVal := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) / pivVal
			lu.Set(i, k, f)
			if f == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Set(i, j, lu.At(i, j)-f*lu.At(k, j))
			}
		}
	}
	return &LU{lu: lu, piv: piv}, nil
}

// Solve solves A·x = b for x using the factorisation.
func (f *LU) Solve(b []float64) ([]float64, error) {
	n := f.lu.Rows
	if len(b) != n {
		return nil, fmt.Errorf("linalg: Solve dimension mismatch: %d vs %d", len(b), n)
	}
	x := make([]float64, n)
	for i, p := range f.piv {
		x[i] = b[p]
	}
	// Forward substitution (unit lower-triangular).
	for i := 1; i < n; i++ {
		s := x[i]
		row := f.lu.Data[i*n : i*n+i]
		for j, v := range row {
			s -= v * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		x[i] = s / f.lu.At(i, i)
	}
	return x, nil
}

// SolveSquare is a convenience helper that factors and solves in one call.
func SolveSquare(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// Solve4 solves the 4×4 system a·x = b in place of allocating a Matrix.
// a is row-major. It performs Gaussian elimination with partial pivoting
// and is the hot path of the mean-completion-time lattice DP; it returns
// false if the system is singular. x may alias b.
func Solve4(a *[16]float64, b *[4]float64, x *[4]float64) bool {
	var m [16]float64 = *a
	var v [4]float64 = *b
	var idx [4]int = [4]int{0, 1, 2, 3}
	for k := 0; k < 4; k++ {
		p := k
		maxv := math.Abs(m[idx[k]*4+k])
		for i := k + 1; i < 4; i++ {
			if t := math.Abs(m[idx[i]*4+k]); t > maxv {
				maxv, p = t, i
			}
		}
		if maxv < 1e-300 {
			return false
		}
		idx[k], idx[p] = idx[p], idx[k]
		rk := idx[k]
		pivVal := m[rk*4+k]
		for i := k + 1; i < 4; i++ {
			ri := idx[i]
			f := m[ri*4+k] / pivVal
			if f == 0 {
				continue
			}
			for j := k + 1; j < 4; j++ {
				m[ri*4+j] -= f * m[rk*4+j]
			}
			v[ri] -= f * v[rk]
		}
	}
	for k := 3; k >= 0; k-- {
		rk := idx[k]
		s := v[rk]
		for j := k + 1; j < 4; j++ {
			s -= m[rk*4+j] * x[j]
		}
		x[k] = s / m[rk*4+k]
	}
	return true
}

// Deriv computes dy/dt at time t into dst (len(dst) == len(y)).
type Deriv func(t float64, y, dst []float64)

// RK4 integrates y' = f(t, y) from t0 with fixed step h for steps steps,
// writing the state after every step through observe (which may be nil).
// y is updated in place and also returned. The integrator allocates its
// scratch buffers once, so it is suitable for large state vectors such as
// the lattice CDF system.
func RK4(f Deriv, t0 float64, y []float64, h float64, steps int, observe func(step int, t float64, y []float64)) []float64 {
	n := len(y)
	k1 := make([]float64, n)
	k2 := make([]float64, n)
	k3 := make([]float64, n)
	k4 := make([]float64, n)
	tmp := make([]float64, n)
	t := t0
	for s := 1; s <= steps; s++ {
		f(t, y, k1)
		for i := 0; i < n; i++ {
			tmp[i] = y[i] + 0.5*h*k1[i]
		}
		f(t+0.5*h, tmp, k2)
		for i := 0; i < n; i++ {
			tmp[i] = y[i] + 0.5*h*k2[i]
		}
		f(t+0.5*h, tmp, k3)
		for i := 0; i < n; i++ {
			tmp[i] = y[i] + h*k3[i]
		}
		f(t+h, tmp, k4)
		for i := 0; i < n; i++ {
			y[i] += h / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
		}
		t = t0 + float64(s)*h
		if observe != nil {
			observe(s, t, y)
		}
	}
	return y
}

// TrapezoidTail integrates ∫₀^∞ g(t) dt for a non-negative, eventually
// geometrically decaying g sampled at uniform spacing h: trapezoid over the
// samples plus an exponential-tail correction fitted to the last two
// samples. Used to recover the mean completion time from 1−F(t).
func TrapezoidTail(samples []float64, h float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return samples[0] * h
	}
	s := 0.5 * (samples[0] + samples[n-1])
	for _, v := range samples[1 : n-1] {
		s += v
	}
	integral := s * h
	// Tail: if the last two samples indicate geometric decay with ratio
	// ρ < 1, add g_last·h·ρ/(1−ρ) ≈ ∫ tail. Guard against noise.
	a, b := samples[n-2], samples[n-1]
	if a > 0 && b > 0 && b < a {
		rho := b / a
		integral += b * h * rho / (1 - rho)
	}
	return integral
}
