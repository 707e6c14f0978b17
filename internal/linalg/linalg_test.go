package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"churnlb/internal/xrand"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSolveIdentity(t *testing.T) {
	n := 5
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	b := []float64{1, 2, 3, 4, 5}
	x, err := SolveSquare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if !almostEq(x[i], b[i], 1e-12) {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], b[i])
		}
	}
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5 ; x + 3y = 10  ->  x = 1, y = 3
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	x, err := SolveSquare(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 1, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Fatalf("got %v, want [1 3]", x)
	}
}

func TestSolveRequiresPivoting(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	x, err := SolveSquare(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 3, 1e-12) || !almostEq(x[1], 2, 1e-12) {
		t.Fatalf("got %v, want [3 2]", x)
	}
}

func TestSingularDetected(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := SolveSquare(a, []float64{1, 2}); err == nil {
		t.Fatal("singular matrix not detected")
	}
}

// Property: for random diagonally dominant systems, A·solve(A,b) ≈ b.
func TestSolveResidualProperty(t *testing.T) {
	r := xrand.New(99)
	f := func(seed uint16) bool {
		rng := xrand.NewStream(uint64(seed), 1)
		n := 2 + rng.Intn(7)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			rowSum := 0.0
			for j := 0; j < n; j++ {
				if i != j {
					v := rng.Float64()*2 - 1
					a.Set(i, j, v)
					rowSum += math.Abs(v)
				}
			}
			a.Set(i, i, rowSum+1+rng.Float64())
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Float64()*10 - 5
		}
		x, err := SolveSquare(a, b)
		if err != nil {
			return false
		}
		bb := a.MulVec(x)
		for i := range b {
			if !almostEq(bb[i], b[i], 1e-8) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: nil}
	_ = r
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSolve4MatchesGeneral(t *testing.T) {
	rng := xrand.New(123)
	for trial := 0; trial < 500; trial++ {
		var a4 [16]float64
		var b4 [4]float64
		am := NewMatrix(4, 4)
		for i := 0; i < 4; i++ {
			rowSum := 0.0
			for j := 0; j < 4; j++ {
				if i != j {
					v := rng.Float64()*2 - 1
					a4[i*4+j] = v
					am.Set(i, j, v)
					rowSum += math.Abs(v)
				}
			}
			d := rowSum + 0.5 + rng.Float64()
			a4[i*4+i] = d
			am.Set(i, i, d)
			b4[i] = rng.Float64()*20 - 10
		}
		var x4 [4]float64
		if !Solve4(&a4, &b4, &x4) {
			t.Fatal("Solve4 reported singular on a dominant system")
		}
		want, err := SolveSquare(am, b4[:])
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if !almostEq(x4[i], want[i], 1e-9) {
				t.Fatalf("trial %d: Solve4[%d] = %v, want %v", trial, i, x4[i], want[i])
			}
		}
	}
}

func TestSolve4Pivoting(t *testing.T) {
	// Anti-diagonal permutation matrix: needs pivoting at every step.
	a := [16]float64{
		0, 0, 0, 1,
		0, 0, 1, 0,
		0, 1, 0, 0,
		1, 0, 0, 0,
	}
	b := [4]float64{1, 2, 3, 4}
	var x [4]float64
	if !Solve4(&a, &b, &x) {
		t.Fatal("Solve4 failed on permutation matrix")
	}
	want := [4]float64{4, 3, 2, 1}
	for i := range want {
		if !almostEq(x[i], want[i], 1e-12) {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestSolve4SingularReturnsFalse(t *testing.T) {
	var a [16]float64 // all zeros
	b := [4]float64{1, 0, 0, 0}
	var x [4]float64
	if Solve4(&a, &b, &x) {
		t.Fatal("Solve4 solved a singular system")
	}
}

func TestRK4ExponentialDecay(t *testing.T) {
	// y' = -y, y(0)=1 -> y(t) = e^-t.
	y := []float64{1}
	f := func(t float64, y, dst []float64) { dst[0] = -y[0] }
	RK4(f, 0, y, 0.01, 100, nil)
	if !almostEq(y[0], math.Exp(-1), 1e-8) {
		t.Fatalf("RK4 e^-1 = %v, want %v", y[0], math.Exp(-1))
	}
}

func TestRK4LinearSystemRotation(t *testing.T) {
	// Harmonic oscillator: energy conserved to O(h^4).
	y := []float64{1, 0}
	f := func(t float64, y, dst []float64) {
		dst[0] = y[1]
		dst[1] = -y[0]
	}
	steps := int(math.Round(2 * math.Pi * 1000))
	RK4(f, 0, y, 2*math.Pi/float64(steps), steps, nil)
	if !almostEq(y[0], 1, 1e-5) || !almostEq(y[1], 0, 1e-5) {
		t.Fatalf("after full period y = %v, want [1 0]", y)
	}
}

func TestRK4ObserveCalledEveryStep(t *testing.T) {
	y := []float64{1}
	calls := 0
	lastT := 0.0
	RK4(func(t float64, y, dst []float64) { dst[0] = 0 }, 0, y, 0.5, 10,
		func(step int, t float64, y []float64) {
			calls++
			lastT = t
		})
	if calls != 10 {
		t.Fatalf("observe called %d times, want 10", calls)
	}
	if !almostEq(lastT, 5.0, 1e-12) {
		t.Fatalf("final time %v, want 5", lastT)
	}
}

func TestTrapezoidTailExponential(t *testing.T) {
	// ∫ e^-t dt over [0,∞) = 1; sample on [0,8] with h=0.01 plus tail.
	h := 0.01
	n := 801
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = math.Exp(-float64(i) * h)
	}
	got := TrapezoidTail(samples, h)
	if !almostEq(got, 1.0, 1e-3) {
		t.Fatalf("integral = %v, want 1", got)
	}
}

func TestTrapezoidTailEdgeCases(t *testing.T) {
	if TrapezoidTail(nil, 0.1) != 0 {
		t.Fatal("empty integral should be 0")
	}
	if !almostEq(TrapezoidTail([]float64{2}, 0.5), 1.0, 1e-12) {
		t.Fatal("single sample rectangle rule failed")
	}
}

func TestMulVec(t *testing.T) {
	a := NewMatrix(2, 3)
	// [1 2 3; 4 5 6] · [1 1 1] = [6 15]
	for j := 0; j < 3; j++ {
		a.Set(0, j, float64(j+1))
		a.Set(1, j, float64(j+4))
	}
	y := a.MulVec([]float64{1, 1, 1})
	if !almostEq(y[0], 6, 1e-12) || !almostEq(y[1], 15, 1e-12) {
		t.Fatalf("MulVec = %v", y)
	}
}

func BenchmarkSolve4(b *testing.B) {
	a := [16]float64{
		4, -1, -1, 0,
		-1, 4, 0, -1,
		-1, 0, 4, -1,
		0, -1, -1, 4,
	}
	rhs := [4]float64{1, 2, 3, 4}
	var x [4]float64
	for i := 0; i < b.N; i++ {
		Solve4(&a, &rhs, &x)
	}
}

func BenchmarkLUSolve8(b *testing.B) {
	rng := xrand.New(5)
	n := 8
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.Float64())
		}
		a.Set(i, i, 10)
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveSquare(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}
