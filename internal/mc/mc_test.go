package mc

import (
	"errors"
	"math"
	"testing"

	"churnlb/internal/xrand"
)

func TestRunBasicEstimate(t *testing.T) {
	est, err := Run(Options{Reps: 10000, Seed: 1}, func(r *xrand.Rand, rep int) (float64, error) {
		return r.ExpMean(2.0), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.N != 10000 {
		t.Fatalf("N = %d", est.N)
	}
	if math.Abs(est.Mean-2.0) > 3*est.CI95 {
		t.Fatalf("mean %v ±%v, want 2", est.Mean, est.CI95)
	}
	if len(est.Samples) != 10000 {
		t.Fatalf("samples %d", len(est.Samples))
	}
}

// The same (seed, reps) must give bit-identical samples regardless of the
// worker count — the core reproducibility guarantee.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	f := func(r *xrand.Rand, rep int) (float64, error) {
		s := 0.0
		for i := 0; i < 10; i++ {
			s += r.Exp(1.5)
		}
		return s, nil
	}
	var base []float64
	for _, workers := range []int{1, 2, 7, 64} {
		est, err := Run(Options{Reps: 200, Workers: workers, Seed: 99}, f)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = est.Samples
			continue
		}
		for i := range base {
			if base[i] != est.Samples[i] {
				t.Fatalf("workers=%d: sample %d differs: %v vs %v", workers, i, est.Samples[i], base[i])
			}
		}
	}
}

func TestSeedChangesSamples(t *testing.T) {
	f := func(r *xrand.Rand, rep int) (float64, error) { return r.Float64(), nil }
	a, _ := Run(Options{Reps: 50, Seed: 1}, f)
	b, _ := Run(Options{Reps: 50, Seed: 2}, f)
	same := 0
	for i := range a.Samples {
		if a.Samples[i] == b.Samples[i] {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d identical samples across different seeds", same)
	}
}

func TestErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(Options{Reps: 100, Seed: 1}, func(r *xrand.Rand, rep int) (float64, error) {
		if rep == 57 {
			return 0, boom
		}
		return 1, nil
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
}

func TestRejectsNonPositiveReps(t *testing.T) {
	if _, err := Run(Options{Reps: 0, Seed: 1}, nil); err == nil {
		t.Fatal("zero reps accepted")
	}
}

func TestWorkersCappedAtReps(t *testing.T) {
	est, err := Run(Options{Reps: 3, Workers: 100, Seed: 1}, func(r *xrand.Rand, rep int) (float64, error) {
		return float64(rep), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1, 2}
	for i, v := range est.Samples {
		if v != want[i] {
			t.Fatalf("samples %v", est.Samples)
		}
	}
}
