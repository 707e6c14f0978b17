package sim

import (
	"math"
	"testing"

	"churnlb/internal/xrand"
)

// TestLawsDrawWhatSimStateDrew holds the exported law methods — what the
// simulator, the shard coordinator and the live daemon all call — to the
// draws simState.churnSample and drawTransferDelay made before they moved:
// from the same stream, the same value and the same next word, for all
// three churn laws and both transfer modes, δ = 0 (no draw) included.
func TestLawsDrawWhatSimStateDrew(t *testing.T) {
	same := func(name string, got, want float64, a, b *xrand.Rand) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: drew %v, want %v", name, got, want)
		}
		if a.Uint64() != b.Uint64() {
			t.Errorf("%s: streams diverged after the draw", name)
		}
	}
	for _, mean := range []float64{0.5, 20, 1e4} {
		for _, c := range []struct {
			law  ChurnLaw
			want func(r *xrand.Rand) float64
		}{
			{ChurnExponential, func(r *xrand.Rand) float64 { return r.ExpMean(mean) }},
			{ChurnWeibull, func(r *xrand.Rand) float64 { return r.Weibull(2, mean/math.Gamma(1.5)) }},
			{ChurnDeterministic, func(*xrand.Rand) float64 { return mean }},
		} {
			a, b := xrand.NewStream(9, 4), xrand.NewStream(9, 4)
			same(c.law.String(), c.law.Sample(a, mean), c.want(b), a, b)
		}
	}
	for _, perTask := range []float64{0, 0.02, 3} {
		for _, tasks := range []int{1, 7, 400} {
			a, b := xrand.NewStream(9, 5), xrand.NewStream(9, 5)
			want := 0.0
			if perTask != 0 {
				want = b.ExpMean(perTask * float64(tasks))
			}
			same("bundle", TransferBundle.Delay(a, perTask, tasks), want, a, b)

			a, b = xrand.NewStream(9, 6), xrand.NewStream(9, 6)
			want = 0
			for k := 0; k < tasks && perTask != 0; k++ {
				want += b.ExpMean(perTask)
			}
			same("pertask", TransferPerTask.Delay(a, perTask, tasks), want, a, b)
		}
	}
}
