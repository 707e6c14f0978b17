package metrics

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"churnlb/internal/xrand"
)

// addScan is P2.Add as it was written before the prefix-OR cell update:
// the scan for the cell containing x, the loop that moves every marker
// above it, and the update of all five desired positions. It is the
// oracle Add must match bit for bit.
func (e *P2) addScan(x float64) {
	if e.n < 5 {
		e.q[e.n] = x
		e.n++
		if e.n == 5 {
			sort.Float64s(e.q[:])
			for i := range e.pos {
				e.pos[i] = float64(i + 1)
			}
		}
		return
	}
	// Locate the cell containing x, clamping the extremes.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		k = 0
		for x >= e.q[k+1] {
			k++
		}
	}
	e.n++
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := range e.want {
		e.want[i] += e.inc[i]
	}
	// Adjust the interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := e.want[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			q := e.parabolic(i, sign)
			if !(e.q[i-1] < q && q < e.q[i+1]) {
				q = e.linear(i, sign)
			}
			e.q[i] = q
			e.pos[i] += sign
		}
	}
}

// sameP2 reports whether two sketches hold the same count, marker heights
// and positions, and desired positions 1..4, bit for bit. desired[0] is
// left out: its increment is 0 and nothing reads it.
func sameP2(a, b *P2) bool {
	if a.n != b.n {
		return false
	}
	for i := range 5 {
		if math.Float64bits(a.q[i]) != math.Float64bits(b.q[i]) ||
			math.Float64bits(a.pos[i]) != math.Float64bits(b.pos[i]) ||
			i > 0 && math.Float64bits(a.want[i]) != math.Float64bits(b.want[i]) {
			return false
		}
	}
	return true
}

// TestP2AddMatchesScan holds Add to the scan oracle over streams of 10⁶
// observations per quantile: exponential draws with ties (a coarse grid),
// a lone NaN, ±Inf and ±0 now and then, and halfway through a merge of
// another sketch (which restarts the positions off the P² schedule) after
// which both keep adding. The state must agree after every observation.
func TestP2AddMatchesScan(t *testing.T) {
	const n = 1_000_000
	for _, p := range []float64{0.5, 0.9, 0.99} {
		rng := xrand.New(uint64(1000 * p))
		got, want := NewP2(p), NewP2(p)
		other := NewP2(p)
		for i := 0; i < 1000; i++ {
			other.Add(rng.ExpMean(10))
		}
		for i := 0; i < n; i++ {
			var x float64
			switch r := rng.Intn(1000); {
			case r == 0:
				x = math.NaN()
			case r == 1:
				x = math.Inf(1)
			case r == 2:
				x = math.Inf(-1)
			case r == 3:
				x = math.Copysign(0, -1)
			case r < 300:
				x = math.Round(rng.ExpMean(3)) // ties
			default:
				x = rng.ExpMean(3)
			}
			got.Add(x)
			want.addScan(x)
			if !sameP2(got, want) {
				t.Fatalf("p %v, observation %d (x = %v): Add %+v, scan %+v", p, i, x, *got, *want)
			}
			if i == n/2 {
				got.Merge(other)
				want.Merge(other)
			}
		}
	}
}

// FuzzP2Add holds Add to the scan oracle on arbitrary sketch state —
// marker heights, positions, desired positions and increments taken from
// raw bits, so unsorted markers, NaN, ±Inf and -0 all occur — and an
// arbitrary observation.
func FuzzP2Add(f *testing.F) {
	f.Add([]byte{}, 1.0)
	f.Add(make([]byte, 8*20), math.NaN())
	seed := NewP2(0.9)
	for _, x := range []float64{3, 1, 4, 1, 5, 9, 2, 6} {
		seed.Add(x)
	}
	var raw []byte
	for _, arr := range [][5]float64{seed.q, seed.pos, seed.want, seed.inc} {
		for _, v := range arr {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
	}
	f.Add(raw, 2.5)
	f.Add(raw, math.Inf(1))
	f.Add(raw, -7.0)
	f.Fuzz(func(t *testing.T, raw []byte, x float64) {
		var e P2
		e.p, e.n = 0.9, 5
		for k, arr := range []*[5]float64{&e.q, &e.pos, &e.want, &e.inc} {
			for i := range arr {
				if off := 8 * (5*k + i); off+8 <= len(raw) {
					arr[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[off:]))
				}
			}
		}
		want := e
		e.Add(x)
		want.addScan(x)
		if !sameP2(&e, &want) {
			t.Fatalf("x = %v: Add %+v, scan %+v", x, e, want)
		}
	})
}
