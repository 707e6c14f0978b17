package workload

import (
	"math"
	"testing"
	"testing/quick"

	"churnlb/internal/stats"
	"churnlb/internal/xrand"
)

func TestWireRoundTrip(t *testing.T) {
	g := NewGenerator(16, 50, xrand.New(1))
	for i := 0; i < 100; i++ {
		task := g.Next()
		buf := task.AppendWire(nil)
		if len(buf) != task.WireSize() {
			t.Fatalf("wire size %d, want %d", len(buf), task.WireSize())
		}
		got, rest, _, err := DecodeTaskSlab(buf, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rest) != 0 {
			t.Fatalf("trailing bytes: %d", len(rest))
		}
		if got.ID != task.ID || got.Precision != task.Precision || len(got.Row) != len(task.Row) {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, task)
		}
		for j := range got.Row {
			if got.Row[j] != task.Row[j] {
				t.Fatal("row data corrupted")
			}
		}
	}
}

func TestWireRoundTripConcatenated(t *testing.T) {
	g := NewGenerator(8, 20, xrand.New(2))
	tasks := g.Batch(10)
	var buf []byte
	for _, task := range tasks {
		buf = task.AppendWire(buf)
	}
	for i := 0; i < len(tasks); i++ {
		var got Task
		var err error
		got, buf, _, err = DecodeTaskSlab(buf, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != tasks[i].ID {
			t.Fatalf("task %d ID mismatch", i)
		}
	}
	if len(buf) != 0 {
		t.Fatal("buffer not fully consumed")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, _, err := DecodeTaskSlab([]byte{1, 2, 3}, nil); err == nil {
		t.Fatal("short header accepted")
	}
	g := NewGenerator(8, 20, xrand.New(3))
	buf := g.Next().AppendWire(nil)
	if _, _, _, err := DecodeTaskSlab(buf[:len(buf)-4], nil); err == nil {
		t.Fatal("truncated row accepted")
	}
}

// Property: wire round trip is the identity for arbitrary tasks.
func TestWireProperty(t *testing.T) {
	f := func(id uint64, prec uint32, rowRaw []float64) bool {
		task := Task{ID: id, Precision: prec, Row: rowRaw}
		got, rest, _, err := DecodeTaskSlab(task.AppendWire(nil), nil)
		if err != nil || len(rest) != 0 {
			return false
		}
		if got.ID != id || got.Precision != prec || len(got.Row) != len(rowRaw) {
			return false
		}
		for i := range rowRaw {
			same := got.Row[i] == rowRaw[i] ||
				(math.IsNaN(got.Row[i]) && math.IsNaN(rowRaw[i]))
			if !same {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorPrecisionIsExponential(t *testing.T) {
	g := NewGenerator(4, 100, xrand.New(4))
	samples := make([]float64, 20000)
	for i := range samples {
		samples[i] = float64(g.Next().Precision)
	}
	fit, err := stats.FitExponential(samples)
	if err != nil {
		t.Fatal(err)
	}
	// Ceil shifts the mean up by ~0.5; with mean 100 the relative effect
	// is below 1%.
	if math.Abs(fit.Mean-100) > 3 {
		t.Fatalf("precision mean %v, want ~100", fit.Mean)
	}
	if fit.KS > 0.02 {
		t.Fatalf("precision KS = %v: not exponential", fit.KS)
	}
}

func TestGeneratorUniqueIDs(t *testing.T) {
	g := NewGenerator(4, 10, xrand.New(5))
	seen := map[uint64]bool{}
	for _, task := range g.Batch(1000) {
		if seen[task.ID] {
			t.Fatalf("duplicate ID %d", task.ID)
		}
		seen[task.ID] = true
	}
}

func TestVirtualSecondsExponentialWithTargetRate(t *testing.T) {
	g := NewGenerator(4, 80, xrand.New(6))
	const rate = 1.86
	samples := make([]float64, 30000)
	for i := range samples {
		samples[i] = VirtualSeconds(g.Next(), g.MeanPrecision(), rate)
	}
	fit, err := stats.FitExponential(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Rate-rate) > 0.05 {
		t.Fatalf("virtual service rate %v, want %v", fit.Rate, rate)
	}
	if fit.KS > 0.02 {
		t.Fatalf("virtual service KS %v: not exponential", fit.KS)
	}
}

func BenchmarkWireEncodeDecode(b *testing.B) {
	g := NewGenerator(64, 20, xrand.New(1))
	task := g.Next()
	buf := task.AppendWire(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := DecodeTaskSlab(buf, nil); err != nil {
			b.Fatal(err)
		}
	}
}
