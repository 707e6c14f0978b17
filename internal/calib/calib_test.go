package calib

import (
	"math"
	"sort"
	"testing"

	"churnlb/internal/metrics"
	"churnlb/internal/model"
	"churnlb/internal/serve"
	"churnlb/internal/sim"
)

func testParams(n int) model.Params {
	p := model.Params{
		ProcRate:     make([]float64, n),
		FailRate:     make([]float64, n),
		RecRate:      make([]float64, n),
		DelayPerTask: 0.01,
	}
	for i := range p.ProcRate {
		p.ProcRate[i] = 10
		p.RecRate[i] = 1
	}
	return p
}

func TestTraceSpecGenerate(t *testing.T) {
	spec := TraceSpec{Seed: 42, Rate: 20, Horizon: 30, Batch: 2}
	tr, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic: same spec, same trace.
	tr2, _ := spec.Generate()
	if len(tr) != len(tr2) || tr[0] != tr2[0] || tr[len(tr)-1] != tr2[len(tr)-1] {
		t.Fatal("trace generation is not deterministic")
	}
	// Poisson sanity: expect ~rate·horizon arrivals, ±5 sigma.
	mean := spec.Rate * spec.Horizon
	if dev := math.Abs(float64(len(tr)) - mean); dev > 5*math.Sqrt(mean) {
		t.Fatalf("%d arrivals, want ~%.0f", len(tr), mean)
	}
	last := 0.0
	for i, a := range tr {
		if a.Time <= last || a.Time >= spec.Horizon {
			t.Fatalf("entry %d: time %v out of order or range", i, a.Time)
		}
		if a.Batch != 2 {
			t.Fatalf("entry %d: batch %d, want 2", i, a.Batch)
		}
		last = a.Time
	}

	if _, err := (TraceSpec{Seed: 1, Rate: 0, Horizon: 5}).Generate(); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := (TraceSpec{Seed: 1, Rate: 5, Horizon: math.Inf(1)}).Generate(); err == nil {
		t.Fatal("infinite horizon accepted")
	}
}

func TestSimTwinDeterministic(t *testing.T) {
	tr, err := TraceSpec{Seed: 7, Rate: 15, Horizon: 20}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{
		Params:  testParams(4),
		Router:  "jsq",
		Balance: "lbp2",
		K:       0.5,
		Trace:   tr,
		Seed:    7,
	}
	spec.Params.FailRate[0] = 0.1
	a, err := spec.SimTwin()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.SimTwin()
	if err != nil {
		t.Fatal(err)
	}
	ma, mb := TwinMetrics(a), TwinMetrics(b)
	if len(ma) == 0 {
		t.Fatal("twin produced no metrics")
	}
	keys := make([]string, 0, len(ma))
	for k := range ma {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if mb[k] != ma[k] {
			t.Fatalf("twin not deterministic: %s %v vs %v", k, ma[k], mb[k])
		}
	}
	if int(ma["completed"]) != len(tr) {
		t.Fatalf("twin completed %v of %d traced tasks", ma["completed"], len(tr))
	}
	// Spellings resolve through internal/policy; two-node LBP-1 would
	// panic on an N-node cluster and is refused by name.
	for _, bad := range []RunSpec{{Router: "bogus"}, {Balance: "bogus"}, {Balance: "lbp1"}} {
		if _, _, err := bad.Resolve(); err == nil {
			t.Fatalf("spec %+v resolved", bad)
		}
	}
}

func mkWindows(start, width float64, vals []float64) []metrics.WindowStats {
	ws := make([]metrics.WindowStats, len(vals))
	for i, v := range vals {
		ws[i] = metrics.WindowStats{
			Start: start + float64(i)*width, Width: width,
			Throughput: v, P99: v, QueueDepth: v, Availability: v,
		}
	}
	return ws
}

func TestCompareIdenticalTelemetry(t *testing.T) {
	tel := Telemetry{
		Summary: metrics.Summary{
			P50: 1, P99: 3, MeanSojourn: 1.5, Throughput: 9,
			Availability: 0.95, QueueDepth: 4,
		},
		Windows: mkWindows(0, 1, []float64{1, 2, 3, 4, 5, 4, 3, 2}),
	}
	rep := Compare(tel, tel)
	for _, s := range rep.Scalars {
		if s.APE != 0 {
			t.Fatalf("scalar %s: APE %v on identical telemetry", s.Name, s.APE)
		}
	}
	for _, s := range rep.Series {
		if s.MAPE != 0 {
			t.Fatalf("series %s: MAPE %v on identical telemetry", s.Name, s.MAPE)
		}
		if math.Abs(s.Pearson-1) > 1e-12 {
			t.Fatalf("series %s: Pearson %v on identical telemetry", s.Name, s.Pearson)
		}
		if s.Points != 8 {
			t.Fatalf("series %s: %d points, want 8", s.Name, s.Points)
		}
	}
}

func TestCompareScoresError(t *testing.T) {
	sim := Telemetry{
		Summary: metrics.Summary{P50: 1, P99: 2, MeanSojourn: 1, Throughput: 10, Availability: 1, QueueDepth: 2},
		Windows: mkWindows(0, 1, []float64{1, 2, 3, 4}),
	}
	live := sim
	live.Summary.Throughput = 11 // 10% off
	live.Windows = mkWindows(0, 1, []float64{1.1, 2.2, 3.3, 4.4})
	rep := Compare(sim, live)
	if g := rep.Scalar("throughput").APE; math.Abs(g-0.1) > 1e-12 {
		t.Fatalf("throughput APE %v, want 0.1", g)
	}
	if g := rep.SeriesFor("throughput").MAPE; math.Abs(g-0.1) > 1e-9 {
		t.Fatalf("throughput series MAPE %v, want 0.1", g)
	}
	if g := rep.SeriesFor("throughput").Pearson; g < 0.999 {
		t.Fatalf("scaled series should still correlate: r %v", g)
	}
}

// TestCompareMisalignedWindows pins the resampling: live windows half
// the width and extending past the sim span must still pair up on the
// sim grid, with the overhang ignored.
func TestCompareMisalignedWindows(t *testing.T) {
	sim := Telemetry{Windows: mkWindows(0, 1, []float64{2, 2, 2, 2})}
	liveVals := make([]float64, 12) // 6s span vs sim's 4s
	for i := range liveVals {
		liveVals[i] = 2
	}
	live := Telemetry{Windows: mkWindows(0, 0.5, liveVals)}
	rep := Compare(sim, live)
	row := rep.SeriesFor("queue_depth")
	if row.Points != 4 {
		t.Fatalf("paired %d points, want 4 (the sim windows)", row.Points)
	}
	if row.MAPE != 0 {
		t.Fatalf("MAPE %v for equal stepwise series", row.MAPE)
	}
}

func TestTwinMetricsSkipsNonFinite(t *testing.T) {
	m := TwinMetrics(&serve.Result{Summary: metrics.Summary{Arrived: 3, P50: math.NaN(), P99: math.Inf(1)}})
	if _, ok := m["p50"]; ok || m["arrived"] != 3 {
		t.Fatalf("TwinMetrics kept %v", m)
	}
	if _, ok := m["p99"]; ok {
		t.Fatalf("TwinMetrics kept an infinity: %v", m)
	}
}

// Silence unused-import vigilance for sim (ArrivalAt appears via specs).
var _ = sim.ArrivalAt{}
