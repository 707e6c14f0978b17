// Package calib is the sim-vs-live calibration harness, in the
// observe-predict-calibrate style of simulation-backed serving systems:
// record an arrival trace, replay the identical trace through the
// discrete-event simulator (the "twin") and through the live daemon
// cluster, and score how well the simulator predicts the live system's
// telemetry — absolute percentage error on the scalar aggregates, MAPE
// and Pearson r on the window time series.
//
// The package is deliberately free of daemon imports: it generates
// traces, runs the simulator twin, and compares two telemetry sets —
// either side can come from anywhere. internal/obs/rerun uses the same
// twin to replay daemon manifests, so calib must never import rerun.
// It keeps no name registries: RunSpec names its router and balancing
// policy by the spellings internal/policy defines, and Resolve is the one
// place lbd and the twin turn them into instances.
package calib

import (
	"fmt"
	"math"
	"sort"

	"churnlb/internal/metrics"
	"churnlb/internal/model"
	"churnlb/internal/obs"
	"churnlb/internal/policy"
	"churnlb/internal/serve"
	"churnlb/internal/sim"
	"churnlb/internal/stats"
	"churnlb/internal/xrand"
)

// TraceSpec pins a reproducible Poisson arrival trace: the recorded
// schedule both halves of a calibration run replay.
type TraceSpec struct {
	// Seed drives the inter-arrival draws.
	Seed uint64
	// Rate is the arrival rate (arrivals/virtual second); Horizon the
	// span to fill.
	Rate, Horizon float64
	// Batch is the tasks-per-arrival recorded on every entry (≤ 0 = 1).
	Batch int
}

// Generate materialises the trace: exponential inter-arrival times at
// Rate until Horizon. Deterministic in Seed.
func (s TraceSpec) Generate() ([]sim.ArrivalAt, error) {
	if !(s.Rate > 0) || !(s.Horizon > 0) ||
		math.IsInf(s.Rate, 0) || math.IsInf(s.Horizon, 0) {
		return nil, fmt.Errorf("calib: trace needs positive finite Rate and Horizon")
	}
	batch := s.Batch
	if batch <= 0 {
		batch = 1
	}
	rng := xrand.NewStream(s.Seed, xrand.StreamCalibTrace)
	var trace []sim.ArrivalAt
	for t := rng.Exp(s.Rate); t < s.Horizon; t += rng.Exp(s.Rate) {
		trace = append(trace, sim.ArrivalAt{Time: t, Batch: batch})
	}
	if len(trace) == 0 {
		return nil, fmt.Errorf("calib: trace is empty (rate %v over horizon %v)", s.Rate, s.Horizon)
	}
	return trace, nil
}

// RunSpec is everything the simulator twin needs — the same knobs the
// live daemon ran with, minus the wall-clock ones (TimeScale,
// StateInterval) that have no simulator counterpart.
type RunSpec struct {
	Params   model.Params
	Router   string
	D        int
	Balance  string
	K        float64
	ChurnLaw sim.ChurnLaw
	Trace    []sim.ArrivalAt
	Window   float64
	Seed     uint64
}

// Resolve turns the spec's router and balancing-policy spellings into a
// router factory (routers may be stateful per run; it yields nil for
// uniform random dispatch) and the policy whose eq.-(8) failure plan the
// daemon's churn controller executes. Two-node LBP-1 is refused: a daemon
// cluster is N nodes.
func (s RunSpec) Resolve() (func() policy.Router, policy.Policy, error) {
	router, err := policy.ParseRouterSpec(s.Router, s.D)
	if err != nil {
		return nil, nil, err
	}
	bal, err := policy.ParseSpec(s.Balance, s.K, 0)
	if err != nil {
		return nil, nil, err
	}
	if bal.Kind == policy.KindLBP1 {
		return nil, nil, fmt.Errorf("balance policy lbp1 is two-node only (want lbp1multi, lbp2, none or dynamic)")
	}
	pol, err := bal.Build()
	if err != nil {
		return nil, nil, err
	}
	newRouter, err := router.Factory()
	return newRouter, pol, err
}

// SimTwin replays the recorded trace through the discrete-event
// simulator under the spec's policy configuration: the prediction half
// of a calibration run. Deterministic in Seed.
func (s RunSpec) SimTwin() (*serve.Result, error) {
	newRouter, pol, err := s.Resolve()
	if err != nil {
		return nil, err
	}
	return serve.Run(serve.Options{
		Params:       s.Params,
		Policy:       pol,
		NewRouter:    newRouter,
		ArrivalTrace: s.Trace,
		Window:       s.Window,
		ChurnLaw:     s.ChurnLaw,
		Seed:         s.Seed,
	})
}

// TwinMetrics flattens the twin's summary into the manifest metric map —
// the deterministic fingerprint `reproduce` re-derives and compares
// bit for bit. Keys mirror the serve-mode metric spellings of internal/obs/rerun.
func TwinMetrics(res *serve.Result) map[string]float64 {
	m := map[string]float64{}
	obs.PutFinite(m, "arrived", float64(res.Summary.Arrived))
	obs.PutFinite(m, "completed", float64(res.Summary.Completed))
	obs.PutFinite(m, "p50", res.Summary.P50)
	obs.PutFinite(m, "p90", res.Summary.P90)
	obs.PutFinite(m, "p99", res.Summary.P99)
	obs.PutFinite(m, "mean_sojourn", res.Summary.MeanSojourn)
	obs.PutFinite(m, "mean_wait", res.Summary.MeanWait)
	obs.PutFinite(m, "throughput", res.Summary.Throughput)
	obs.PutFinite(m, "queue_depth", res.Summary.QueueDepth)
	obs.PutFinite(m, "availability", res.Summary.Availability)
	obs.PutFinite(m, "fairness", res.Summary.Fairness)
	return m
}

// Telemetry is one side of a comparison — summary plus window series —
// however it was produced (simulator twin, live daemon, replayed
// manifest).
type Telemetry struct {
	Summary metrics.Summary
	Windows []metrics.WindowStats
}

// ScalarRow scores one whole-run aggregate: the simulator's prediction,
// the live measurement, and the absolute percentage error between them
// (NaN when the reference is ~0 or either side is not finite).
type ScalarRow struct {
	Name      string
	Sim, Live float64
	APE       float64
}

// SeriesRow scores one window time series resampled onto a common grid:
// MAPE for magnitude accuracy, Pearson r for shape tracking.
type SeriesRow struct {
	Name    string
	MAPE    float64
	Pearson float64
	Points  int
}

// Report is a full calibration scorecard.
type Report struct {
	Scalars []ScalarRow
	Series  []SeriesRow
}

// Scalar returns the named scalar row, or a zero row.
func (r *Report) Scalar(name string) ScalarRow {
	for _, s := range r.Scalars {
		if s.Name == name {
			return s
		}
	}
	return ScalarRow{Name: name, APE: math.NaN()}
}

// SeriesFor returns the named series row, or a NaN row.
func (r *Report) SeriesFor(name string) SeriesRow {
	for _, s := range r.Series {
		if s.Name == name {
			return s
		}
	}
	return SeriesRow{Name: name, MAPE: math.NaN(), Pearson: math.NaN()}
}

// ape is the absolute percentage error of got against a reference.
func ape(ref, got float64) float64 {
	if math.IsNaN(ref) || math.IsNaN(got) || math.IsInf(ref, 0) || math.IsInf(got, 0) ||
		math.Abs(ref) < 1e-12 {
		return math.NaN()
	}
	return math.Abs(got-ref) / math.Abs(ref)
}

// sampleAt evaluates a window series stepwise at time t: the value of
// the window containing t (windows are [Start, Start+Width) and sorted).
// ok is false outside the covered span.
func sampleAt(ws []metrics.WindowStats, t float64, get func(metrics.WindowStats) float64) (float64, bool) {
	if len(ws) == 0 {
		return 0, false
	}
	i := sort.Search(len(ws), func(i int) bool { return ws[i].Start+ws[i].Width > t })
	if i == len(ws) || t < ws[i].Start {
		return 0, false
	}
	return get(ws[i]), true
}

// seriesPair resamples both telemetry sets' series onto the simulator
// windows' midpoints over the overlapping span, skipping grid points
// where either side has no window or a NaN value (e.g. an empty-window
// P99).
func seriesPair(sim, live []metrics.WindowStats, get func(metrics.WindowStats) float64) (xs, ys []float64) {
	for _, w := range sim {
		mid := w.Start + w.Width/2
		sv, ok := sampleAt(sim, mid, get)
		if !ok || math.IsNaN(sv) {
			continue
		}
		lv, ok := sampleAt(live, mid, get)
		if !ok || math.IsNaN(lv) {
			continue
		}
		xs = append(xs, sv)
		ys = append(ys, lv)
	}
	return xs, ys
}

// Compare scores how well the simulator telemetry predicts the live
// telemetry: the paper-table scalars first, then the window series. Sim
// is the reference for every percentage error.
func Compare(sim, live Telemetry) *Report {
	rep := &Report{}
	scalar := func(name string, s, l float64) {
		rep.Scalars = append(rep.Scalars, ScalarRow{Name: name, Sim: s, Live: l, APE: ape(s, l)})
	}
	scalar("p50", sim.Summary.P50, live.Summary.P50)
	scalar("p99", sim.Summary.P99, live.Summary.P99)
	scalar("mean_sojourn", sim.Summary.MeanSojourn, live.Summary.MeanSojourn)
	scalar("throughput", sim.Summary.Throughput, live.Summary.Throughput)
	scalar("availability", sim.Summary.Availability, live.Summary.Availability)
	scalar("queue_depth", sim.Summary.QueueDepth, live.Summary.QueueDepth)

	series := func(name string, get func(metrics.WindowStats) float64) {
		xs, ys := seriesPair(sim.Windows, live.Windows, get)
		rep.Series = append(rep.Series, SeriesRow{
			Name:    name,
			MAPE:    stats.MAPE(xs, ys),
			Pearson: stats.Pearson(xs, ys),
			Points:  len(xs),
		})
	}
	series("throughput", func(w metrics.WindowStats) float64 { return w.Throughput })
	series("p99", func(w metrics.WindowStats) float64 { return w.P99 })
	series("queue_depth", func(w metrics.WindowStats) float64 { return w.QueueDepth })
	series("availability", func(w metrics.WindowStats) float64 { return w.Availability })
	return rep
}
