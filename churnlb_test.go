package churnlb

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"churnlb/internal/testkit"
)

func TestPaperSystemShape(t *testing.T) {
	s := PaperSystem()
	if len(s.Nodes) != 2 {
		t.Fatalf("nodes %d", len(s.Nodes))
	}
	if s.Nodes[0].ProcRate != 1.08 || s.Nodes[1].ProcRate != 1.86 {
		t.Fatalf("rates %+v", s.Nodes)
	}
	if s.DelayPerTask != 0.02 {
		t.Fatalf("delay %v", s.DelayPerTask)
	}
}

func TestOptimizeLBP1Facade(t *testing.T) {
	opt, err := OptimizeLBP1(PaperSystem(), 100, 60)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Sender != 0 || math.Abs(opt.K-0.35) > 0.05 || math.Abs(opt.Mean-117) > 3 {
		t.Fatalf("optimum %+v, want sender 0, K≈0.35, mean≈117", opt)
	}
	// No-failure optimum uses a bigger gain.
	optNF, err := OptimizeLBP1(PaperSystem().NoFailure(), 100, 60)
	if err != nil {
		t.Fatal(err)
	}
	if optNF.K <= opt.K {
		t.Fatalf("no-failure K %v must exceed failure K %v", optNF.K, opt.K)
	}
}

func TestMeanCompletionLBP1Facade(t *testing.T) {
	mean, err := MeanCompletionLBP1(PaperSystem(), 100, 60, 0, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-116.75) > 0.5 {
		t.Fatalf("mean %v, want ≈116.75", mean)
	}
	if _, err := MeanCompletionLBP1(PaperSystem(), 100, 60, 9, 0.35); err == nil {
		t.Fatal("invalid sender accepted")
	}
}

func TestGainSweepFacade(t *testing.T) {
	ks, means, err := GainSweepLBP1(PaperSystem(), 100, 60, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != 11 || len(means) != 11 {
		t.Fatalf("sweep sizes %d/%d", len(ks), len(means))
	}
}

func TestCompletionCDFFacade(t *testing.T) {
	times, f, err := CompletionCDF(PaperSystem(), 50, 0, 0, 0.6, 200, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != len(f) || len(f) == 0 {
		t.Fatalf("CDF sizes %d/%d", len(times), len(f))
	}
	if f[len(f)-1] < 0.99 {
		t.Fatalf("CDF does not approach 1: %v", f[len(f)-1])
	}
}

func TestLBP2InitialGainFacade(t *testing.T) {
	k, err := LBP2InitialGain(PaperSystem(), 100, 60)
	if err != nil {
		t.Fatal(err)
	}
	if k < 0.8 || k > 1 {
		t.Fatalf("LBP-2 gain %v, expected near 1 at small delay", k)
	}
}

func TestSimulateFacade(t *testing.T) {
	res, err := Simulate(PaperSystem(), PolicySpec{Kind: PolicyLBP2, K: 1}, []int{100, 60}, 42, SimOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Processed[0]+res.Processed[1] != 160 {
		t.Fatalf("conservation: %v", res.Processed)
	}
	if len(res.Trace) == 0 {
		t.Fatal("trace missing")
	}
}

func TestSimulateInvalidPolicy(t *testing.T) {
	if _, err := Simulate(PaperSystem(), PolicySpec{Kind: PolicyKind(99)}, []int{1, 1}, 1, SimOptions{}); err == nil {
		t.Fatal("invalid policy accepted")
	}
}

func TestMonteCarloFacadeMatchesTheory(t *testing.T) {
	est, err := MonteCarlo(PaperSystem(), PolicySpec{Kind: PolicyLBP1, K: 0.35, Sender: 0}, []int{100, 60}, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-116.75) > 4*est.CI95 {
		t.Fatalf("MC mean %v ±%v vs theory 116.75", est.Mean, est.CI95)
	}
}

func TestMultiNodeSimulateFacade(t *testing.T) {
	s := System{
		Nodes: []Node{
			{ProcRate: 2.0, RecRate: 1},
			{ProcRate: 1.0, FailRate: 0.05, RecRate: 0.1},
			{ProcRate: 1.5, FailRate: 0.05, RecRate: 0.1},
		},
		DelayPerTask: 0.02,
	}
	res, err := Simulate(s, PolicySpec{Kind: PolicyLBP1Multi, K: 1}, []int{90, 0, 0}, 5, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range res.Processed {
		total += p
	}
	if total != 90 {
		t.Fatalf("conservation: %v", res.Processed)
	}
	if res.TasksTransferred == 0 {
		t.Fatal("multi-node policy moved nothing")
	}
}

func TestSystemValidationSurfacing(t *testing.T) {
	bad := System{Nodes: []Node{{ProcRate: -1}}}
	if _, err := OptimizeLBP1(bad, 1, 1); err == nil {
		t.Fatal("invalid system accepted by OptimizeLBP1")
	}
	if _, err := Simulate(bad, PolicySpec{}, []int{1}, 1, SimOptions{}); err == nil {
		t.Fatal("invalid system accepted by Simulate")
	}
	three := System{Nodes: make([]Node, 3), DelayPerTask: 0.02}
	for i := range three.Nodes {
		three.Nodes[i] = Node{ProcRate: 1}
	}
	if _, err := OptimizeLBP1(three, 1, 1); err == nil {
		t.Fatal("3-node system accepted by 2-node analytical API")
	}
}

func TestServeReportsLatencyPercentiles(t *testing.T) {
	res, err := Serve(PaperSystem(), PolicySpec{Kind: PolicyLBP2, K: 1},
		RouterSpec{Kind: RouterLeastExpectedWork}, 5,
		ServeOptions{Rate: 2, Horizon: 60})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 || res.Completed != res.Arrived {
		t.Fatalf("served %d of %d tasks", res.Completed, res.Arrived)
	}
	if !(res.P50 > 0 && res.P50 <= res.P90 && res.P90 <= res.P99) {
		t.Fatalf("percentiles not ordered: p50 %v p90 %v p99 %v", res.P50, res.P90, res.P99)
	}
	if res.MeanSojourn <= 0 || res.Throughput <= 0 {
		t.Fatalf("degenerate summary: %+v", res)
	}
	if !(res.Availability > 0 && res.Availability <= 1) {
		t.Fatalf("availability %v", res.Availability)
	}
	if len(res.Utilization) != 2 {
		t.Fatalf("utilization entries %d, want 2", len(res.Utilization))
	}
	for i, u := range res.Utilization {
		if u < 0 || u > 1.0001 {
			t.Fatalf("utilization[%d] = %v", i, u)
		}
	}
	if len(res.Windows) == 0 {
		t.Fatal("no telemetry windows")
	}
}

func TestServeIsDeterministic(t *testing.T) {
	run := func() ServeResult {
		res, err := Serve(PaperSystem(), PolicySpec{Kind: PolicyNone},
			RouterSpec{Kind: RouterPowerOfD, D: 2}, 11,
			ServeOptions{Rate: 3, Horizon: 30, WaveAmplitude: 0.5, WavePeriod: 15})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Completed != b.Completed || a.P99 != b.P99 || a.Duration != b.Duration {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestServeValidation(t *testing.T) {
	if _, err := Serve(PaperSystem(), PolicySpec{}, RouterSpec{}, 1, ServeOptions{}); err == nil {
		t.Fatal("rate/horizon 0 accepted")
	}
	if _, err := Serve(PaperSystem(), PolicySpec{}, RouterSpec{Kind: RouterKind(99)}, 1,
		ServeOptions{Rate: 1, Horizon: 1}); err == nil {
		t.Fatal("unknown router accepted")
	}
	if _, err := ServeMany(PaperSystem(), PolicySpec{}, RouterSpec{}, 0, 1,
		ServeOptions{Rate: 1, Horizon: 1}); err == nil {
		t.Fatal("zero reps accepted")
	}
}

// failingLog takes its first left bytes and then fails every write with
// errDiskFull.
type failingLog struct{ left int }

var errDiskFull = errors.New("disk full")

func (w *failingLog) Write(p []byte) (int, error) {
	if len(p) > w.left {
		n := w.left
		w.left = 0
		return n, errDiskFull
	}
	w.left -= len(p)
	return len(p), nil
}

// TestServeDecisionLogError: a decision log that fails mid-run fails
// Serve, naming the log and wrapping the writer's error.
func TestServeDecisionLogError(t *testing.T) {
	_, err := Serve(PaperSystem(), PolicySpec{Kind: PolicyLBP2, K: 1},
		RouterSpec{Kind: RouterJSQ}, 5, ServeOptions{Rate: 2, Horizon: 60, DecisionLog: &failingLog{left: 200}})
	if !errors.Is(err, errDiskFull) || !strings.HasPrefix(err.Error(), "churnlb: decision log: ") {
		t.Fatalf("err = %v, want churnlb: decision log: wrapping %v", err, errDiskFull)
	}
}

func TestServeManyAggregates(t *testing.T) {
	est, err := ServeMany(PaperSystem(), PolicySpec{Kind: PolicyLBP2, K: 1},
		RouterSpec{Kind: RouterJSQ}, 8, 2, ServeOptions{Rate: 2, Horizon: 30})
	if err != nil {
		t.Fatal(err)
	}
	if est.N != 8 {
		t.Fatalf("aggregated %d reps, want 8", est.N)
	}
	if !(est.P50.Mean > 0 && est.P99.Mean >= est.P50.Mean) {
		t.Fatalf("estimate not ordered: %+v", est)
	}
	if !(est.PooledP50 > 0 && est.PooledP99 >= est.PooledP90 && est.PooledP90 >= est.PooledP50) {
		t.Fatalf("pooled percentiles not ordered: %+v", est)
	}
}

// TestServeManyWorkerCountIndependent is the parallel-determinism
// contract: the same seed and reps must produce a bit-identical
// ServeEstimate — per-rep statistics and pooled sketches alike — no
// matter how many workers executed the replications.
func TestServeManyWorkerCountIndependent(t *testing.T) {
	run := func(workers int) ServeEstimate {
		est, err := ServeMany(PaperSystem(), PolicySpec{Kind: PolicyLBP2, K: 1},
			RouterSpec{Kind: RouterLeastExpectedWork}, 9, 5,
			ServeOptions{Rate: 2, Horizon: 30, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	base := run(1)
	for _, workers := range []int{2, 4, 16} {
		if got := run(workers); !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d diverged:\n got %+v\nwant %+v", workers, got, base)
		}
	}
}

func TestMonteCarloOptsLaws(t *testing.T) {
	sys := PaperSystem()
	spec := PolicySpec{Kind: PolicyLBP2, K: 1}
	base, err := MonteCarloOpts(sys, spec, []int{40, 20}, 40, 9, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	alt, err := MonteCarloOpts(sys, spec, []int{40, 20}, 40, 9,
		SimOptions{TransferMode: TransferPerTask, ChurnLaw: ChurnWeibull})
	if err != nil {
		t.Fatal(err)
	}
	if base.Mean == alt.Mean {
		t.Fatal("alternative laws produced identical estimates — flags not wired through")
	}
}

// TestUnknownLawsRejected: the enums are the simulator's own, so its one
// validation covers every entry point — an out-of-range law is an error
// everywhere, never a silent run under the default.
func TestUnknownLawsRejected(t *testing.T) {
	sys, spec, load := PaperSystem(), PolicySpec{Kind: PolicyLBP2, K: 1}, []int{1, 1}
	for _, c := range []struct {
		name string
		opt  SimOptions
	}{
		{"ChurnLaw", SimOptions{ChurnLaw: 7}},
		{"TransferMode", SimOptions{TransferMode: 7}},
	} {
		name, opt := c.name, c.opt
		if _, err := Simulate(sys, spec, load, 1, opt); err == nil {
			t.Errorf("Simulate accepted unknown %s", name)
		}
		if _, err := MonteCarloOpts(sys, spec, load, 1, 1, opt); err == nil {
			t.Errorf("MonteCarloOpts accepted unknown %s", name)
		}
		so := ServeOptions{Rate: 1, Horizon: 1,
			ChurnLaw: opt.ChurnLaw, TransferMode: opt.TransferMode}
		if _, err := Serve(sys, spec, RouterSpec{}, 1, so); err == nil {
			t.Errorf("Serve accepted unknown %s", name)
		}
		if _, err := ServeMany(sys, spec, RouterSpec{}, 2, 1, so); err == nil {
			t.Errorf("ServeMany accepted unknown %s", name)
		}
	}
}

// Hostile arguments to the analytical API are errors, not panics. Most of
// these once panicked inside the solvers: an index out of range, a negative
// queue length, a makeslice, or a K of NaN or ±Inf rounding to a transfer
// of MinInt64 tasks. A K of −0.5 or 1.5 ran as 0 or 1, and an infinite dt
// never left the step-halving loop.
func TestHostileAnalyticalArgumentsRejected(t *testing.T) {
	sys := PaperSystem()
	nan, inf := math.NaN(), math.Inf(1)
	mean := func(load0, load1 int, k float64) func() error {
		return func() error {
			_, err := MeanCompletionLBP1(sys, load0, load1, 0, k)
			return err
		}
	}
	cdf := func(load0, load1 int, k, tMax, dt float64) func() error {
		return func() error {
			_, _, err := CompletionCDF(sys, load0, load1, 0, k, tMax, dt)
			return err
		}
	}
	for _, c := range []struct {
		name, names string
		run         func() error
	}{
		{"optimize-negative-load", "load", func() error {
			_, err := OptimizeLBP1(sys, -1, 5)
			return err
		}},
		{"mean-negative-load", "load", mean(5, -3, 0.3)},
		{"sweep-negative-load", "load", func() error {
			_, _, err := GainSweepLBP1(sys, 5, -3, 0, 4)
			return err
		}},
		{"lbp2-negative-load", "load", func() error {
			_, err := LBP2InitialGain(sys, -5, 10)
			return err
		}},
		{"mean-k-nan", "K", mean(5, 5, nan)},
		{"mean-k-inf", "K", mean(5, 5, inf)},
		{"mean-k-negative", "K", mean(5, 5, -0.5)},
		{"mean-k-over-one", "K", mean(5, 5, 1.5)},
		{"cdf-k-nan", "K", cdf(5, 5, nan, 5, 0.5)},
		{"cdf-negative-load", "load", cdf(-1, 5, 0.3, 5, 0.5)},
		{"cdf-dt-nan", "dt", cdf(100, 60, 0.35, 5, nan)},
		{"cdf-dt-inf", "dt", cdf(100, 60, 0.35, 5, inf)},
		{"cdf-tmax-inf", "tMax", cdf(100, 60, 0.35, inf, 0.5)},
		{"cdf-tmax-nan", "tMax", cdf(100, 60, 0.35, nan, 0.5)},
		{"cdf-grid-overflow", "grid", cdf(1, 1, 0.35, 1e300, 1e-300)},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			err := c.run()
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), c.names) {
				t.Fatalf("error %q does not name %s", err, c.names)
			}
		})
	}
}

// TestHostileArrivalParametersRejected: the public entry points refuse
// every arrival parameter that used to wedge a run — a NaN (which passed
// `Rate <= 0`), an infinity, a batch beyond the queue's int32 — naming it.
// Each case runs under a deadline, so a value that slips through fails its
// case instead of hanging the suite.
func TestHostileArrivalParametersRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	lbp2 := PolicySpec{Kind: PolicyLBP2, K: 1}
	serve := func(mod func(*ServeOptions)) func(<-chan struct{}) error {
		return func(stop <-chan struct{}) error {
			opt := ServeOptions{Rate: 2, Horizon: 5, Interrupt: stop}
			mod(&opt)
			_, err := Serve(PaperSystem(), lbp2, RouterSpec{Kind: RouterJSQ}, 1, opt)
			return err
		}
	}
	simulate := func(mod func(*SimOptions)) func(<-chan struct{}) error {
		return func(<-chan struct{}) error {
			opt := SimOptions{ArrivalRate: 2, ArrivalBatch: 1, ArrivalHorizon: 5}
			mod(&opt)
			_, err := Simulate(PaperSystem(), lbp2, []int{5, 5}, 1, opt)
			return err
		}
	}
	for _, c := range []struct {
		name, names string
		run         func(stop <-chan struct{}) error
	}{
		{"serve-rate-nan", "Rate", serve(func(o *ServeOptions) { o.Rate = nan })},
		{"serve-rate-inf", "Rate", serve(func(o *ServeOptions) { o.Rate = inf })},
		{"serve-horizon-nan", "Horizon", serve(func(o *ServeOptions) { o.Horizon = nan })},
		{"serve-horizon-inf", "Horizon", serve(func(o *ServeOptions) { o.Horizon = inf })},
		{"serve-wave-nan", "Amplitude", serve(func(o *ServeOptions) { o.WaveAmplitude, o.WavePeriod = nan, 10 })},
		{"serve-window-nan", "Window", serve(func(o *ServeOptions) { o.Window = nan })},
		{"serve-batch-over-int32", "Batch", serve(func(o *ServeOptions) { o.Batch = 3_000_000_000 })},
		{"servemany-rate-nan", "Rate", func(<-chan struct{}) error {
			_, err := ServeMany(PaperSystem(), lbp2, RouterSpec{Kind: RouterJSQ}, 2, 1, ServeOptions{Rate: nan, Horizon: 5})
			return err
		}},
		{"simulate-rate-nan", "ArrivalRate", simulate(func(o *SimOptions) { o.ArrivalRate = nan })},
		{"simulate-rate-inf", "ArrivalRate", simulate(func(o *SimOptions) { o.ArrivalRate = inf })},
		{"simulate-horizon-inf", "ArrivalHorizon", simulate(func(o *SimOptions) { o.ArrivalHorizon = inf })},
		{"simulate-batch-over-int32", "ArrivalBatch", simulate(func(o *SimOptions) { o.ArrivalBatch = 3_000_000_000 })},
		{"montecarlo-rate-nan", "ArrivalRate", func(<-chan struct{}) error {
			_, err := MonteCarloOpts(PaperSystem(), lbp2, []int{5, 5}, 2, 1, SimOptions{ArrivalRate: nan, ArrivalHorizon: 5})
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := testkit.Deadline(t, 2*time.Second, c.run)
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), c.names) {
				t.Fatalf("error %q does not name %s", err, c.names)
			}
		})
	}
}
