// Command lbd runs the live serving daemon: real worker goroutines
// executing matrix tasks, state gossip over 23-byte UDP packets, task
// payloads over length-prefixed TCP frames, an HTTP front door routing
// arrivals through the policy.Router family against the live state
// view, and a churn controller killing and recovering workers on the
// simulator's failure/recovery laws (eq.-(8) transfers on failure).
//
// Every run is a calibration run: the generated arrival trace also
// replays through the discrete-event simulator (the "twin"), and the
// run reports per-metric accuracy — absolute percentage error on the
// scalar aggregates, MAPE and Pearson r on the window time series.
//
// Examples:
//
//	lbd -nodes 8 -rate 60 -horizon 10 -policy jsq -balance lbp2
//	lbd -nodes 8 -mtbf 4 -mttr 2 -churnnodes 1 -churn det -rate 60 -horizon 10 -out results
//	lbd -nodes 4 -rate 40 -horizon 20 -http 127.0.0.1:8080 -manifest run.json
//
// SIGINT/SIGTERM interrupt gracefully: the arrival stream stops, queued
// work drains, telemetry flushes, and the process exits 0 (interrupted
// runs skip the manifest and calibration — a cut trace is not
// replayable).
//
// -manifest writes a run manifest whose Metrics block is the simulator
// twin's deterministic fingerprint — `reproduce -manifest` re-derives
// and verifies it bit for bit — while the live measurements and
// calibration scores ride along in LiveMetrics (informational; a live
// system is not replayable). -maxavailmape turns the availability
// calibration score into an exit status for CI gating.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"churnlb/internal/calib"
	"churnlb/internal/daemon"
	"churnlb/internal/metrics"
	"churnlb/internal/model"
	"churnlb/internal/obs"
	"churnlb/internal/report"
	"churnlb/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, sigChannel())) }

// sigChannel converts SIGINT/SIGTERM into the daemon's Interrupt
// contract: the returned channel closes on the first signal.
func sigChannel() <-chan struct{} {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		<-ch
		signal.Stop(ch) // a second signal kills the process the hard way
		close(done)
	}()
	return done
}

func run(args []string, stdout, stderr io.Writer, interrupt <-chan struct{}) int {
	fs := flag.NewFlagSet("lbd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		nodes      = fs.Int("nodes", 8, "worker count")
		procRate   = fs.Float64("procrate", 20, "per-worker processing rate, tasks/virtual second")
		mtbf       = fs.Float64("mtbf", 0, "mean virtual seconds between failures per churn-prone worker (0 disables churn)")
		mttr       = fs.Float64("mttr", 2, "mean virtual seconds to recover")
		churnNodes = fs.Int("churnnodes", 0, "workers subject to churn, from worker 0 (0 = all, when -mtbf > 0)")
		churnStr   = fs.String("churn", "exp", "churn law: exp, weibull, det")
		polStr     = fs.String("policy", "jsq", "routing policy: uniform, rr, jsq, pod2, pod3, lew")
		balStr     = fs.String("balance", "lbp2", "balancing policy (eq.-(8) failure plan): lbp1multi, lbp2, none, dynamic")
		k          = fs.Float64("k", 0.5, "LB gain for the balancing policy")
		d          = fs.Int("d", 0, "lew sample size (0 = scan all workers)")
		rate       = fs.Float64("rate", 60, "arrival rate of the recorded trace, tasks/virtual second")
		batch      = fs.Int("batch", 1, "tasks per arrival")
		horizon    = fs.Float64("horizon", 10, "trace span, virtual seconds (the run then drains)")
		window     = fs.Float64("window", 0, "telemetry window, virtual seconds (0 = horizon/100)")
		delta      = fs.Float64("delta", 0.02, "mean transfer delay per task, virtual seconds")
		timeScale  = fs.Float64("timescale", 200, "virtual seconds per wall second")
		stateIvl   = fs.Float64("stateinterval", 0.5, "state-broadcast period, virtual seconds")
		dim        = fs.Int("dim", 16, "matrix dimension")
		precision  = fs.Float64("precision", 50, "mean task precision (work multiplier)")
		realComp   = fs.Bool("realcompute", false, "execute the actual row×matrix arithmetic (service time from task precision)")
		seed       = fs.Uint64("seed", 1, "root seed (trace, workloads, churn, routing)")
		httpAddr   = fs.String("http", "", "HTTP front-door listen address ('' disables)")
		outDir     = fs.String("out", "", "directory for the live time-series and calibration CSVs ('' disables)")
		manifest   = fs.String("manifest", "", "run-manifest JSON output file ('' disables)")
		maxMAPE    = fs.Float64("maxavailmape", 0, "fail (exit 1) when the sim-vs-live availability MAPE exceeds this fraction (0 disables)")
		maxWall    = fs.Duration("maxwall", 2*time.Minute, "wall-clock abort for a wedged run")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	churnLaw, err := sim.ParseChurnLaw(*churnStr)
	if err != nil {
		fmt.Fprintln(stderr, "lbd:", err)
		return 2
	}
	// One spec names the policies of both halves: the live daemon below
	// and its simulator twin after it.
	spec := calib.RunSpec{Router: *polStr, D: *d, Balance: *balStr, K: *k, ChurnLaw: churnLaw, Seed: *seed}
	newRouter, pol, err := spec.Resolve()
	if err != nil {
		fmt.Fprintln(stderr, "lbd:", err)
		return 2
	}

	p := model.Params{
		ProcRate:     make([]float64, *nodes),
		FailRate:     make([]float64, *nodes),
		RecRate:      make([]float64, *nodes),
		DelayPerTask: *delta,
	}
	churners := *nodes
	if *churnNodes > 0 && *churnNodes < churners {
		churners = *churnNodes
	}
	for i := 0; i < *nodes; i++ {
		p.ProcRate[i] = *procRate
		p.RecRate[i] = 1 / *mttr
		if *mtbf > 0 && i < churners {
			p.FailRate[i] = 1 / *mtbf
		}
	}
	if err := p.Validate(); err != nil {
		fmt.Fprintln(stderr, "lbd:", err)
		return 2
	}

	traceSpec := calib.TraceSpec{Seed: *seed, Rate: *rate, Horizon: *horizon, Batch: *batch}
	trace, err := traceSpec.Generate()
	if err != nil {
		fmt.Fprintln(stderr, "lbd:", err)
		return 2
	}
	// One window width for both halves, so the calibration grids align.
	w := metrics.WindowFor(*window, *horizon)

	fmt.Fprintf(stdout, "lbd: %d workers, policy %s balance %s, trace %d arrivals over %.4g virtual s (timescale %.4g)\n",
		*nodes, *polStr, *balStr, len(trace), *horizon, *timeScale)

	live, err := daemon.Run(daemon.Options{
		Params:        p,
		Router:        newRouter(),
		Policy:        pol,
		ChurnLaw:      churnLaw,
		Trace:         trace,
		Batch:         *batch,
		TimeScale:     *timeScale,
		StateInterval: *stateIvl,
		MatrixDim:     *dim,
		MeanPrecision: *precision,
		RealCompute:   *realComp,
		Window:        w,
		Seed:          *seed,
		HTTPAddr:      *httpAddr,
		OnHTTPAddr: func(a string) {
			fmt.Fprintf(stdout, "lbd: front door on http://%s\n", a)
		},
		Interrupt: interrupt,
		MaxWall:   *maxWall,
	})
	if err != nil {
		fmt.Fprintln(stderr, "lbd:", err)
		return 1
	}

	fmt.Fprintf(stdout, "live: served %d of %d tasks, p50 %.3f s p99 %.3f s, throughput %.2f/s, availability %.1f%%\n",
		live.Summary.Completed, live.Injected, live.Summary.P50, live.Summary.P99,
		live.Summary.Throughput, 100*live.Summary.Availability)
	fmt.Fprintf(stdout, "live: failures %d recoveries %d transfers %d (%d tasks), %d state packets, %d decode errors, %d tasks lost\n",
		live.Failures, live.Recoveries, live.TransfersSent, live.TasksTransferred,
		live.StatePackets, live.DecodeErrors, live.Lost)

	if *outDir != "" {
		path, err := report.SaveCSV(*outDir, "lbd_timeseries.csv", func(w io.Writer) error {
			return report.WriteTimeSeriesCSV(w, metrics.ToTimeSeries(live.Windows))
		})
		if err != nil {
			fmt.Fprintln(stderr, "lbd:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote: %s\n", path)
	}

	if live.Interrupted {
		// A cut trace is not replayable: no twin, no calibration, no
		// manifest — but everything admitted drained and flushed above.
		fmt.Fprintln(stdout, "lbd: interrupted — drained admitted work; calibration and manifest skipped (partial trace is not replayable)")
		return 0
	}

	// The simulator twin: the identical trace through the
	// discrete-event engine under the identical policy configuration.
	spec.Params, spec.Trace, spec.Window = p, trace, w
	twin, err := spec.SimTwin()
	if err != nil {
		fmt.Fprintln(stderr, "lbd: sim twin:", err)
		return 1
	}
	rep := calib.Compare(
		calib.Telemetry{Summary: twin.Summary, Windows: twin.Windows},
		calib.Telemetry{Summary: live.Summary, Windows: live.Windows},
	)
	fmt.Fprintf(stdout, "calibration (sim twin vs live):\n%s", rep)

	if *outDir != "" {
		path, err := report.SaveCSV(*outDir, "lbd_calibration.csv", rep.WriteCSV)
		if err != nil {
			fmt.Fprintln(stderr, "lbd:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote: %s\n", path)
	}

	if *manifest != "" {
		man := obs.NewManifest("lbd", obs.ModeDaemon)
		man.CreatedAt = time.Now().UTC().Format(time.RFC3339)
		man.Seed = *seed
		man.System = &obs.SystemRef{
			ProcRate: p.ProcRate, FailRate: p.FailRate, RecRate: p.RecRate,
			DelayPerTask: p.DelayPerTask,
		}
		man.Policy = obs.PolicyRef{Name: *polStr, K: *k, D: *d}
		man.Balance = *balStr
		man.Churn = *churnStr
		man.Rate = *rate
		man.Batch = *batch
		man.Horizon = *horizon
		man.Window = w
		man.TimeScale = *timeScale
		man.StateInterval = *stateIvl
		// Metrics is the twin's deterministic fingerprint; the live
		// measurements and calibration scores ride in LiveMetrics.
		man.Metrics = calib.TwinMetrics(twin)
		man.LiveMetrics = liveMetrics(live, rep)
		if err := man.Save(*manifest); err != nil {
			fmt.Fprintln(stderr, "lbd:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote: %s\n", *manifest)
	}

	availMAPE := rep.SeriesFor("availability").MAPE
	if *maxMAPE > 0 && !(availMAPE <= *maxMAPE) {
		fmt.Fprintf(stderr, "lbd: availability MAPE %.4f exceeds -maxavailmape %.4f\n", availMAPE, *maxMAPE)
		return 1
	}
	return 0
}

// liveMetrics flattens the live run and the calibration scorecard into
// the manifest's informational block.
func liveMetrics(live *daemon.Result, rep *calib.Report) map[string]float64 {
	m := map[string]float64{}
	obs.PutFinite(m, "live_arrived", float64(live.Summary.Arrived))
	obs.PutFinite(m, "live_completed", float64(live.Summary.Completed))
	obs.PutFinite(m, "live_p50", live.Summary.P50)
	obs.PutFinite(m, "live_p90", live.Summary.P90)
	obs.PutFinite(m, "live_p99", live.Summary.P99)
	obs.PutFinite(m, "live_mean_sojourn", live.Summary.MeanSojourn)
	obs.PutFinite(m, "live_throughput", live.Summary.Throughput)
	obs.PutFinite(m, "live_queue_depth", live.Summary.QueueDepth)
	obs.PutFinite(m, "live_availability", live.Summary.Availability)
	obs.PutFinite(m, "live_fairness", live.Summary.Fairness)
	m["live_state_packets"] = float64(live.StatePackets)
	m["live_decode_errors"] = float64(live.DecodeErrors)
	m["live_failures"] = float64(live.Failures)
	m["live_recoveries"] = float64(live.Recoveries)
	for _, s := range rep.Scalars {
		obs.PutFinite(m, "calib_ape_"+s.Name, s.APE)
	}
	for _, s := range rep.Series {
		obs.PutFinite(m, "calib_mape_"+s.Name, s.MAPE)
		obs.PutFinite(m, "calib_pearson_"+s.Name, s.Pearson)
	}
	return m
}
