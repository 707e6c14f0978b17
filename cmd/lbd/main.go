// Command lbd runs the live serving daemon: real worker goroutines
// serving tasks, state gossip over 23-byte UDP packets, task payloads
// over length-prefixed TCP frames, an HTTP front door routing arrivals
// through the policy.Router family against the live state view, and a
// churn controller killing and recovering workers on the simulator's
// failure/recovery laws (eq.-(8) transfers on failure).
//
// A run is open, closed or both. Open: -rate and -horizon generate an
// arrival trace. Closed — the paper's Section-3 testbed: -load queues a
// backlog at t = 0 and -rate 0 adds no arrivals; the run ends when the
// backlog has drained, and its completion time is the paper's overall
// completion time. -paper runs the paper's two-node system.
//
// Every run is a calibration run: the same backlog and trace also replay
// through the discrete-event simulator (the "twin"), and the run reports
// per-metric accuracy — absolute percentage error on the scalar
// aggregates, MAPE and Pearson r on the window time series.
//
// Examples:
//
//	lbd -nodes 8 -rate 60 -horizon 10 -policy jsq -balance lbp2
//	lbd -nodes 8 -mtbf 4 -mttr 2 -churnnodes 1 -churn det -rate 60 -horizon 10 -out results
//	lbd -nodes 4 -rate 40 -horizon 20 -http 127.0.0.1:8080 -manifest run.json
//	lbd -paper -load 100,60 -rate 0 -balance lbp1 -k 0.35 -timescale 2000 -manifest closed.json
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
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"churnlb/internal/calib"
	"churnlb/internal/daemon"
	"churnlb/internal/metrics"
	"churnlb/internal/model"
	"churnlb/internal/obs"
	"churnlb/internal/obs/rerun"
	"churnlb/internal/policy"
	"churnlb/internal/report"
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
	// Every balancing policy but dynamic: the live engine does not
	// rebalance at arrivals.
	balNames := slices.DeleteFunc(policy.Names(), func(s string) bool { return s == "dynamic" })
	var (
		nodes      = fs.Int("nodes", 8, "worker count")
		procRate   = fs.Float64("procrate", 20, "per-worker processing rate, tasks/virtual second")
		mtbf       = fs.Float64("mtbf", 0, "mean virtual seconds between failures per churn-prone worker (0 disables churn)")
		mttr       = fs.Float64("mttr", 2, "mean virtual seconds to recover")
		churnNodes = fs.Int("churnnodes", 0, "workers subject to churn, from worker 0 (0 = all, when -mtbf > 0)")
		churnStr   = fs.String("churn", "exp", "churn law: exp, weibull, det")
		polStr     = fs.String("policy", "jsq", "routing policy: uniform, rr, jsq, pod2, pod3, lew")
		balStr     = fs.String("balance", "lbp2", "balancing policy (eq.-(8) failure plan; lbp1 on two workers only): "+strings.Join(balNames, ", "))
		k          = fs.Float64("k", 0.5, "LB gain for the balancing policy")
		d          = fs.Int("d", 0, "lew sample size (0 = scan all workers)")
		rate       = fs.Float64("rate", 60, "arrival rate of the recorded trace, tasks/virtual second")
		batch      = fs.Int("batch", 1, "tasks per arrival")
		horizon    = fs.Float64("horizon", 10, "trace span, virtual seconds (the run then drains)")
		window     = fs.Float64("window", 0, "telemetry window, virtual seconds (0 = horizon/100)")
		delta      = fs.Float64("delta", 0.02, "mean transfer delay per task, virtual seconds")
		timeScale  = fs.Float64("timescale", 200, "virtual seconds per wall second")
		stateIvl   = fs.Float64("stateinterval", 0.5, "state-broadcast period, virtual seconds")
		paper      = fs.Bool("paper", false, "the paper's two-node system; excludes -nodes, -procrate, -mtbf, -mttr, -churnnodes and -delta")
		loadStr    = fs.String("load", "", "t = 0 backlog per worker, comma-separated (e.g. 100,60); with -rate 0 the run is closed")
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

	// The manifest is the run description: the flags fill it,
	// rerun.DaemonOptions resolves it for the live daemon, rerun.Execute
	// runs its simulator twin, and -manifest saves it with the twin's
	// metrics — so the saved spec is, by construction, the one both halves
	// ran.
	man := obs.NewManifest("lbd", obs.ModeDaemon)
	man.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	man.Seed = *seed
	p := model.PaperBaseline()
	if *paper {
		var clash []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "nodes", "procrate", "mtbf", "mttr", "churnnodes", "delta":
				clash = append(clash, "-"+f.Name)
			}
		})
		if len(clash) > 0 {
			fmt.Fprintf(stderr, "lbd: -paper fixes the fleet; it excludes %s\n", strings.Join(clash, ", "))
			return 2
		}
	} else {
		if *nodes < 1 || *nodes > daemon.MaxWorkers {
			fmt.Fprintf(stderr, "lbd: -nodes %d is outside 1..%d, the daemon's worker cap\n", *nodes, daemon.MaxWorkers)
			return 2
		}
		p = model.Params{
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
	}
	man.System = &obs.SystemRef{ProcRate: p.ProcRate, FailRate: p.FailRate, RecRate: p.RecRate, DelayPerTask: p.DelayPerTask}
	if *loadStr != "" {
		for _, f := range strings.Split(*loadStr, ",") {
			q, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				fmt.Fprintf(stderr, "lbd: -load %q: %v\n", *loadStr, err)
				return 2
			}
			man.InitialLoad = append(man.InitialLoad, q)
		}
	}
	man.Policy = obs.PolicyRef{Name: *polStr, K: *k, D: *d}
	man.Balance = *balStr
	man.Churn = *churnStr
	man.Rate = *rate
	man.Batch = *batch
	if *rate != 0 {
		man.Horizon = *horizon // a closed run has no trace to span
	}
	// One window width for both halves, so the calibration grids align.
	var err error
	if man.Window, err = metrics.WindowFor(*window, man.Horizon); err != nil {
		fmt.Fprintln(stderr, "lbd: -window:", err)
		return 2
	}
	man.TimeScale = *timeScale
	man.StateInterval = *stateIvl

	opt, err := rerun.DaemonOptions(man)
	if err != nil {
		fmt.Fprintln(stderr, "lbd:", err)
		return rerun.ExitCode(err)
	}
	opt.HTTPAddr = *httpAddr
	opt.OnHTTPAddr = func(a string) {
		fmt.Fprintf(stdout, "lbd: front door on http://%s\n", a)
	}
	opt.Interrupt = interrupt
	opt.MaxWall = *maxWall
	// The daemon's own checks and defaults, before the header: a refused
	// run prints nothing, and the header shows the time scale that runs.
	if opt, err = daemon.Resolve(opt); err != nil {
		fmt.Fprintln(stderr, "lbd:", err)
		return 2
	}

	closed := len(opt.Trace) == 0
	if closed {
		fmt.Fprintf(stdout, "lbd: %d workers, policy %s balance %s, closed run on a backlog of %v tasks (timescale %.4g)\n",
			opt.Params.N(), *polStr, *balStr, opt.InitialLoad, opt.TimeScale)
	} else {
		fmt.Fprintf(stdout, "lbd: %d workers, policy %s balance %s, trace %d arrivals over %.4g virtual s (timescale %.4g)\n",
			opt.Params.N(), *polStr, *balStr, len(opt.Trace), *horizon, opt.TimeScale)
	}

	live, err := daemon.Run(opt)
	if err != nil {
		fmt.Fprintln(stderr, "lbd:", err)
		return 1
	}

	fmt.Fprintf(stdout, "live: served %d of %d tasks, p50 %.3f s p99 %.3f s, throughput %.2f/s, availability %.1f%%\n",
		live.Summary.Completed, live.Injected, live.Summary.P50, live.Summary.P99,
		live.Summary.Throughput, 100*live.Summary.Availability)
	fmt.Fprintf(stdout, "live: failures %d recoveries %d transfers %d (%d tasks), %d state packets, telemetry backlog max %d (%d full-ring waits), %d decode errors, %d tasks lost\n",
		live.Failures, live.Recoveries, live.TransfersSent, live.TasksTransferred,
		live.StatePackets, live.TelemetryBacklogMax, live.TelemetryFullWaits, live.DecodeErrors, live.Lost)

	if *outDir != "" {
		path, err := report.SaveCSV(*outDir, "lbd_timeseries.csv", func(w io.Writer) error {
			return metrics.WriteWindowsCSV(w, live.Windows)
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

	// The simulator twin: the identical backlog and trace through the
	// discrete-event engine under the identical policy configuration.
	out, err := rerun.Execute(man, rerun.Hooks{})
	if err != nil {
		fmt.Fprintln(stderr, "lbd: sim twin:", err)
		return rerun.ExitCode(err)
	}
	twin := out.Serve
	rep := calib.Compare(
		calib.Telemetry{Summary: twin.Summary, Windows: twin.Windows},
		calib.Telemetry{Summary: live.Summary, Windows: live.Windows},
	)
	fmt.Fprintf(stdout, "calibration (sim twin vs live):\n%s", rep)
	if closed {
		fmt.Fprintf(stdout, "completion: live %v virtual s, twin %v virtual s\n", live.Summary.Elapsed, twin.Summary.Elapsed)
	}

	if *outDir != "" {
		path, err := report.SaveCSV(*outDir, "lbd_calibration.csv", rep.WriteCSV)
		if err != nil {
			fmt.Fprintln(stderr, "lbd:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote: %s\n", path)
	}

	if *manifest != "" {
		// Metrics is the twin's deterministic fingerprint; the live
		// measurements and calibration scores ride in LiveMetrics.
		man.Metrics = out.Metrics
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
	m := calib.SummaryMetrics("live_", live.Summary)
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
