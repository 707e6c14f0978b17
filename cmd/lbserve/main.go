// Command lbserve runs the open-system serving layer: external tasks
// arrive as a Poisson (optionally diurnal-wave) stream against a
// generated cluster scenario, a dispatcher routing policy places each
// arrival, and fixed-memory telemetry reports per-task latency
// percentiles, throughput, availability and fairness.
//
// Examples:
//
//	lbserve -scenario hotspot -nodes 1000 -policy pod2 -rate 5000 -horizon 60
//	lbserve -scenario diurnal -nodes 100 -policy lew -rate 100 -horizon 120
//	lbserve -scenario correlated -nodes 200 -policy jsq -rate 200 -out results
//	lbserve -scenario uniform -nodes 500 -policy lew -rate 1000 -reps 20
//	lbserve -scenario hotspot -nodes 100 -policy pod2 -decisions trace.jsonl -manifest run.json
//
// With -reps > 1 the replications fan out over the Monte-Carlo worker
// pool (capped by -workers; 0 = all CPUs) and the report shows means ±95%
// CI plus pooled latency percentiles — bit-identical for any worker count.
//
// -manifest writes a machine-readable run manifest (inputs, seeds,
// laws, summary metrics, decision-trace hash) from which
// `reproduce -manifest` re-runs and verifies the exact realisation;
// -decisions streams one JSONL decision record per routed arrival with
// counterfactual-k pricing of the router's untaken choices. The
// -cpuprofile, -memprofile and -tracefile flags capture pprof/runtime
// profiles of the run.
//
// SIGINT/SIGTERM interrupt a single run gracefully: the arrival stream
// stops, admitted work drains, the report and time-series CSV flush,
// and the process exits 0 (the manifest is skipped — a cut arrival
// stream is not replayable). A -reps sweep finishes its replications and
// a -shards run finishes its realisation (the sharded engine has no
// mid-window cut); a second signal kills the process immediately.
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

	"churnlb/internal/metrics"
	"churnlb/internal/obs"
	"churnlb/internal/obs/rerun"
	"churnlb/internal/report"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, sigChannel())) }

// sigChannel converts SIGINT/SIGTERM into the serving layer's Interrupt
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
	fs := flag.NewFlagSet("lbserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenStr = fs.String("scenario", "hotspot", "cluster scenario: uniform, hotspot, correlated, flashcrowd, diurnal")
		nodes   = fs.Int("nodes", 100, "node count")
		load    = fs.Int("load", 0, "scenario workload; the queued portion becomes the t = 0 backlog (any scenario-generated burst is superseded by -rate/-horizon)")
		polStr  = fs.String("policy", "pod2", "routing policy: uniform, rr, jsq, pod2, pod3, lew, dynlbp2")
		k       = fs.Float64("k", 1.0, "LB gain for dynlbp2")
		d       = fs.Int("d", 0, "lew sample size (0 = scan all nodes)")
		rate    = fs.Float64("rate", 100, "arrival rate, tasks/s")
		batch   = fs.Int("batch", 1, "tasks per arrival")
		horizon = fs.Float64("horizon", 60, "arrival window, s (the run then drains)")
		delta   = fs.Float64("delta", 0.02, "mean transfer delay per task, s")
		window  = fs.Float64("window", 0, "telemetry window, s (0 = horizon/100)")
		shards  = fs.Int("shards", 0, "run each realisation on the domain-sharded parallel engine with up to this many workers (0 = single-stream engine; any positive count is bit-identical to any other; incompatible with -decisions, and Ctrl-C does not drain a sharded run — it finishes, or a second signal kills it)")
		seed    = fs.Uint64("seed", 1, "root seed")
		reps    = fs.Int("reps", 1, "replications; >1 aggregates a parallel Monte-Carlo estimate")
		workers = fs.Int("workers", 0, "worker goroutines for -reps (0 = GOMAXPROCS)")
		outDir  = fs.String("out", "", "directory for the telemetry time-series CSV ('' disables)")

		decisions = fs.String("decisions", "", "JSONL decision-trace output file ('' disables; single runs only)")
		counterK  = fs.Int("counterk", 0, "counterfactual candidates per decision record (0 = default 3)")
		manifest  = fs.String("manifest", "", "run-manifest JSON output file ('' disables)")
		cpuProf   = fs.String("cpuprofile", "", "CPU profile output file ('' disables)")
		memProf   = fs.String("memprofile", "", "heap profile output file ('' disables)")
		traceFile = fs.String("tracefile", "", "runtime execution-trace output file ('' disables)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *decisions != "" && *reps > 1 {
		fmt.Fprintln(stderr, "lbserve: -decisions applies to single runs only (decision tracing is per-realisation)")
		return 2
	}

	// The manifest is the run description: the flags fill it, rerun.Execute
	// runs it (resolving a diurnal scenario's wave shape into it), and
	// -manifest saves it with the metrics the run produced.
	man := obs.NewManifest("lbserve", obs.ModeServe)
	man.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	man.Seed = *seed
	man.Scenario = &obs.ScenarioRef{Kind: *scenStr, Nodes: *nodes, Load: *load, Delta: *delta}
	man.Policy = obs.PolicyRef{Name: *polStr, K: *k, D: *d}
	man.Shards = *shards
	man.Rate = *rate
	man.Batch = *batch
	man.Horizon = *horizon
	man.Window = *window
	if *reps > 1 {
		man.Mode = obs.ModeServeMany
		man.Reps = *reps
		man.Workers = *workers
	}
	hooks := rerun.Hooks{Interrupt: interrupt}
	if *decisions != "" {
		f, err := os.Create(*decisions)
		if err != nil {
			fmt.Fprintln(stderr, "lbserve:", err)
			return 1
		}
		defer f.Close()
		man.Decisions = &obs.DecisionRef{K: *counterK}
		hooks.DecisionLog = f
	}

	prof, err := obs.StartProfiles(*cpuProf, *memProf, *traceFile)
	if err != nil {
		fmt.Fprintln(stderr, "lbserve:", err)
		return 1
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(stderr, "lbserve: profile:", err)
		}
	}()

	out, err := rerun.Execute(man, hooks)
	if err != nil {
		fmt.Fprintln(stderr, "lbserve:", err)
		var bad *rerun.SpecError
		if errors.As(err, &bad) {
			return 2
		}
		return 1
	}
	sc := out.Scenario
	saveManifest := func() int {
		if *manifest == "" {
			return 0
		}
		man.Metrics = out.Metrics
		if err := man.Save(*manifest); err != nil {
			fmt.Fprintln(stderr, "lbserve:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote: %s\n", *manifest)
		return 0
	}

	if *reps > 1 {
		if *outDir != "" {
			fmt.Fprintln(stderr, "lbserve: note: -out applies to single runs; no time-series CSV is written with -reps > 1")
		}
		est := out.ServeMany
		fmt.Fprintf(stdout, "scenario %s policy %s rate %.4g/s horizon %.4gs delta %.4gs reps %d\n",
			sc.Name, *polStr, *rate, *horizon, *delta, *reps)
		fmt.Fprintf(stdout, "p50 %.3f ±%.3f s  p99 %.3f ±%.3f s  (means over %d completing replications)\n",
			est.P50.Mean, est.P50.CI95, est.P99.Mean, est.P99.CI95, est.N)
		fmt.Fprintf(stdout, "pooled sojourn p50 %.3f s  p90 %.3f s  p99 %.3f s  (all tasks, merged sketches)\n",
			est.PooledP50, est.PooledP90, est.PooledP99)
		fmt.Fprintf(stdout, "throughput %.2f ±%.2f /s  availability %.1f%% ±%.1f%%  pooled fairness %.3f\n",
			est.Throughput.Mean, est.Throughput.CI95,
			100*est.Availability.Mean, 100*est.Availability.CI95, est.PooledFairness)
		return saveManifest()
	}

	res := out.Serve
	fmt.Fprintf(stdout, "scenario %s policy %s rate %.4g/s horizon %.4gs delta %.4gs\n",
		sc.Name, *polStr, *rate, *horizon, *delta)
	if sc.ArrivalRate > 0 {
		// Flashcrowd/diurnal specs split -load into backlog + burst; the
		// serving stream comes from -rate/-horizon instead, so say what
		// happened to the rest.
		burst := *load - sc.TotalQueued()
		fmt.Fprintf(stdout, "note: %d of %d -load tasks queued at t=0; the scenario's ≈%d-task burst is superseded by the -rate stream\n",
			sc.TotalQueued(), *load, burst)
	}
	// Arrived already counts the initial backlog (the collector sees the
	// t = 0 queues as arrivals).
	fmt.Fprintf(stdout, "served %d of %d tasks in %.2f s (throughput %.2f/s)\n",
		res.Completed, res.Arrived, res.Duration, res.Throughput)
	fmt.Fprintf(stdout, "sojourn p50 %.3f s  p90 %.3f s  p99 %.3f s  (mean %.3f s, mean wait %.3f s)\n",
		res.P50, res.P90, res.P99, res.MeanSojourn, res.MeanWait)
	fmt.Fprintf(stdout, "availability %.1f%%  failures %d  recoveries %d  transfers %d (%d tasks)\n",
		100*res.Availability, res.Failures, res.Recoveries, res.TransfersSent, res.TasksTransferred)
	var meanU, maxU float64
	for _, u := range res.Utilization {
		meanU += u
		if u > maxU {
			maxU = u
		}
	}
	if n := len(res.Utilization); n > 0 {
		meanU /= float64(n)
	}
	fmt.Fprintf(stdout, "utilization mean %.1f%%  max %.1f%%  queue depth %.1f  in flight %.1f  fairness %.3f\n",
		100*meanU, 100*maxU, res.QueueDepth, res.InFlight, res.Fairness)
	if st := res.Decisions; st != nil {
		fmt.Fprintf(stdout, "decisions %d (unmatched %d)  counterfactual k=%d  mean regret %.4f s  misroutes %.1f%%  hash %s\n",
			st.Records, st.Unmatched, st.K, st.MeanRegret, 100*st.MisrouteFrac, obs.HashString(st.Hash))
		if *decisions != "" {
			fmt.Fprintf(stdout, "wrote: %s\n", *decisions)
		}
	}

	if *outDir != "" {
		path, err := report.SaveCSV(*outDir, "serve_timeseries.csv", func(w io.Writer) error {
			return report.WriteTimeSeriesCSV(w, metrics.ToTimeSeries(res.Windows))
		})
		if err != nil {
			fmt.Fprintln(stderr, "lbserve:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote: %s\n", path)
	}
	if res.Interrupted {
		// Everything admitted drained and the report above is complete,
		// but the realisation is not the one the inputs describe: no
		// manifest, exit clean.
		fmt.Fprintln(stdout, "lbserve: interrupted — drained admitted work; manifest skipped (a cut arrival stream is not replayable)")
		return 0
	}
	if res.Decisions != nil {
		man.SetDecisions(*res.Decisions)
	}
	return saveManifest()
}
