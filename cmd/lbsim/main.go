// Command lbsim runs Monte-Carlo studies of the churn model for the
// paper's policies — the paper's two-node workloads by default, or
// generated large-cluster scenarios with -scenario.
//
// Examples:
//
//	lbsim -m0 100 -m1 60 -policy lbp1 -k 0.35 -reps 5000
//	lbsim -m0 100 -m1 60 -policy lbp2 -k 1 -delta 3 -reps 5000
//	lbsim -m0 100 -m1 60 -policy none -trace   # one traced realisation
//	lbsim -m0 100 -m1 60 -policy lbp1multi -transfer pertask -churn weibull
//	lbsim -scenario hotspot -nodes 200 -load 20000 -policy lbp2 -reps 200
//	lbsim -scenario flashcrowd -nodes 1000 -load 100000 -policy lbp1 -reps 1
//	lbsim -scenario diurnal -nodes 100 -load 20000 -policy dynamic -reps 50
//	lbsim -scenario hotspot -nodes 10000 -load 1000000 -policy lbp2 -reps 1 -lazychurn
//
// -manifest writes a machine-readable run manifest (inputs, seeds,
// laws, summary metrics) from which `reproduce -manifest` re-runs
// and verifies the exact result; -cpuprofile, -memprofile and
// -tracefile capture pprof/runtime profiles of the run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"churnlb/internal/model"
	"churnlb/internal/obs"
	"churnlb/internal/obs/rerun"
	"churnlb/internal/policy"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lbsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		m0       = fs.Int("m0", 100, "initial tasks at node 0 (two-node mode)")
		m1       = fs.Int("m1", 60, "initial tasks at node 1 (two-node mode)")
		polStr   = fs.String("policy", "lbp2", "policy: lbp1, lbp1multi, lbp2, none, dynamic")
		k        = fs.Float64("k", 1.0, "LB gain")
		sender   = fs.Int("sender", policy.AutoSender, "LBP-1 sender (-1 = auto)")
		delta    = fs.Float64("delta", 0.02, "mean transfer delay per task (s)")
		noFail   = fs.Bool("nofail", false, "zero the failure rates (two-node mode)")
		reps     = fs.Int("reps", 5000, "Monte-Carlo replications")
		seed     = fs.Uint64("seed", 1, "root seed")
		trace    = fs.Bool("trace", false, "run a single traced realisation instead (two-node mode)")
		transfer = fs.String("transfer", "bundle", "transfer-delay law: bundle, pertask")
		churn    = fs.String("churn", "exp", "failure/recovery law: exp, weibull, det")
		lazy     = fs.Bool("lazychurn", false, "keep churn timers only for loaded nodes (statistically, not bit, identical; falls back to eager when the run would observe idle nodes)")
		shards   = fs.Int("shards", 0, "run each realisation on the domain-sharded parallel engine with up to this many workers (0 = single-stream engine; any positive count is bit-identical to any other)")
		scenStr  = fs.String("scenario", "", "large-cluster scenario: uniform, hotspot, correlated, flashcrowd, diurnal")
		nodes    = fs.Int("nodes", 100, "scenario node count")
		loadFlag = fs.Int("load", 10000, "scenario total tasks")

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

	// The manifest is the run description: the flags fill it, rerun.Execute
	// runs it, and -manifest saves it with the metrics the run produced.
	man := obs.NewManifest("lbsim", obs.ModeMC)
	man.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	man.Seed = *seed
	man.Transfer = *transfer
	man.Churn = *churn
	man.LazyChurn = *lazy
	man.Shards = *shards
	if *scenStr != "" {
		// A generated large cluster: a Monte-Carlo study for reps > 1, a
		// single summarised realisation for reps = 1.
		man.Mode = obs.ModeMCScenario
		if *reps <= 1 {
			man.Mode = obs.ModeSimScenario
		}
		man.Scenario = &obs.ScenarioRef{Kind: *scenStr, Nodes: *nodes, Load: *loadFlag, Delta: *delta}
		man.Policy = obs.PolicyRef{Name: *polStr, K: *k}
	} else {
		// The two-node manifest records the resolved system rate-by-rate
		// (after -delta/-nofail), so a replay needs no flag re-derivation.
		if *trace {
			man.Mode = obs.ModeSim
		}
		p := model.PaperBaseline().WithDelay(*delta)
		if *noFail {
			p = p.NoFailure()
		}
		man.System = &obs.SystemRef{
			ProcRate: p.ProcRate, FailRate: p.FailRate, RecRate: p.RecRate, DelayPerTask: p.DelayPerTask,
		}
		man.InitialLoad = []int{*m0, *m1}
		man.Policy = obs.PolicyRef{Name: *polStr, K: *k, Sender: *sender}
	}
	if man.Mode == obs.ModeMC || man.Mode == obs.ModeMCScenario {
		man.Reps = *reps
	}

	prof, err := obs.StartProfiles(*cpuProf, *memProf, *traceFile)
	if err != nil {
		fmt.Fprintln(stderr, "lbsim:", err)
		return 1
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(stderr, "lbsim: profile:", err)
		}
	}()

	out, err := rerun.Execute(man, rerun.Hooks{})
	if err != nil {
		fmt.Fprintln(stderr, "lbsim:", err)
		var bad *rerun.SpecError
		if errors.As(err, &bad) {
			return 2
		}
		return 1
	}

	switch man.Mode {
	case obs.ModeSim:
		res := out.Sim
		fmt.Fprintf(stdout, "completion %.2f s, processed %v, failures %d, transfers %d (%d tasks)\n",
			res.CompletionTime, res.Processed, res.Failures, res.TransfersSent, res.TasksTransferred)
		fmt.Fprintln(stdout, "t_s,event,node,queues")
		for _, tp := range res.Trace {
			fmt.Fprintf(stdout, "%.3f,%s,%d,%v\n", tp.Time, tp.Kind, tp.Node, tp.Queues)
		}
	case obs.ModeMC:
		est := out.Estimate
		fmt.Fprintf(stdout, "policy %s K=%.2f workload (%d,%d) δ=%.2fs: mean %.2f s ±%.2f (95%% CI, n=%d, σ=%.2f)\n",
			*polStr, *k, *m0, *m1, *delta, est.Mean, est.CI95, est.N, est.Std)
	case obs.ModeSimScenario:
		res := out.Sim
		fmt.Fprintf(stdout, "scenario %s policy %s: completion %.2f s, failures %d, recoveries %d, transfers %d (%d tasks), arrivals %d\n",
			out.Scenario.Name, out.Policy.Name(), res.CompletionTime, res.Failures, res.Recoveries,
			res.TransfersSent, res.TasksTransferred, res.ExternalArrivals)
	case obs.ModeMCScenario:
		est := out.Estimate
		fmt.Fprintf(stdout, "scenario %s policy %s (%d nodes, %d tasks): mean %.2f s ±%.2f (95%% CI, n=%d, σ=%.2f)\n",
			out.Scenario.Name, out.Policy.Name(), *nodes, *loadFlag, est.Mean, est.CI95, est.N, est.Std)
	}

	if *manifest == "" {
		return 0
	}
	man.Metrics = out.Metrics
	if err := man.Save(*manifest); err != nil {
		fmt.Fprintln(stderr, "lbsim:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote: %s\n", *manifest)
	return 0
}
