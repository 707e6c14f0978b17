// Command reproduce regenerates every table and figure of the paper's
// evaluation section, printing paper-versus-measured comparisons and
// writing CSV artifacts. With -manifest it instead replays a run
// manifest written by lbsim/lbserve: the exact realisation is
// re-executed from the manifest's inputs and its metrics — and, for
// decision-traced runs, the decision-stream hash — are verified
// bit-for-bit against the recorded values.
//
// Usage:
//
//	reproduce                    # all experiments, full replication counts
//	reproduce -quick             # fast smoke pass
//	reproduce -only fig3,table3  # a subset
//	reproduce -testbed           # include concurrent-testbed columns
//	reproduce -list              # list experiment IDs
//	reproduce -manifest run.json # replay + verify a run manifest
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"churnlb/internal/exp"
	"churnlb/internal/obs"
	"churnlb/internal/obs/rerun"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		only    = fs.String("only", "", "comma-separated experiment IDs (default: all)")
		out     = fs.String("out", "results", "directory for CSV artifacts ('' disables)")
		quick   = fs.Bool("quick", false, "reduced replication counts")
		testbed = fs.Bool("testbed", false, "include concurrent-testbed columns (slow, wall-clock bound)")
		seed    = fs.Uint64("seed", 2006, "root random seed")
		list    = fs.Bool("list", false, "list experiment IDs and exit")

		manifest  = fs.String("manifest", "", "replay + verify a run manifest instead of running experiments")
		decisions = fs.String("decisions", "", "with -manifest: JSONL file for the replayed decision trace ('' discards)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *manifest != "" {
		return replayManifest(stdout, stderr, *manifest, *decisions)
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Fprintf(stdout, "%-10s %s\n", e.ID, e.Title)
		}
		return 0
	}

	cfg := exp.Config{
		Seed:     *seed,
		OutDir:   *out,
		Quick:    *quick,
		Testbed:  *testbed,
		Progress: stderr,
	}

	var selected []exp.Experiment
	if *only == "" {
		selected = exp.All()
	} else {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			e, ok := exp.ByID(id)
			if !ok {
				fmt.Fprintf(stderr, "unknown experiment %q (try -list)\n", id)
				return 2
			}
			selected = append(selected, e)
		}
	}

	failed := 0
	for _, e := range selected {
		fmt.Fprintf(stderr, "running %s...\n", e.ID)
		res, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.ID, err)
			failed++
			continue
		}
		if err := res.Render(stdout); err != nil {
			fmt.Fprintf(stderr, "%s: render: %v\n", e.ID, err)
			failed++
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// replayManifest re-executes the run a manifest describes and verifies
// the recorded metrics (and decision hash) exactly. Exit 0 means the
// manifest reproduced bit-for-bit, 1 that it did not or its run failed, 2
// that the manifest itself is at fault (unreadable, or a description no
// run can follow, such as one recorded on the removed sharded engine).
func replayManifest(stdout, stderr io.Writer, path, decisionsPath string) int {
	m, err := obs.LoadManifest(path)
	if err != nil {
		fmt.Fprintln(stderr, "reproduce:", err)
		return 2
	}
	var decisionLog io.Writer
	if decisionsPath != "" {
		f, err := os.Create(decisionsPath)
		if err != nil {
			fmt.Fprintln(stderr, "reproduce:", err)
			return 1
		}
		defer f.Close()
		decisionLog = f
	}
	fmt.Fprintf(stderr, "replaying %s: %s/%s seed %d...\n", path, m.Tool, m.Mode, m.Seed)
	rep, err := rerun.Run(m, decisionLog)
	if err != nil {
		fmt.Fprintln(stderr, "reproduce:", err)
		return rerun.ExitCode(err)
	}
	keys := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(stdout, "%-20s %v\n", k, rep.Metrics[k])
	}
	for _, d := range rep.Diffs {
		fmt.Fprintf(stderr, "reproduce: metric %s: manifest %v, replay %v\n", d.Key, d.Want, d.Got)
	}
	for _, k := range rep.Missing {
		fmt.Fprintf(stderr, "reproduce: metric %s recorded but not reproduced\n", k)
	}
	for _, k := range rep.Extra {
		fmt.Fprintf(stderr, "reproduce: metric %s reproduced but not recorded\n", k)
	}
	if rep.HashWant != "" {
		fmt.Fprintf(stdout, "%-20s %s\n", "decision_hash", rep.HashGot)
		if rep.HashWant != rep.HashGot {
			fmt.Fprintf(stderr, "reproduce: decision hash: manifest %s, replay %s\n", rep.HashWant, rep.HashGot)
		}
	}
	if !rep.OK() {
		fmt.Fprintf(stderr, "reproduce: %s did NOT reproduce\n", path)
		return 1
	}
	fmt.Fprintf(stdout, "reproduced: %s (%s/%s, %d metric(s) verified)\n", path, m.Tool, m.Mode, len(m.Metrics))
	return 0
}
