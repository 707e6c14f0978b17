// Package exp is the reproduction harness: one registered experiment per
// table and figure of the paper's evaluation (Figs. 1–5, Tables 1–3),
// plus the ablation and extension studies promised in DESIGN.md. Every
// experiment produces text tables (with the paper's published values
// alongside ours), optional CSV artifacts, and ASCII plots for figures.
package exp

import (
	"fmt"
	"io"

	"churnlb/internal/report"
)

// Config tunes how experiments run.
type Config struct {
	// Seed is the root seed of all randomness.
	Seed uint64
	// OutDir receives CSV artifacts; empty disables file output.
	OutDir string
	// Quick reduces replication counts for fast smoke runs.
	Quick bool
	// Testbed includes the concurrent-goroutine testbed columns (the
	// paper's "experimental" results); slower, wall-clock bound.
	Testbed bool
	// Workers caps Monte-Carlo parallelism; 0 = GOMAXPROCS.
	Workers int
	// Progress receives status lines; nil discards them.
	Progress io.Writer
}

func (c Config) logf(format string, args ...any) {
	if c.Progress != nil {
		fmt.Fprintf(c.Progress, format+"\n", args...)
	}
}

// reps picks a replication count by mode.
func (c Config) reps(quick, full int) int {
	if c.Quick {
		return quick
	}
	return full
}

// Result is a rendered experiment outcome.
type Result struct {
	ID, Title string
	Tables    []report.Table
	Series    []report.Series
	Plots     []string
	Notes     []string
	// Files lists CSV artifacts written (when Config.OutDir was set).
	Files []string
}

// Experiment pairs an identifier with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) (*Result, error)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the registered experiments in declaration order.
func All() []Experiment {
	return append([]Experiment(nil), registry...)
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs lists registered experiment identifiers.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	return ids
}

// saveArtifacts writes the result's series and tables as CSVs under
// cfg.OutDir (no-op when unset).
func saveArtifacts(cfg Config, res *Result) error {
	if cfg.OutDir == "" {
		return nil
	}
	if len(res.Series) > 0 {
		path, err := report.SaveCSV(cfg.OutDir, res.ID+"_series.csv", func(w io.Writer) error {
			return report.WriteSeriesCSV(w, res.Series...)
		})
		if err != nil {
			return err
		}
		res.Files = append(res.Files, path)
	}
	for i := range res.Tables {
		t := res.Tables[i]
		name := fmt.Sprintf("%s_table%d.csv", res.ID, i+1)
		path, err := report.SaveCSV(cfg.OutDir, name, t.WriteCSV)
		if err != nil {
			return err
		}
		res.Files = append(res.Files, path)
	}
	return nil
}

// Render writes a result to w: tables, plots, then notes.
func (r *Result) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s — %s ==\n\n", r.ID, r.Title); err != nil {
		return err
	}
	for i := range r.Tables {
		if err := r.Tables[i].Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	for _, p := range r.Plots {
		fmt.Fprintln(w, p)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, f := range r.Files {
		fmt.Fprintf(w, "wrote: %s\n", f)
	}
	fmt.Fprintln(w)
	return nil
}
