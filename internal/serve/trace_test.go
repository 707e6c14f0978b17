package serve

import (
	"strings"
	"testing"

	"churnlb/internal/sim"
)

// TestRunArrivalTrace drives a serving realisation from a recorded
// schedule: every injected task completes, the telemetry horizon derives
// from the trace span, and Rate+trace is rejected.
func TestRunArrivalTrace(t *testing.T) {
	opt := testOptions(t)
	opt.Sim.ArrivalRate, opt.Sim.ArrivalHorizon = 0, 0
	trace := make([]sim.ArrivalAt, 120)
	for i := range trace {
		trace[i] = sim.ArrivalAt{Time: 0.2 * float64(i), Batch: 1 + i%2}
	}
	opt.Sim.ArrivalTrace = trace
	r, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, a := range trace {
		want += a.Batch
	}
	for _, q := range opt.Sim.InitialLoad {
		want += q
	}
	if int(r.Summary.Completed) != want {
		t.Fatalf("completed %d, want %d", r.Summary.Completed, want)
	}
	if r.Sim.Interrupted {
		t.Fatal("uninterrupted run reported Interrupted")
	}
	if len(r.Windows) == 0 {
		t.Fatal("no telemetry windows from a trace-driven run")
	}

	opt.Sim.ArrivalRate, opt.Sim.ArrivalHorizon = 1, 25
	if _, err := Run(opt); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("Rate+trace err = %v, want mutual-exclusion error", err)
	}
}

// TestRunInterrupt closes the Interrupt channel before the run starts:
// the arrival stream must cut at the first event, the queued work must
// still drain (conserved accounting), and the Result must flag the cut.
func TestRunInterrupt(t *testing.T) {
	opt := testOptions(t)
	opt.Sim.InitialLoad = make([]int, opt.Sim.Params.N())
	for i := range opt.Sim.InitialLoad {
		opt.Sim.InitialLoad[i] = 5
	}
	ch := make(chan struct{})
	close(ch)
	opt.Sim.Interrupt = ch
	r, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Sim.Interrupted {
		t.Fatal("pre-closed Interrupt not reported")
	}
	// At most one arrival event fires before the poll notices the cut.
	if r.Sim.ExternalArrivals > opt.Sim.ArrivalBatch+1 {
		t.Fatalf("arrivals kept flowing after interrupt: %d", r.Sim.ExternalArrivals)
	}
	want := r.Sim.ExternalArrivals
	for _, q := range opt.Sim.InitialLoad {
		want += q
	}
	processed := 0
	for _, c := range r.Sim.Processed {
		processed += c
	}
	if processed != want {
		t.Fatalf("interrupted run lost work: processed %d, want %d", processed, want)
	}
}
