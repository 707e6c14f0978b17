package serve

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"churnlb/internal/metrics"
	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/scenario"
	"churnlb/internal/sim"
	"churnlb/internal/xrand"
)

// tap is an Instrument for the pipe tests: it delegates every hook to
// inner, counts the hooks, folds every routing decision into sink, and
// closes cut once it has seen cutAt completions (0: never).
type tap struct {
	inner                     sim.TaskObserver
	sink                      decisionFold
	cut                       chan struct{}
	cutAt, completed, records int
}

func (p *tap) TasksArrived(node, count int, t float64) {
	p.records++
	p.inner.TasksArrived(node, count, t)
}

func (p *tap) NodeStateChanged(node int, up bool, t float64) {
	p.records++
	p.inner.NodeStateChanged(node, up, t)
}

func (p *tap) TransferDeparted(from, to, tasks, flight int, t float64) {
	p.records++
	p.inner.TransferDeparted(from, to, tasks, flight, t)
}

func (p *tap) TransferArrived(to, tasks, flight int, t float64) {
	p.records++
	p.inner.TransferArrived(to, tasks, flight, t)
}

func (p *tap) Armed(t float64) {
	p.records++
	p.inner.Armed(t)
}

func (p *tap) TaskCompleted(node int, t float64) {
	p.records++
	p.inner.TaskCompleted(node, t)
	if p.completed++; p.completed == p.cutAt {
		close(p.cut)
	}
}

// pipeCase is one serving run the pipe must carry without a bit of
// difference: instrumented puts a tap between the simulator and the
// telemetry, and cutAt > 0 has that tap fire Interrupt mid-run.
type pipeCase struct {
	name         string
	opt          Options
	instrumented bool
	cutAt        int
}

func pipeCases(t *testing.T, seed uint64, newRouter func() policy.Router) []pipeCase {
	t.Helper()
	churn := func() Options {
		sc, err := scenario.Generate(scenario.Spec{Kind: scenario.Hotspot, N: 40, TotalLoad: 400, Seed: 5, MTBF: 5, MTTR: 1})
		if err != nil {
			t.Fatal(err)
		}
		return Options{
			Sim: sim.Options{
				Params: sc.Params, Policy: policy.LBP2{K: 1},
				InitialLoad: sc.InitialLoad, InitialUp: sc.InitialUp,
				ArrivalRate: 60, ArrivalHorizon: 40,
			},
			NewRouter: newRouter,
			Window:    0.5,
			Seed:      seed,
		}
	}
	trace := churn()
	trace.Sim.ArrivalRate, trace.Sim.ArrivalHorizon = 0, 0
	for i := 0; i < 1500; i++ {
		trace.Sim.ArrivalTrace = append(trace.Sim.ArrivalTrace, sim.ArrivalAt{Time: 0.02 * float64(i), Batch: 1 + i%3})
	}
	closed := churn()
	closed.Sim.ArrivalRate, closed.Sim.ArrivalHorizon = 0, 0
	closed.Sim.InitialLoad = slices.Repeat([]int{100}, closed.Sim.Params.N())
	return []pipeCase{
		{name: "churn", opt: churn()},
		{name: "trace", opt: trace},
		{name: "closed", opt: closed},
		{name: "interrupt", opt: churn(), instrumented: true, cutAt: 1000},
		{name: "instrument", opt: churn(), instrumented: true},
	}
}

// runCase runs c once. With direct nil the telemetry goes through Run's
// pipe; otherwise the observer chain is a tap (counting the records) into
// a ledger feeding direct, a collector, both called on the simulation
// goroutine, and Run's pipe is left idle.
func runCase(t *testing.T, c pipeCase, direct *metrics.Collector) (*Result, *tap) {
	t.Helper()
	opt := c.opt
	var tp *tap
	if c.instrumented || direct != nil {
		tp = &tap{cutAt: c.cutAt, cut: make(chan struct{})}
		opt.Interrupt = tp.cut
	}
	if tp != nil {
		opt.Instrument = func(inner sim.TaskObserver) (sim.TaskObserver, sim.DecisionSink) {
			tp.inner = inner
			if direct != nil {
				tp.inner = sim.NewLedger(opt.Sim.Params.N(), direct)
			}
			return tp, &tp.sink
		}
	}
	res, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, tp
}

// TestPipeMatchesDirectCollector: the telemetry Run computes on the pipe's
// consumer goroutine is, bit for bit, what a sim.Ledger feeding a
// metrics.Collector, installed straight into the same realisation,
// computes — summary, windows, every P²
// marker and the fairness tally — across routers, seeds, churn with LBP-2
// transfers, an arrival trace, a closed backlog, an instrument in the
// chain and an Interrupt fired mid-run. Every case spans many chunks and
// ends on a partial one.
func TestPipeMatchesDirectCollector(t *testing.T) {
	routers := []struct {
		name string
		new  func() policy.Router
	}{
		{"uniform", nil},
		{"pod2", func() policy.Router { return policy.PowerOfD{D: 2} }},
		{"jsq", func() policy.Router { return policy.JSQ{} }},
	}
	for _, rt := range routers {
		for _, seed := range []uint64{1, 2, 3} {
			for _, c := range pipeCases(t, seed, rt.new) {
				t.Run(fmt.Sprintf("%s/seed%d/%s", rt.name, seed, c.name), func(t *testing.T) {
					got, gotTap := runCase(t, c, nil)
					col := metrics.NewCollector(c.opt.Sim.Params.N(), c.opt.Window)
					ref, refTap := runCase(t, c, col)
					want := &Result{
						Summary:  col.Finalize(ref.Sim.CompletionTime),
						Windows:  col.Windows(),
						Latency:  col.Sketches(),
						Fairness: col.FairnessCounts(),
						Sim:      ref.Sim,
					}
					if refTap.records < 4*chunkLen || refTap.records%chunkLen == 0 {
						t.Fatalf("%d records: the case must span several chunks and end on a partial one", refTap.records)
					}
					checkPipeCase(t, c, got, want)
					if gotTap != nil && gotTap.sink.sum != refTap.sink.sum {
						t.Errorf("decision streams differ: %x, want %x", gotTap.sink.sum, refTap.sink.sum)
					}
				})
			}
		}
	}
}

func checkPipeCase(t *testing.T, c pipeCase, got, want *Result) {
	t.Helper()
	if fmt.Sprintf("%+v", *got.Sim) != fmt.Sprintf("%+v", *want.Sim) {
		t.Fatal("the two runs are different realisations")
	}
	switch {
	case c.name == "churn" && want.Sim.TasksTransferred == 0:
		t.Error("churn case moved no task")
	case c.cutAt > 0 && !got.Interrupted:
		t.Error("Interrupt never fired")
	}
	// %v prints a float64 in its shortest round-trip form, so equal text
	// is equal bits, NaN windows included.
	if g, w := fmt.Sprintf("%+v", got.Summary), fmt.Sprintf("%+v", want.Summary); g != w {
		t.Errorf("summary\n got %s\nwant %s", g, w)
	}
	if g, w := fmt.Sprintf("%+v", got.Windows), fmt.Sprintf("%+v", want.Windows); g != w {
		t.Errorf("windows differ\n got %.300s…\nwant %.300s…", g, w)
	}
	for _, q := range []struct {
		name      string
		got, want *metrics.P2
	}{
		{"p50", got.Latency.P50, want.Latency.P50},
		{"p90", got.Latency.P90, want.Latency.P90},
		{"p99", got.Latency.P99, want.Latency.P99},
	} {
		if *q.got != *q.want {
			t.Errorf("%s sketch state differs: %+v, want %+v", q.name, *q.got, *q.want)
		}
	}
	if !slices.Equal(got.Fairness.Counts, want.Fairness.Counts) {
		t.Error("fairness tallies differ")
	}
}

// badRouter routes every arrival to a node that does not exist.
type badRouter struct{}

func (badRouter) Name() string                                         { return "bad" }
func (badRouter) Route(model.StateView, model.Params, *xrand.Rand) int { return -1 }

// TestNoGoroutineOutlivesARun: Run's telemetry consumer has exited by the
// time Run returns — after a clean run, after sim.Start refuses the
// options, after the realisation panics, and across a parallel RunMany.
func TestNoGoroutineOutlivesARun(t *testing.T) {
	before := runtime.NumGoroutine()
	settled := func(after string) {
		t.Helper()
		// A goroutine that has signalled its exit may take a moment to be
		// gone from the count; a leaked one never is.
		for i := 0; i < 2000 && runtime.NumGoroutine() > before; i++ {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			buf := make([]byte, 1<<16)
			t.Errorf("after %s: %d goroutines, %d before\n%s", after, n, before, buf[:runtime.Stack(buf, true)])
		}
	}

	if _, err := Run(testOptions(t)); err != nil {
		t.Fatal(err)
	}
	settled("a clean run")

	refused := testOptions(t)
	refused.Sim.ArrivalRate, refused.Sim.ArrivalHorizon = math.NaN(), 0
	refused.Sim.ArrivalTrace = []sim.ArrivalAt{{Time: 0, Batch: 1}}
	if _, err := Run(refused); err == nil || !strings.Contains(err.Error(), "sim:") {
		t.Fatalf("err = %v, want sim.Start's refusal", err)
	}
	settled("a sim.Start error")

	panics := testOptions(t)
	panics.NewRouter = func() policy.Router { return badRouter{} }
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "invalid node") {
				t.Errorf("recovered %v, want the invalid-node panic", r)
			}
		}()
		Run(panics)
	}()
	settled("a panicking realisation")

	if err := RunMany(testOptions(t), 8, 2, func(int, *Result) {}); err != nil {
		t.Fatal(err)
	}
	settled("RunMany, 8 reps on 2 workers")
}
