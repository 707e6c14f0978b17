package serve

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"churnlb/internal/metrics"
	"churnlb/internal/model"
	"churnlb/internal/obs"
	"churnlb/internal/policy"
	"churnlb/internal/scenario"
	"churnlb/internal/sim"
	"churnlb/internal/xrand"
)

// cutRouter routes like its inner router (nil: the uniform draw, made the
// way the simulator makes it) and closes cut once it has routed cutAt
// arrivals. Routing runs on the simulation goroutine between two polls of
// Interrupt, so the cut lands at the same event in every run of a case.
type cutRouter struct {
	inner         policy.Router
	cut           chan struct{}
	cutAt, routed int
}

func (r *cutRouter) Name() string { return "cut" }

func (r *cutRouter) Route(v model.StateView, p model.Params, rng *xrand.Rand) int {
	if r.routed++; r.routed == r.cutAt {
		close(r.cut)
	}
	if r.inner == nil {
		return rng.Intn(v.N())
	}
	return r.inner.Route(v, p, rng)
}

// inline is the reference the pipe is held to: a ledger feeding the
// collector (and the tracer, when one rides the run) installed as the
// observer itself, on the simulation goroutine, telling the tracer each
// arrival after Armed as a decision over its View. It counts the hooks.
type inline struct {
	*sim.Ledger
	tr         *obs.DecisionTracer
	considered int
	armed      bool
	records    int
}

func (o *inline) TasksArrived(node, count int, t float64) {
	o.records++
	if o.tr != nil && o.armed {
		o.tr.Decision(o.View(t), node, count, o.considered)
	}
	o.Ledger.TasksArrived(node, count, t)
}

func (o *inline) TaskCompleted(node int, t float64) {
	o.records++
	o.Ledger.TaskCompleted(node, t)
}

func (o *inline) NodeStateChanged(node int, up bool, t float64) {
	o.records++
	o.Ledger.NodeStateChanged(node, up, t)
}

func (o *inline) TransferDeparted(from, to, tasks, flight int, t float64) {
	o.records++
	o.Ledger.TransferDeparted(from, to, tasks, flight, t)
}

func (o *inline) TransferArrived(to, tasks, flight int, t float64) {
	o.records++
	o.Ledger.TransferArrived(to, tasks, flight, t)
}

func (o *inline) Armed(t float64) {
	o.records++
	o.armed = true
	o.Ledger.Armed(t)
}

// pipeCase is one serving run the pipe must carry without a bit of
// difference: instrumented has a decision tracer ride the run, and
// cutAt > 0 fires Interrupt once that many arrivals have been routed.
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

// caseRun is what one run of a pipe case produced.
type caseRun struct {
	res     *Result
	tracer  *obs.DecisionTracer // nil unless the case is instrumented
	log     bytes.Buffer        // the tracer's decision log
	records int                 // observer calls, counted inline only
}

// options returns c's options with the cut router and the tracer the case
// asks for, fresh for one run.
func (c pipeCase) options(out *caseRun) Options {
	opt := c.opt
	if c.cutAt > 0 {
		cut := make(chan struct{})
		opt.Sim.Interrupt = cut
		newRouter := c.opt.NewRouter
		opt.NewRouter = func() policy.Router {
			r := &cutRouter{cut: cut, cutAt: c.cutAt}
			if newRouter != nil {
				r.inner = newRouter()
			}
			return r
		}
	}
	if c.instrumented {
		out.tracer = obs.NewDecisionTracer(opt.Sim.Params, obs.TraceOptions{W: &out.log})
		opt.Tracer = out.tracer
	}
	return opt
}

// runPiped runs c through Run: its telemetry and its tracer on the pipe.
func runPiped(t *testing.T, c pipeCase) *caseRun {
	t.Helper()
	out := &caseRun{}
	res, err := Run(c.options(out))
	if err != nil {
		t.Fatal(err)
	}
	out.res = res
	return out
}

// runInline runs c with an inline observer in place of the pipe, as Run
// would run it otherwise: same stream, router, loop and interrupt.
func runInline(t *testing.T, c pipeCase) *caseRun {
	t.Helper()
	out := &caseRun{}
	opt := c.options(out)
	so := opt.Sim
	so.Rand = xrand.New(opt.Seed)
	if opt.NewRouter != nil {
		so.Router = opt.NewRouter()
	}
	n := so.Params.N()
	col := metrics.NewCollector(n, opt.Window)
	var sink sim.TaskSink = col
	if out.tracer != nil {
		sink = tracedSink{col, out.tracer}
	}
	o := &inline{Ledger: sim.NewLedger(n, sink), tr: out.tracer, considered: policy.Considered(so.Router, n)}
	so.TaskObserver = o
	simRes, err := sim.Run(so)
	if err != nil {
		t.Fatal(err)
	}
	out.records = o.records
	out.res = &Result{
		Summary:  col.Finalize(simRes.CompletionTime),
		Windows:  col.Windows(),
		Latency:  col.Sketches(),
		Fairness: col.FairnessCounts(),
		Sim:      simRes,
	}
	return out
}

// TestPipeMatchesDirectCollector: the telemetry Run computes on the pipe's
// consumer goroutine is, bit for bit, what a sim.Ledger feeding a
// metrics.Collector, installed straight into the same realisation,
// computes — summary, windows, every P² marker and the fairness tally —
// across routers, seeds, churn with LBP-2 transfers, an arrival trace, a
// closed backlog, a decision tracer riding the run and an Interrupt fired
// mid-run; and the tracer's decision log and statistics are, byte for
// byte, those of a tracer told each decision by that inline ledger. Every
// case spans many chunks and ends on a partial one.
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
					got, want := runPiped(t, c), runInline(t, c)
					if want.records < 4*chunkLen || want.records%chunkLen == 0 {
						t.Fatalf("%d records: the case must span several chunks and end on a partial one", want.records)
					}
					checkPipeCase(t, c, got.res, want.res)
					if c.instrumented {
						if g, w := got.tracer.Stats(), want.tracer.Stats(); g != w || g.Records == 0 {
							t.Errorf("decision stats %+v, want %+v", g, w)
						}
						if !bytes.Equal(got.log.Bytes(), want.log.Bytes()) {
							t.Error("decision logs differ")
						}
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
	case c.cutAt > 0 && !got.Sim.Interrupted:
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
// time Run returns — after a clean run, after sim.Run refuses the
// options, after the realisation panics, and across a parallel
// RunManyPooled.
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
		t.Fatalf("err = %v, want sim.Run's refusal", err)
	}
	settled("a sim.Run error")

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

	if _, err := RunManyPooled(testOptions(t), 8, 2); err != nil {
		t.Fatal(err)
	}
	settled("RunManyPooled, 8 reps on 2 workers")
}
