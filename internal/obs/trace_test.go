package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/scenario"
	"churnlb/internal/serve"
	"churnlb/internal/sim"
)

// serveOptions builds a small fixed serving workload with churn and a
// router over a hotspot cluster of the given size.
func serveOptions(t *testing.T, newRouter func() policy.Router, nodes int) serve.Options {
	t.Helper()
	sc, err := scenario.Generate(scenario.Spec{Kind: scenario.Hotspot, N: nodes, TotalLoad: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return serve.Options{
		Params:      sc.Params,
		Policy:      policy.LBP2{K: 1},
		NewRouter:   newRouter,
		InitialLoad: sc.InitialLoad,
		InitialUp:   sc.InitialUp,
		Rate:        25,
		Batch:       2,
		Horizon:     8,
		Seed:        1234,
	}
}

// clusters are the cluster sizes the tracer is checked on, named by the
// event queue the simulator picks for each (the heap below 16 nodes, the
// calendar queue from there). The decision-stream goldens are pinned on
// the first.
var clusters = []struct {
	queue string
	nodes int
}{{"heap", 12}, {"calendar", 48}}

// routers under test: nil routes uniformly at random — the tracer still
// prices those decisions; the rest exercise every routing rule.
func testRouters() map[string]func() policy.Router {
	return map[string]func() policy.Router{
		"uniform": nil,
		"rr":      func() policy.Router { return policy.NewRoundRobin() },
		"jsq":     func() policy.Router { return policy.JSQ{} },
		"pod2":    func() policy.Router { return policy.PowerOfD{D: 2} },
		"lew":     func() policy.Router { return policy.LeastExpectedWork{} },
	}
}

// TestTracerAttachDetachBitIdentical is the zero-cost/no-perturbation
// golden: for every router and cluster size, a run with the decision
// tracer attached must be bit-identical to the same run without it.
func TestTracerAttachDetachBitIdentical(t *testing.T) {
	routers := testRouters()
	names := make([]string, 0, len(routers))
	for name := range routers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		newRouter := routers[name]
		for _, cl := range clusters {
			t.Run(fmt.Sprintf("%s/%s", name, cl.queue), func(t *testing.T) {
				plain, err := serve.Run(serveOptions(t, newRouter, cl.nodes))
				if err != nil {
					t.Fatal(err)
				}
				opt := serveOptions(t, newRouter, cl.nodes)
				var tracer *DecisionTracer
				opt.Instrument = func(inner sim.TaskObserver) (sim.TaskObserver, sim.DecisionSink) {
					tracer = NewDecisionTracer(opt.Params, TraceOptions{Observer: inner})
					return tracer, tracer
				}
				traced, err := serve.Run(opt)
				if err != nil {
					t.Fatal(err)
				}
				if tracer == nil || tracer.Stats().Records == 0 {
					t.Fatal("tracer attached but recorded nothing")
				}
				wantS, gotS := plain.Summary, traced.Summary
				if wantS.Completed != gotS.Completed || wantS.Arrived != gotS.Arrived {
					t.Fatalf("counts diverged: %+v vs %+v", wantS, gotS)
				}
				for _, pair := range [][2]float64{
					{wantS.P50, gotS.P50}, {wantS.P99, gotS.P99},
					{wantS.Throughput, gotS.Throughput},
					{wantS.Availability, gotS.Availability},
					{wantS.Fairness, gotS.Fairness},
				} {
					if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
						t.Fatalf("summary stat diverged: %v vs %v", pair[0], pair[1])
					}
				}
				w, g := plain.Sim, traced.Sim
				if math.Float64bits(w.CompletionTime) != math.Float64bits(g.CompletionTime) ||
					w.Failures != g.Failures || w.TransfersSent != g.TransfersSent ||
					w.ExternalArrivals != g.ExternalArrivals {
					t.Fatalf("sim result diverged: %+v vs %+v", w, g)
				}
			})
		}
	}
}

// TestDecisionStreamGolden pins the fixed-seed decision stream of every
// router family: the record count and FNV-1a hash of a known run must
// never drift, on any platform, and the hash must equal an independent
// FNV of the emitted JSONL bytes. Recorded at commit 5ec5fcb, where a
// sink-attached run went through a second, candidate-reporting copy of
// each routing rule and an unindexed scan, and held on both event queues
// until the simulator chose its own; "cands" is the number of nodes the
// rule consults.
func TestDecisionStreamGolden(t *testing.T) {
	cl := clusters[0]
	n := cl.nodes
	cases := []struct {
		name      string
		newRouter func() policy.Router
		cands     int
		records   int
		hash      uint64
	}{
		{"uniform", nil, 0, 163, 0x0edf289522e5f906},
		{"rr", func() policy.Router { return policy.NewRoundRobin() }, 1, 192, 0x27a32c9b0ed85bc8},
		{"jsq", func() policy.Router { return policy.JSQ{} }, n, 168, 0x3fa2faa94e58f78c},
		{"pod2", func() policy.Router { return policy.PowerOfD{D: 2} }, 2, 199, 0xbb62425a2781c050},
		{"lew", func() policy.Router { return policy.LeastExpectedWork{} }, n, 187, 0x2c371c89dc6eb274},
		{"lew3", func() policy.Router { return policy.LeastExpectedWork{D: 3} }, 3, 212, 0xe9ada940c6a1fce3},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/%s", c.name, cl.queue), func(t *testing.T) {
			var buf bytes.Buffer
			opt := serveOptions(t, c.newRouter, n)
			var tracer *DecisionTracer
			opt.Instrument = func(inner sim.TaskObserver) (sim.TaskObserver, sim.DecisionSink) {
				tracer = NewDecisionTracer(opt.Params, TraceOptions{W: &buf, Observer: inner})
				return tracer, tracer
			}
			if _, err := serve.Run(opt); err != nil {
				t.Fatal(err)
			}
			st := tracer.Stats()
			if st.Records != c.records || st.Hash != c.hash {
				t.Errorf("%d records, hash %#x; want %d records, hash %#x", st.Records, st.Hash, c.records, c.hash)
			}
			h := fnv.New64a()
			h.Write(buf.Bytes())
			if h.Sum64() != st.Hash {
				t.Errorf("running hash %#x != hash of emitted bytes %#x", st.Hash, h.Sum64())
			}
			if st.K != DefaultCounterfactualK {
				t.Errorf("default K = %d, want %d", st.K, DefaultCounterfactualK)
			}
			// Every line must be well-formed JSON with the documented fields.
			dec := json.NewDecoder(&buf)
			for i := 0; i < st.Records; i++ {
				var rec struct {
					Seq     int     `json:"seq"`
					T       float64 `json:"t"`
					Node    int     `json:"node"`
					Batch   int     `json:"batch"`
					Cands   int     `json:"cands"`
					Work    float64 `json:"work"`
					Alts    []Alt   `json:"alts"`
					Latency float64 `json:"latency"`
					Regret  float64 `json:"regret"`
				}
				if err := dec.Decode(&rec); err != nil {
					t.Fatalf("record %d: %v", i, err)
				}
				if rec.Batch != 2 || rec.Cands != c.cands || len(rec.Alts) != DefaultCounterfactualK {
					t.Fatalf("record %d malformed: %+v", i, rec)
				}
			}
		})
	}
}

// view is a hand-built state for unit-testing Decision directly.
func view(t float64, queues []int, up []bool) model.StateView {
	return model.SnapshotView{State: model.State{Time: t, Queues: queues, Up: up}}
}

// TestCounterfactualPricing drives the tracer by hand: a four-node
// state with known expected work per node must yield the k best
// untaken candidates ascending and the regret against the best one.
func TestCounterfactualPricing(t *testing.T) {
	p := model.Params{
		ProcRate: []float64{1, 2, 4, 8},
		FailRate: []float64{0.01, 0.01, 0.01, 0.01},
		RecRate:  []float64{0.1, 0.1, 0.1, 0.1},
	}
	var buf bytes.Buffer
	d := NewDecisionTracer(p, TraceOptions{K: 2, W: &buf})

	// Queues chosen so expected work is strictly decreasing in node id:
	// node 3 is the best choice; the router "chose" node 0 (the worst).
	queues := []int{9, 9, 9, 9}
	up := []bool{true, true, true, true}
	d.Decision(view(1.5, queues, up), 0, 1, 0)
	if d.Stats().Unmatched != 1 {
		t.Fatalf("open decisions = %d, want 1", d.Stats().Unmatched)
	}
	d.TaskCompleted(0, 1.5, 2.0, 4.5) // sojourn 3.0 completes the batch
	st := d.Stats()
	if st.Records != 1 || st.Unmatched != 0 {
		t.Fatalf("records %d unmatched %d, want 1, 0", st.Records, st.Unmatched)
	}

	var rec struct {
		Work    float64 `json:"work"`
		Alts    []Alt   `json:"alts"`
		Latency float64 `json:"latency"`
		Regret  float64 `json:"regret"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if want := policy.ExpectedWork(0, 9, true, p); rec.Work != want {
		t.Fatalf("work %v, want %v", rec.Work, want)
	}
	// Best two untaken: node 3 then node 2.
	if len(rec.Alts) != 2 || rec.Alts[0].Node != 3 || rec.Alts[1].Node != 2 {
		t.Fatalf("alts %+v, want nodes 3 then 2", rec.Alts)
	}
	if rec.Alts[0].Work >= rec.Alts[1].Work {
		t.Fatalf("alts not ascending: %+v", rec.Alts)
	}
	if want := rec.Work - rec.Alts[0].Work; rec.Regret != want || rec.Regret <= 0 {
		t.Fatalf("regret %v, want %v (> 0: a cheaper candidate existed)", rec.Regret, want)
	}
	if rec.Latency != 3.0 {
		t.Fatalf("latency %v, want 3.0", rec.Latency)
	}
	if st.MisrouteFrac != 1 || st.MeanRegret != rec.Regret {
		t.Fatalf("stats %+v inconsistent with record regret %v", st, rec.Regret)
	}
}

// TestBatchAndUnmatched: a batch-3 decision emits only after all three
// completions; a decision whose batch never drains stays unmatched.
func TestBatchAndUnmatched(t *testing.T) {
	p := model.Params{
		ProcRate: []float64{1, 1},
		FailRate: []float64{0.01, 0.01},
		RecRate:  []float64{0.1, 0.1},
	}
	d := NewDecisionTracer(p, TraceOptions{})
	d.Decision(view(1, []int{0, 0}, []bool{true, true}), 0, 3, 0)
	d.Decision(view(2, []int{1, 0}, []bool{true, true}), 1, 1, 0)
	d.TaskCompleted(0, 1, 1, 3)
	d.TaskCompleted(0, 1, 3, 5)
	if st := d.Stats(); st.Records != 0 || st.Unmatched != 2 {
		t.Fatalf("mid-batch stats %+v, want 0 records, 2 open", st)
	}
	d.TaskCompleted(0, 1, 5, 7)
	if st := d.Stats(); st.Records != 1 || st.Unmatched != 1 {
		t.Fatalf("after batch drain %+v, want 1 record, 1 open", st)
	}
	// Completions with no matching decision (initial backlog) are ignored.
	d.TaskCompleted(1, 0, 0, 1)
	if st := d.Stats(); st.Records != 1 || st.Unmatched != 1 {
		t.Fatalf("t=0 completion perturbed stats: %+v", st)
	}
}

// errWriter fails on the nth write.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	w.n--
	if w.n < 0 {
		return 0, fmt.Errorf("disk full")
	}
	return len(p), nil
}

// TestWriterErrorLatched: the first writer error is kept and reported,
// and the tracer keeps counting records (the hash stays valid).
func TestWriterErrorLatched(t *testing.T) {
	p := model.Params{
		ProcRate: []float64{1, 1},
		FailRate: []float64{0.01, 0.01},
		RecRate:  []float64{0.1, 0.1},
	}
	d := NewDecisionTracer(p, TraceOptions{W: &errWriter{n: 1}})
	for i := 0; i < 3; i++ {
		tm := float64(i + 1)
		d.Decision(view(tm, []int{0, 0}, []bool{true, true}), 0, 1, 0)
		d.TaskCompleted(0, tm, tm, tm+1)
	}
	if d.Err() == nil {
		t.Fatal("writer error not latched")
	}
	if st := d.Stats(); st.Records != 3 {
		t.Fatalf("records = %d despite writer error, want 3", st.Records)
	}
}

// TestTaskObserverDelegation: every lifecycle hook reaches the wrapped
// inner observer.
type countObserver struct{ arrived, completed, state, dep, arr int }

func (c *countObserver) TasksArrived(node, count int, t float64)                    { c.arrived++ }
func (c *countObserver) TaskCompleted(node int, arrival, first, completion float64) { c.completed++ }
func (c *countObserver) NodeStateChanged(node int, up bool, t float64)              { c.state++ }
func (c *countObserver) TransferDeparted(from, to, tasks int, t float64)            { c.dep++ }
func (c *countObserver) TransferArrived(to, tasks int, t float64)                   { c.arr++ }

func TestTaskObserverDelegation(t *testing.T) {
	p := model.Params{
		ProcRate: []float64{1, 1},
		FailRate: []float64{0.01, 0.01},
		RecRate:  []float64{0.1, 0.1},
	}
	inner := &countObserver{}
	d := NewDecisionTracer(p, TraceOptions{Observer: inner})
	d.TasksArrived(0, 1, 1)
	d.TaskCompleted(0, 1, 1, 2)
	d.NodeStateChanged(0, false, 3)
	d.TransferDeparted(0, 1, 5, 4)
	d.TransferArrived(1, 5, 5)
	if inner.arrived != 1 || inner.completed != 1 || inner.state != 1 || inner.dep != 1 || inner.arr != 1 {
		t.Fatalf("delegation missed hooks: %+v", inner)
	}
}
