package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"churnlb/internal/obs"
	"churnlb/internal/policy"
	"churnlb/internal/scenario"
	"churnlb/internal/serve"
	"churnlb/internal/sim"
)

// The tests in this file run the tracer where it rides: on serve.Run's
// telemetry goroutine, which tells it every decision and completion and
// writes its log there.

// serveOptions builds a small fixed serving workload with churn and a
// router over a hotspot cluster of the given size.
func serveOptions(t *testing.T, newRouter func() policy.Router, nodes int) serve.Options {
	t.Helper()
	sc, err := scenario.Generate(scenario.Spec{Kind: scenario.Hotspot, N: nodes, TotalLoad: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return serve.Options{
		Sim: sim.Options{
			Params:         sc.Params,
			Policy:         policy.LBP2{K: 1},
			InitialLoad:    sc.InitialLoad,
			InitialUp:      sc.InitialUp,
			ArrivalRate:    25,
			ArrivalBatch:   2,
			ArrivalHorizon: 8,
		},
		NewRouter: newRouter,
		Seed:      1234,
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
				tracer := obs.NewDecisionTracer(opt.Sim.Params, obs.TraceOptions{})
				opt.Tracer = tracer
				traced, err := serve.Run(opt)
				if err != nil {
					t.Fatal(err)
				}
				if tracer.Stats().Records == 0 {
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
			tracer := obs.NewDecisionTracer(opt.Sim.Params, obs.TraceOptions{W: &buf})
			opt.Tracer = tracer
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
			if st.K != obs.DefaultCounterfactualK {
				t.Errorf("default K = %d, want %d", st.K, obs.DefaultCounterfactualK)
			}
			// Every line must be well-formed JSON with the documented fields.
			dec := json.NewDecoder(&buf)
			for i := 0; i < st.Records; i++ {
				var rec struct {
					Seq     int       `json:"seq"`
					T       float64   `json:"t"`
					Node    int       `json:"node"`
					Batch   int       `json:"batch"`
					Cands   int       `json:"cands"`
					Work    float64   `json:"work"`
					Alts    []obs.Alt `json:"alts"`
					Latency float64   `json:"latency"`
					Regret  float64   `json:"regret"`
				}
				if err := dec.Decode(&rec); err != nil {
					t.Fatalf("record %d: %v", i, err)
				}
				if rec.Batch != 2 || rec.Cands != c.cands || len(rec.Alts) != obs.DefaultCounterfactualK {
					t.Fatalf("record %d malformed: %+v", i, rec)
				}
			}
		})
	}
}

// TestDecisionLogReadAfterRun: the log is written on the telemetry
// goroutine, and Run returns only once that goroutine has exited, so a
// plain bytes.Buffer read after Run holds every record — its FNV-1a is
// the tracer's running hash, one line per record.
func TestDecisionLogReadAfterRun(t *testing.T) {
	for _, cl := range clusters {
		t.Run(cl.queue, func(t *testing.T) {
			var buf bytes.Buffer
			opt := serveOptions(t, func() policy.Router { return policy.JSQ{} }, cl.nodes)
			opt.Tracer = obs.NewDecisionTracer(opt.Sim.Params, obs.TraceOptions{W: &buf})
			if _, err := serve.Run(opt); err != nil {
				t.Fatal(err)
			}
			st := opt.Tracer.Stats()
			h := fnv.New64a()
			h.Write(buf.Bytes())
			if st.Records == 0 || h.Sum64() != st.Hash || bytes.Count(buf.Bytes(), []byte("\n")) != st.Records {
				t.Errorf("%d records, hash %#x; the log holds %d lines hashing to %#x",
					st.Records, st.Hash, bytes.Count(buf.Bytes(), []byte("\n")), h.Sum64())
			}
		})
	}
}

// failingWriter takes its first left bytes and then fails every write.
type failingWriter struct{ left int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.left {
		n := w.left
		w.left = 0
		return n, fmt.Errorf("disk full")
	}
	w.left -= len(p)
	return len(p), nil
}

// TestDecisionLogErrorLatchedThroughRun: a log writer that fails on the
// telemetry goroutine fails Run with its first error, which Err also
// holds, and the tracer keeps counting and hashing records as if the log
// were whole.
func TestDecisionLogErrorLatchedThroughRun(t *testing.T) {
	newRouter := func() policy.Router { return policy.PowerOfD{D: 2} }
	whole := serveOptions(t, newRouter, clusters[0].nodes)
	whole.Tracer = obs.NewDecisionTracer(whole.Sim.Params, obs.TraceOptions{W: &bytes.Buffer{}})
	if _, err := serve.Run(whole); err != nil {
		t.Fatal(err)
	}
	opt := serveOptions(t, newRouter, clusters[0].nodes)
	opt.Tracer = obs.NewDecisionTracer(opt.Sim.Params, obs.TraceOptions{W: &failingWriter{left: 300}})
	if _, err := serve.Run(opt); err == nil || err.Error() != "serve: decision log: disk full" {
		t.Fatalf("Run = %v, want serve: decision log: disk full", err)
	}
	if err := opt.Tracer.Err(); err == nil || err.Error() != "disk full" {
		t.Fatalf("Err() = %v, want the writer's disk full", err)
	}
	if got, want := opt.Tracer.Stats(), whole.Tracer.Stats(); got != want {
		t.Errorf("stats with a failing log %+v, want those of a whole one %+v", got, want)
	}
}
