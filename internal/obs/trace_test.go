package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"churnlb/internal/model"
	"churnlb/internal/policy"
)

// The tests in this file drive the tracer by hand; the serving runs it
// rides are in serve_test.go.

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
	d.TaskCompleted(0, 1.5, 1.5, 4.5) // sojourn 3.0 completes the batch
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

// TestCounterfactualKAboveTheCluster: a k above the cluster prices every
// untaken node, as k = n - 1 does. A manifest or -counterk asking for
// 2^62 used to panic sizing the scratch for k candidates.
func TestCounterfactualKAboveTheCluster(t *testing.T) {
	p := model.Params{
		ProcRate: []float64{1, 2, 4},
		FailRate: []float64{0.01, 0.01, 0.01},
		RecRate:  []float64{0.1, 0.1, 0.1},
	}
	var buf bytes.Buffer
	d := NewDecisionTracer(p, TraceOptions{K: 1 << 62, W: &buf})
	d.Decision(view(1, []int{3, 3, 3}, []bool{true, true, true}), 0, 1, 0)
	d.TaskCompleted(0, 1, 1, 2)
	var rec struct {
		Alts []Alt `json:"alts"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Alts) != 2 {
		t.Fatalf("alts %+v, want both untaken nodes", rec.Alts)
	}
	if st := d.Stats(); st.K != 1<<62 || st.Records != 1 {
		t.Fatalf("stats %+v, want the k asked for and one record", st)
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
	d.Decision(view(1, []int{0, 1}, []bool{true, true}), 0, 3, 0)
	d.Decision(view(2, []int{3, 1}, []bool{true, true}), 1, 1, 0)
	d.TaskCompleted(0, 1, 1, 3)
	d.TaskCompleted(0, 1, 3, 5)
	if st := d.Stats(); st.Records != 0 || st.Unmatched != 2 {
		t.Fatalf("mid-batch stats %+v, want 0 records, 2 open", st)
	}
	d.TaskCompleted(0, 1, 5, 7)
	if st := d.Stats(); st.Records != 1 || st.Unmatched != 1 {
		t.Fatalf("after batch drain %+v, want 1 record, 1 open", st)
	}
	// Completions with no matching decision (initial backlog, arrived at
	// t = 0) are ignored.
	d.TaskCompleted(1, 0, 0, 8)
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
