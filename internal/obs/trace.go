// Package obs is the structured observability bus of the reproduction:
// decision tracing with counterfactual-k evaluation of the router's
// untaken choices, machine-readable run manifests from which any result
// is reproducible, and the profiling plumbing behind the CLIs' pprof
// flags. Everything here is strictly opt-in — a realisation with no
// tracer attached performs no bookkeeping and stays bit-identical — and
// determinism-preserving when attached: the tracer consumes no
// randomness and never perturbs the simulator's random stream, so a
// traced fixed-seed run produces exactly the realisation an untraced
// one does, plus a decision record stream with a stable FNV-1a hash.
package obs

import (
	"io"
	"math"
	"strconv"

	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/sim"
)

// FNV-1a 64-bit parameters; the running hash over the emitted JSONL
// bytes pins a fixed-seed decision stream across platforms.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// DefaultCounterfactualK is the number of best untaken candidates a
// decision record prices when TraceOptions.K is zero.
const DefaultCounterfactualK = 3

// Alt is one counterfactual candidate of a decision record: an untaken
// node and the expected completion delay a task routed there would have
// faced (policy.ExpectedWork — the churn-aware router's own pricing, so
// every router is judged by one yardstick).
type Alt struct {
	Node int
	Work float64
}

// TraceOptions configures a DecisionTracer.
type TraceOptions struct {
	// K is the number of best untaken candidates each record prices
	// (default DefaultCounterfactualK).
	K int
	// W receives the JSONL decision records; nil keeps only the running
	// hash and summary statistics.
	W io.Writer
	// Observer is the inner TaskObserver to wrap (typically the metrics
	// collector); the tracer delegates every lifecycle hook to it. May be
	// nil.
	Observer sim.TaskObserver
}

// DecisionStats summarises a traced run.
type DecisionStats struct {
	// Records counts emitted decision records; Unmatched the decisions
	// whose batch had not fully completed when the run ended (their
	// records are never emitted).
	Records, Unmatched int
	// K is the counterfactual depth the records were priced at.
	K int
	// Hash is the FNV-1a 64 hash over the emitted JSONL bytes — the
	// fixed-seed fingerprint of the whole decision stream.
	Hash uint64
	// MeanRegret averages work − best-untaken-work over records: negative
	// when the router's choice beats every alternative on expected work.
	// MisrouteFrac is the fraction of records with positive regret — a
	// strictly cheaper candidate existed at decision time.
	MeanRegret, MisrouteFrac float64
}

// pendingDecision is a routing decision waiting for its batch to drain:
// completions are matched back by arrival timestamp (continuous time
// makes collisions measure-zero; a chain handles them anyway), and the
// record is emitted when the last task of the batch completes.
type pendingDecision struct {
	seq       int
	t         float64
	node      int
	batch     int
	remaining int
	sumSoj    float64
	cands     int
	work      float64
	alts      []Alt
	next      *pendingDecision
}

// DecisionTracer implements both sim.DecisionSink and sim.TaskObserver:
// it records every routing decision with its counterfactual-k pricing,
// matches task completions back to decisions by arrival timestamp, and
// streams one JSONL record per decision once the batch has fully
// completed — in completion order, which is deterministic for a fixed
// seed. All scratch is pooled, so a steady-state traced run allocates
// only in the io.Writer.
//
// A tracer observes a single realisation; build a fresh one per run.
type DecisionTracer struct {
	p     model.Params
	k     int
	w     io.Writer
	inner sim.TaskObserver
	err   error

	seq     int
	pending map[float64]*pendingDecision
	open    int
	free    *pendingDecision

	altBuf  []Alt  // decision-time top-k selection scratch
	lineBuf []byte // reused JSONL marshal buffer

	records   int
	hash      uint64
	sumRegret float64
	misroutes int
}

// NewDecisionTracer returns a tracer for one realisation of params.
func NewDecisionTracer(p model.Params, o TraceOptions) *DecisionTracer {
	k := o.K
	if k <= 0 {
		k = DefaultCounterfactualK
	}
	return &DecisionTracer{
		p:       p,
		k:       k,
		w:       o.W,
		inner:   o.Observer,
		pending: make(map[float64]*pendingDecision),
		altBuf:  make([]Alt, 0, k+1),
		hash:    fnvOffset64,
	}
}

// allocPending pops the free list, allocating only on a miss — kept out
// of the annotated hot path so the steady state reuses records.
func (d *DecisionTracer) allocPending() *pendingDecision {
	if r := d.free; r != nil {
		d.free = r.next
		return r
	}
	return &pendingDecision{}
}

// Decision implements sim.DecisionSink: price the chosen node and the k
// best untaken candidates over the whole pre-arrival view, then hold the
// record until the batch completes.
//
//churnlb:hotpath
func (d *DecisionTracer) Decision(v model.StateView, chosen, batch, considered int) {
	t := v.Time()
	work := policy.ExpectedWork(chosen, v.Queue(chosen), v.Up(chosen), d.p)
	// Top-k untaken candidates by expected work, ascending, ties to the
	// lowest node: insertion into a k-bounded sorted scratch, O(n·k) per
	// decision — the price of counterfactuals, paid only when tracing.
	alts := d.altBuf[:0]
	for i := 0; i < d.p.N(); i++ {
		if i == chosen {
			continue
		}
		w := policy.ExpectedWork(i, v.Queue(i), v.Up(i), d.p)
		if len(alts) == d.k && w >= alts[len(alts)-1].Work {
			continue
		}
		at := len(alts)
		for at > 0 && w < alts[at-1].Work {
			at--
		}
		if len(alts) < d.k {
			alts = alts[:len(alts)+1]
		}
		copy(alts[at+1:], alts[at:])
		alts[at] = Alt{Node: i, Work: w}
	}
	d.altBuf = alts

	rec := d.allocPending()
	rec.seq = d.seq
	rec.t = t
	rec.node = chosen
	rec.batch = batch
	rec.remaining = batch
	rec.sumSoj = 0
	rec.cands = considered
	rec.work = work
	rec.alts = append(rec.alts[:0], alts...)
	rec.next = d.pending[t]
	d.pending[t] = rec
	d.seq++
	d.open++
}

// TaskCompleted implements sim.TaskObserver: match the completion back
// to its decision by arrival timestamp (initial-backlog tasks arrived at
// t = 0 with no decision and miss, which is correct) and emit the record
// when the batch has drained. Transfers preserve arrival timestamps, so
// a task completes against its original decision wherever it ran.
//
//churnlb:hotpath
func (d *DecisionTracer) TaskCompleted(node int, arrival, firstService, completion float64) {
	// Head of the chain: with continuous arrival times a chain longer
	// than one is measure-zero, and tasks of colliding decisions are
	// indistinguishable by timestamp anyway.
	if rec := d.pending[arrival]; rec != nil {
		rec.sumSoj += completion - arrival
		rec.remaining--
		if rec.remaining == 0 {
			d.emit(rec)
			d.unlink(arrival, rec)
		}
	}
	if d.inner != nil {
		d.inner.TaskCompleted(node, arrival, firstService, completion)
	}
}

// unlink removes rec from its collision chain and returns it to the
// free list.
func (d *DecisionTracer) unlink(t float64, rec *pendingDecision) {
	head := d.pending[t]
	if head == rec {
		if rec.next == nil {
			delete(d.pending, t)
		} else {
			d.pending[t] = rec.next
		}
	} else {
		for p := head; p != nil; p = p.next {
			if p.next == rec {
				p.next = rec.next
				break
			}
		}
	}
	rec.next = d.free
	d.free = rec
	d.open--
}

// emit marshals one completed decision record as a JSONL line, folds it
// into the running hash, and streams it to the writer. Floats use the
// shortest round-trip decimal form, so the byte stream — and its hash —
// is identical wherever the same realisation runs.
//
//churnlb:hotpath
func (d *DecisionTracer) emit(rec *pendingDecision) {
	d.lineBuf = append(d.lineBuf[:0], `{"seq":`...)
	d.lineBuf = strconv.AppendInt(d.lineBuf, int64(rec.seq), 10)
	d.lineBuf = append(d.lineBuf, `,"t":`...)
	d.lineBuf = strconv.AppendFloat(d.lineBuf, rec.t, 'g', -1, 64)
	d.lineBuf = append(d.lineBuf, `,"node":`...)
	d.lineBuf = strconv.AppendInt(d.lineBuf, int64(rec.node), 10)
	d.lineBuf = append(d.lineBuf, `,"batch":`...)
	d.lineBuf = strconv.AppendInt(d.lineBuf, int64(rec.batch), 10)
	d.lineBuf = append(d.lineBuf, `,"cands":`...)
	d.lineBuf = strconv.AppendInt(d.lineBuf, int64(rec.cands), 10)
	d.lineBuf = append(d.lineBuf, `,"work":`...)
	d.lineBuf = strconv.AppendFloat(d.lineBuf, rec.work, 'g', -1, 64)
	d.lineBuf = append(d.lineBuf, `,"alts":[`...)
	for i, a := range rec.alts {
		if i > 0 {
			d.lineBuf = append(d.lineBuf, ',')
		}
		d.lineBuf = append(d.lineBuf, `{"node":`...)
		d.lineBuf = strconv.AppendInt(d.lineBuf, int64(a.Node), 10)
		d.lineBuf = append(d.lineBuf, `,"work":`...)
		d.lineBuf = strconv.AppendFloat(d.lineBuf, a.Work, 'g', -1, 64)
		d.lineBuf = append(d.lineBuf, '}')
	}
	d.lineBuf = append(d.lineBuf, `],"latency":`...)
	d.lineBuf = strconv.AppendFloat(d.lineBuf, rec.sumSoj/float64(rec.batch), 'g', -1, 64)
	d.lineBuf = append(d.lineBuf, `,"regret":`...)
	regret := 0.0
	if len(rec.alts) > 0 {
		regret = rec.work - rec.alts[0].Work
	}
	d.lineBuf = strconv.AppendFloat(d.lineBuf, regret, 'g', -1, 64)
	d.lineBuf = append(d.lineBuf, '}', '\n')
	b := d.lineBuf

	h := d.hash
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	d.hash = h
	d.records++
	d.sumRegret += regret
	if regret > 0 {
		d.misroutes++
	}
	if d.w != nil && d.err == nil {
		if _, err := d.w.Write(b); err != nil {
			d.err = err
		}
	}
}

// TasksArrived implements sim.TaskObserver by delegation.
//
//churnlb:hotpath
func (d *DecisionTracer) TasksArrived(node, count int, t float64) {
	if d.inner != nil {
		d.inner.TasksArrived(node, count, t)
	}
}

// NodeStateChanged implements sim.TaskObserver by delegation.
//
//churnlb:hotpath
func (d *DecisionTracer) NodeStateChanged(node int, up bool, t float64) {
	if d.inner != nil {
		d.inner.NodeStateChanged(node, up, t)
	}
}

// TransferDeparted implements sim.TaskObserver by delegation.
//
//churnlb:hotpath
func (d *DecisionTracer) TransferDeparted(from, to, tasks int, t float64) {
	if d.inner != nil {
		d.inner.TransferDeparted(from, to, tasks, t)
	}
}

// TransferArrived implements sim.TaskObserver by delegation.
//
//churnlb:hotpath
func (d *DecisionTracer) TransferArrived(to, tasks int, t float64) {
	if d.inner != nil {
		d.inner.TransferArrived(to, tasks, t)
	}
}

// Err returns the first writer error, if any.
func (d *DecisionTracer) Err() error { return d.err }

// Stats summarises the traced run so far. Call after the run completes;
// Unmatched then counts decisions whose batch never drained.
func (d *DecisionTracer) Stats() DecisionStats {
	s := DecisionStats{
		Records:    d.records,
		Unmatched:  d.open,
		K:          d.k,
		Hash:       d.hash,
		MeanRegret: math.NaN(),
	}
	if d.records > 0 {
		s.MeanRegret = d.sumRegret / float64(d.records)
		s.MisrouteFrac = float64(d.misroutes) / float64(d.records)
	}
	return s
}
