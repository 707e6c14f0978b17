package sim

import (
	"reflect"
	"testing"

	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/xrand"
)

// retainingPolicy deliberately violates the StateView lifetime contract
// the viewretain analyzer enforces statically: it keeps the view handed
// to EachInitial — and, next to it, the sanctioned copy taken at the same
// instant — so the test can compare what each reports after the run.
type retainingPolicy struct {
	view   model.StateView
	frozen model.State
	atCall []int
}

func (r *retainingPolicy) Name() string { return "retaining" }

func (r *retainingPolicy) EachInitial(v model.StateView, p model.Params, _ func(model.Transfer)) {
	//lint:ignore viewretain the dynamic twin of the analyzer: retain, then show the live window went stale
	r.view = v
	r.frozen = model.AsState(v).Clone()
	r.atCall = make([]int, v.N())
	for i := range r.atCall {
		r.atCall[i] = v.Queue(i)
	}
}

func (r *retainingPolicy) FailurePlan(model.Params) *policy.FailurePlan { return nil }

// TestLiveViewMustNotBeRetained is the dynamic regression behind the
// viewretain analyzer: a policy that stores its view holds a zero-copy
// window onto the simulator's working arrays, so after the run drains
// the retained view reports the final (mutated) state — while the
// sanctioned model.AsState(v).Clone() copy still shows exactly what the
// callback saw. There is one lifetime rule and no exception to it: traced
// or not, a policy receives the live view, never a retainable
// model.SnapshotView. If the simulator ever started handing out snapshots
// (or mutating fresh arrays per event), the aliasing assertion below
// would fail and this test would flag the contract change.
func TestLiveViewMustNotBeRetained(t *testing.T) {
	for _, traced := range []bool{false, true} {
		p := model.PaperBaseline()
		pol := &retainingPolicy{}
		res, err := Run(Options{Params: p, Policy: pol, InitialLoad: []int{100, 60}, Rand: xrand.New(7), Trace: traced})
		if err != nil {
			t.Fatal(err)
		}
		if res.CompletionTime <= 0 {
			t.Fatalf("traced=%v: run did not progress: %+v", traced, res)
		}
		if pol.view == nil {
			t.Fatalf("traced=%v: EachInitial was never called", traced)
		}

		// The sanctioned copy is frozen at the instant of the call.
		for i, want := range pol.atCall {
			if got := pol.frozen.Queues[i]; got != want {
				t.Errorf("traced=%v: Clone()d state mutated: node %d = %d, want %d", traced, i, got, want)
			}
		}

		// The retained live view aliases simulator state: the workload has
		// drained, so every queue it reports is now zero — stale data a
		// consumer would silently compute with. This is exactly what the
		// viewretain analyzer exists to prevent.
		for i := 0; i < pol.view.N(); i++ {
			if got := pol.view.Queue(i); got != 0 {
				t.Fatalf("traced=%v: retained view: queue %d = %d after drain; the live view no longer aliases simulator state — viewretain's premise changed, update the analyzer and this test together", traced, i, got)
			}
		}
		if pol.atCall[0] == 0 && pol.atCall[1] == 0 {
			t.Fatal("initial queues were empty; the staleness assertion proved nothing")
		}
		if _, ok := pol.view.(model.SnapshotView); ok {
			t.Fatalf("traced=%v: run handed a retainable SnapshotView; the zero-copy contract changed", traced)
		}
	}
}

// departureLog is a TaskObserver that records the transfers a run ships,
// in order, and nothing else.
type departureLog struct{ sent []model.Transfer }

func (d *departureLog) TransferDeparted(from, to, tasks, _ int, _ float64) {
	d.sent = append(d.sent, model.Transfer{From: from, To: to, Tasks: tasks})
}
func (*departureLog) TasksArrived(int, int, float64)         {}
func (*departureLog) TaskCompleted(int, float64)             {}
func (*departureLog) NodeStateChanged(int, bool, float64)    {}
func (*departureLog) TransferArrived(int, int, int, float64) {}
func (*departureLog) Armed(float64)                          {}

// TestOpeningViewHoldsTheInitialState: the t = 0 episode ships each
// transfer as the policy emits it, so the view the policy reads must stay
// at the state before the episode. Two overloaded senders and a loaded
// receiver make that visible: node 1's eq.-(7) denominator and receiver
// fractions read node 0's queue, which node 0's sends (still in flight)
// would already have moved on a live view. The run must ship exactly
// LBP-2's episode over the initial snapshot.
func TestOpeningViewHoldsTheInitialState(t *testing.T) {
	p := model.Params{
		ProcRate:     []float64{1, 1, 1, 1, 1},
		FailRate:     []float64{0.01, 0.01, 0.01, 0.01, 0.01},
		RecRate:      []float64{0.1, 0.1, 0.1, 0.1, 0.1},
		DelayPerTask: 0.02,
	}
	load := []int{100, 80, 20, 0, 0}
	pol := policy.LBP2{K: 1}
	want := pol.Initial(model.SnapshotView{State: model.State{Queues: load, Up: []bool{true, true, true, true, true}}}, p)
	senders := map[int]bool{}
	for _, tr := range want {
		senders[tr.From] = true
	}
	if !senders[0] || !senders[1] {
		t.Fatalf("episode %v does not ship from both overloaded nodes; the test proves nothing", want)
	}
	log := &departureLog{}
	s, err := start(Options{Params: p, Policy: pol, InitialLoad: load, Rand: xrand.New(1), TaskObserver: log})
	if err != nil {
		t.Fatal(err)
	}
	s.finish()
	if !reflect.DeepEqual(log.sent, want) {
		t.Fatalf("t = 0 shipped %v, want LBP-2's episode over the initial state %v", log.sent, want)
	}
}
