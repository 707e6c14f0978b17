package sim

import (
	"fmt"
	"testing"

	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/xrand"
)

// routeRecorder wraps the router a run routes with (nil: the uniform
// draw, made the way the simulator makes it) and keeps a copy of every
// view Route was handed and the node it returned. It keeps its router's
// load index, so the indexed rules route as they do unwrapped.
type routeRecorder struct {
	inner policy.Router
	seen  []model.State
	chose []int
}

func (r *routeRecorder) Name() string { return "recorded" }

func (r *routeRecorder) Route(v model.StateView, p model.Params, rng *xrand.Rand) int {
	r.seen = append(r.seen, model.AsState(v).Clone())
	node := 0
	if r.inner == nil {
		node = rng.Intn(v.N())
	} else {
		node = r.inner.Route(v, p, rng)
	}
	r.chose = append(r.chose, node)
	return node
}

func (r *routeRecorder) RouteScore(p model.Params) policy.RouteScore {
	if ir, ok := r.inner.(policy.IndexedRouter); ok {
		return ir.RouteScore(p)
	}
	return nil
}

// viewChecker is a ledger that, at each TasksArrived after Armed, holds
// its View before the arrival against the view the matching Route saw.
type viewChecker struct {
	*Ledger
	t        *testing.T
	routes   *routeRecorder
	armed    bool
	arrivals int
}

func (c *viewChecker) TasksArrived(node, count int, t float64) {
	if c.armed {
		c.check(c.View(t), node)
	}
	c.Ledger.TasksArrived(node, count, t)
}

func (c *viewChecker) Armed(t float64) {
	c.armed = true
	c.Ledger.Armed(t)
}

func (c *viewChecker) check(v model.StateView, node int) {
	t := c.t
	t.Helper()
	k := c.arrivals
	c.arrivals++
	if k >= len(c.routes.seen) {
		t.Fatalf("arrival %d after Armed has no Route behind it", k)
	}
	want := c.routes.seen[k]
	if node != c.routes.chose[k] {
		t.Fatalf("arrival %d went to node %d, Route returned %d", k, node, c.routes.chose[k])
	}
	if v.Time() != want.Time || v.N() != len(want.Queues) || v.InFlight() != want.InFlightTasks {
		t.Fatalf("arrival %d: ledger view (t %v, n %d, in flight %d), Route's (t %v, n %d, in flight %d)",
			k, v.Time(), v.N(), v.InFlight(), want.Time, len(want.Queues), want.InFlightTasks)
	}
	for i := range want.Queues {
		if v.Queue(i) != want.Queues[i] || v.Up(i) != want.Up[i] {
			t.Fatalf("arrival %d, node %d: ledger view (queue %d, up %v), Route's (queue %d, up %v)",
				k, i, v.Queue(i), v.Up(i), want.Queues[i], want.Up[i])
		}
	}
}

// TestLedgerViewIsTheRoutedView is the contract that lets a decision
// tracer read the observer stream instead of a bus of its own: every
// TasksArrived after Armed is exactly one Route call, to the node Route
// returned, and a ledger's View just before it shows the state Route saw
// — time, node count, every queue and up flag, the tasks in flight. It
// holds across the routing rules, a balancing policy that also moves work
// at every arrival, a churning Poisson stream, a wave-thinned one, a
// recorded schedule with entries at t = 0 and a stream cut mid-run, on
// either event queue.
func TestLedgerViewIsTheRoutedView(t *testing.T) {
	routers := []struct {
		name string
		new  func() policy.Router
	}{
		{"uniform", func() policy.Router { return nil }},
		{"rr", func() policy.Router { return policy.NewRoundRobin() }},
		{"jsq", func() policy.Router { return policy.JSQ{} }},
		{"pod2", func() policy.Router { return policy.PowerOfD{D: 2} }},
		{"lew", func() policy.Router { return policy.LeastExpectedWork{} }},
		{"lew3", func() policy.Router { return policy.LeastExpectedWork{D: 3} }},
	}
	policies := []struct {
		name string
		pol  policy.Policy
	}{
		{"lbp2", policy.LBP2{K: 1}},
		{"dynamic", policy.Dynamic{Base: policy.LBP2{K: 1}}},
	}
	streams := []struct {
		name string
		set  func(o *Options)
		// cutAfter > 0 closes the run's Interrupt after that many events.
		cutAfter int
	}{
		{"poisson", func(o *Options) { o.ArrivalRate, o.ArrivalBatch, o.ArrivalHorizon = 6, 2, 15 }, 0},
		{"wave", func(o *Options) {
			o.ArrivalRate, o.ArrivalHorizon = 8, 15
			o.ArrivalWave = Wave{Amplitude: 0.8, Period: 4}
		}, 0},
		{"trace-t0", func(o *Options) { o.ArrivalBatch, o.ArrivalTrace = 2, t0Schedule() }, 0},
		{"cut", func(o *Options) { o.ArrivalRate, o.ArrivalHorizon = 10, 40 }, 300},
	}
	for _, n := range []int{6, 2 * calendarNodes} {
		for _, rt := range routers {
			for _, pc := range policies {
				for k, st := range streams {
					name := fmt.Sprintf("%s/%s/%s/%s", queueFor(n), rt.name, pc.name, st.name)
					t.Run(name, func(t *testing.T) {
						opt := churnHeavyOptions(n, 10*n, pc.pol, uint64(100*n+k))
						st.set(&opt)
						routes := &routeRecorder{inner: rt.new()}
						opt.Router = routes
						check := &viewChecker{Ledger: NewLedger(n, discardSink{}), t: t, routes: routes}
						opt.TaskObserver = check
						if st.cutAfter > 0 {
							cut, events := make(chan struct{}), 0
							opt.Interrupt = cut
							opt.probe = func(_ *simState, kind EventKind, _ int) {
								if kind != EvStart && kind != EvDone {
									if events++; events == st.cutAfter {
										close(cut)
									}
								}
							}
						}
						res, err := Run(opt)
						if err != nil {
							t.Fatal(err)
						}
						if st.cutAfter > 0 && !res.Interrupted {
							t.Error("the interrupt never fired")
						}
						if check.arrivals != len(routes.seen) {
							t.Errorf("%d arrivals after Armed, %d Route calls", check.arrivals, len(routes.seen))
						}
						if check.arrivals == 0 || res.TasksTransferred == 0 {
							t.Fatalf("%d routed arrivals, %d tasks transferred: the case checked too little", check.arrivals, res.TasksTransferred)
						}
						if last := routes.seen[len(routes.seen)-1].Time; st.cutAfter > 0 && last > opt.ArrivalHorizon/2 {
							t.Errorf("last arrival at %v of a %v s stream: the cut came too late to matter", last, opt.ArrivalHorizon)
						}
					})
				}
			}
		}
	}
}

// discardSink is a TaskSink that keeps nothing.
type discardSink struct{}

func (discardSink) TasksArrived(int, int, float64)               {}
func (discardSink) TaskCompleted(int, float64, float64, float64) {}
func (discardSink) NodeStateChanged(int, bool, float64)          {}
func (discardSink) TransferDeparted(int, int, int, float64)      {}
func (discardSink) TransferArrived(int, int, float64)            {}
