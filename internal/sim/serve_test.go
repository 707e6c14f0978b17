package sim

import (
	"math"
	"testing"
	"testing/quick"

	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/xrand"
)

// countingObserver tallies observer callbacks and checks per-task
// timestamp sanity.
type countingObserver struct {
	t         *testing.T
	arrived   int
	completed int
	departed  int
	landed    int
	downs     int
	ups       int
}

func (c *countingObserver) TasksArrived(_, count int, _ float64) { c.arrived += count }

func (c *countingObserver) TaskCompleted(node int, arrival, firstService, completion float64) {
	c.completed++
	if arrival < 0 || completion < arrival {
		c.t.Errorf("node %d: completion %v before arrival %v", node, completion, arrival)
	}
	if firstService >= 0 && (firstService < arrival || firstService > completion) {
		c.t.Errorf("node %d: firstService %v outside [%v, %v]", node, firstService, arrival, completion)
	}
}

func (c *countingObserver) NodeStateChanged(_ int, up bool, _ float64) {
	if up {
		c.ups++
	} else {
		c.downs++
	}
}

func (c *countingObserver) TransferDeparted(_, _, tasks int, _ float64) { c.departed += tasks }
func (c *countingObserver) TransferArrived(_, tasks int, _ float64)     { c.landed += tasks }

// randomParams draws a small random system and initial load.
func randomParams(rng *xrand.Rand, n int) (model.Params, []int) {
	p := model.Params{
		ProcRate:     make([]float64, n),
		FailRate:     make([]float64, n),
		RecRate:      make([]float64, n),
		DelayPerTask: 0.05,
	}
	load := make([]int, n)
	for i := 0; i < n; i++ {
		p.ProcRate[i] = 0.5 + 2*rng.Float64()
		p.FailRate[i] = 0.1 * rng.Float64()
		p.RecRate[i] = 0.1 + 0.2*rng.Float64()
		load[i] = rng.Intn(30)
	}
	return p, load
}

// TestTaskConservationUnderArrivals is the open-system conservation
// property: with ArrivalRate > 0, the total processed across nodes equals
// the initial load plus the injected arrivals, for every policy and
// router over randomized systems and seeds — and when the observer is
// installed, its per-task event counts must agree exactly.
func TestTaskConservationUnderArrivals(t *testing.T) {
	f := func(seed uint16, nRaw, polRaw, routerRaw uint8) bool {
		rng := xrand.NewStream(uint64(seed), 77)
		n := 2 + int(nRaw)%5
		p, load := randomParams(rng, n)

		var pol policy.Policy
		switch polRaw % 4 {
		case 0:
			pol = policy.NoBalance{}
		case 1:
			pol = policy.LBP1Multi{K: 0.8}
		case 2:
			pol = policy.LBP2{K: 1}
		default:
			pol = policy.Dynamic{Base: policy.LBP2{K: 1}}
		}
		var router policy.Router
		switch routerRaw % 5 {
		case 0:
			router = nil // uniform
		case 1:
			router = policy.NewRoundRobin()
		case 2:
			router = policy.JSQ{}
		case 3:
			router = policy.PowerOfD{D: 2}
		default:
			router = policy.LeastExpectedWork{D: 2}
		}
		obs := &countingObserver{t: t}
		opt := Options{
			Params:         p,
			Policy:         pol,
			InitialLoad:    load,
			Rand:           rng,
			ArrivalRate:    0.8,
			ArrivalBatch:   1 + int(nRaw)%3,
			ArrivalHorizon: 25,
			Router:         router,
			TaskObserver:   NewLedger(n, obs),
		}
		if routerRaw%2 == 0 {
			opt.ArrivalWave = Wave{Amplitude: 0.7, Period: 10}
		}
		res, err := Run(opt)
		if err != nil {
			t.Log(err)
			return false
		}
		processed := 0
		for _, c := range res.Processed {
			processed += c
		}
		want := res.ExternalArrivals
		for _, q := range load {
			want += q
		}
		if processed != want {
			t.Logf("processed %d, want initial+arrivals %d", processed, want)
			return false
		}
		if obs.completed != processed {
			t.Logf("observer saw %d completions, simulator processed %d", obs.completed, processed)
			return false
		}
		if obs.arrived != want {
			t.Logf("observer saw %d arrivals, want %d", obs.arrived, want)
			return false
		}
		if obs.departed != res.TasksTransferred || obs.landed != res.TasksTransferred {
			t.Logf("observer transfers (%d out, %d in), simulator %d", obs.departed, obs.landed, res.TasksTransferred)
			return false
		}
		if obs.downs != res.Failures+initiallyDown(opt) || obs.ups != res.Recoveries {
			t.Logf("observer churn (%d down, %d up), simulator (%d, %d)", obs.downs, obs.ups, res.Failures, res.Recoveries)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func initiallyDown(opt Options) int {
	d := 0
	for _, up := range opt.InitialUp {
		if !up {
			d++
		}
	}
	return d
}

// TestObserverIsZeroCost proves the opt-in hook perturbs nothing: the
// same seed with and without an observer (and with and without a trace)
// produces bit-identical results, because the observer consumes no
// randomness and changes no event ordering.
func TestObserverIsZeroCost(t *testing.T) {
	base := func() Options {
		return Options{
			Params:         model.PaperBaseline(),
			Policy:         policy.Dynamic{Base: policy.LBP2{K: 1}},
			InitialLoad:    []int{40, 10},
			ArrivalRate:    0.5,
			ArrivalBatch:   2,
			ArrivalHorizon: 40,
		}
	}
	plain := base()
	plain.Rand = xrand.NewStream(9, 4)
	want, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	observed := base()
	observed.Rand = xrand.NewStream(9, 4)
	observed.TaskObserver = NewLedger(2, &countingObserver{t: t})
	got, err := Run(observed)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.CompletionTime) != math.Float64bits(want.CompletionTime) {
		t.Errorf("observer changed completion time: %v vs %v", got.CompletionTime, want.CompletionTime)
	}
	if got.Failures != want.Failures || got.TasksTransferred != want.TasksTransferred ||
		got.ExternalArrivals != want.ExternalArrivals {
		t.Errorf("observer changed counters: %+v vs %+v", got, want)
	}
}

// TestRouterDirectsArrivals pins the routing hook: a router that always
// picks node 1 must leave node 0 with only its initial work.
type constRouter struct{ node int }

func (c constRouter) Name() string                                         { return "const" }
func (c constRouter) Route(model.StateView, model.Params, *xrand.Rand) int { return c.node }

func TestRouterDirectsArrivals(t *testing.T) {
	p := model.Params{
		ProcRate: []float64{1, 1},
		FailRate: []float64{0, 0},
		RecRate:  []float64{0, 0},
	}
	res, err := Run(Options{
		Params:         p,
		Policy:         policy.NoBalance{},
		InitialLoad:    []int{3, 0},
		Rand:           xrand.NewStream(1, 1),
		ArrivalRate:    1,
		ArrivalHorizon: 20,
		Router:         constRouter{node: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Processed[0] != 3 {
		t.Errorf("node 0 processed %d, want only its 3 initial tasks", res.Processed[0])
	}
	if res.Processed[1] != res.ExternalArrivals {
		t.Errorf("node 1 processed %d, want all %d arrivals", res.Processed[1], res.ExternalArrivals)
	}
}

// TestWaveValidation rejects malformed diurnal settings.
func TestWaveValidation(t *testing.T) {
	p := model.PaperBaseline()
	bad := []Options{
		{Params: p, InitialLoad: []int{1, 0}, Rand: xrand.New(1), ArrivalWave: Wave{Period: 10}},
		{Params: p, InitialLoad: []int{1, 0}, Rand: xrand.New(1),
			ArrivalRate: 1, ArrivalHorizon: 10, ArrivalWave: Wave{Period: 10, Amplitude: 1.5}},
	}
	for i, opt := range bad {
		if _, err := Run(opt); err == nil {
			t.Errorf("case %d: invalid wave accepted", i)
		}
	}
}
