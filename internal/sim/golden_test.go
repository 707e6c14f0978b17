package sim

import (
	"math"
	"testing"
	"testing/quick"

	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/xrand"
)

// The golden values below were produced by the pre-refactor simulator
// (per-event remaining() scans, epoch-invalidated completion timers,
// per-callback snapshot allocation) at commit 15fa5c8 plus go.mod. The
// hot-path overhaul must leave every fixed-seed realisation bit-identical:
// completion times are compared as exact float64 bit patterns, and traced
// runs additionally compare an FNV-1a hash over every trace point.

type goldenCase struct {
	name string
	opt  func() Options

	completionBits                  uint64
	failures, recoveries            int
	transfersSent, tasksTransferred int
	processed                       []int
	traceLen                        int
	traceFNV                        uint64
	// externalArrivals and nextRand (the first word the run left in its
	// stream) are compared when non-zero; obsCalls/obsFNV when the case
	// installs a ledger feeding a *streamHash, decisions/decisionFNV when
	// that observer is a *decisionHash.
	externalArrivals int
	nextRand         uint64
	obsCalls         int
	obsFNV           uint64
	decisions        int
	decisionFNV      uint64
}

// decisionHash is a ledger feeding a *streamHash that also folds every
// routing decision into one FNV-1a: each TasksArrived after Armed is one
// (see TaskObserver), and the ledger's View before it applies the arrival
// is the pre-arrival view the router decided on. considered is
// policy.Considered of the run's router, a constant of the run.
type decisionHash struct {
	*Ledger
	fold       *streamHash
	considered int
	armed      bool
	decisions  int
}

func newDecisionHash(n int, router policy.Router) *decisionHash {
	return &decisionHash{Ledger: NewLedger(n, newStreamHash()), fold: newStreamHash(), considered: policy.Considered(router, n)}
}

func (d *decisionHash) TasksArrived(node, count int, t float64) {
	if d.armed {
		v := d.View(t)
		d.decisions++
		d.fold.rec(6, []int{node, count, v.N(), v.InFlight(), d.considered}, v.Time())
		for i := 0; i < v.N(); i++ {
			up := 0
			if v.Up(i) {
				up = 1
			}
			d.fold.rec(7, []int{v.Queue(i), up})
		}
	}
	d.Ledger.TasksArrived(node, count, t)
}

func (d *decisionHash) Armed(t float64) {
	d.armed = true
	d.Ledger.Armed(t)
}

// tracedOpenCluster is the six-node cluster of the traced open-system
// goldens: heterogeneous rates, two loaded nodes, and recoveries slow
// enough (MTBF 10 s, MTTR 8 s) that eq. (8) ships tasks at most failures.
func tracedOpenCluster() (model.Params, []int) {
	p, load := hotspotCluster(6, 2, 40, 2)
	for i := range p.FailRate {
		p.FailRate[i], p.RecRate[i] = 1.0/10, 1.0/8
	}
	return p, load
}

// t0Schedule is a recorded arrival schedule whose first two entries are
// due at t = 0, the instant a trace must tell apart from the initial load.
func t0Schedule() []ArrivalAt {
	tr := []ArrivalAt{{Time: 0, Batch: 5}, {Time: 0}}
	for k := 1; k <= 40; k++ {
		tr = append(tr, ArrivalAt{Time: 0.7 * float64(k), Batch: k % 3})
	}
	return tr
}

func goldenCases() []goldenCase {
	p := model.PaperBaseline()
	return []goldenCase{
		{
			name: "none",
			opt: func() Options {
				return Options{Params: p, Policy: policy.NoBalance{}, InitialLoad: []int{100, 60}, Rand: xrand.NewStream(42, 7)}
			},
			completionBits: math.Float64bits(0x1.e9179756f82e6p+06),
			failures:       7, recoveries: 6, transfersSent: 0, tasksTransferred: 0,
			processed: []int{100, 60}, traceFNV: 0xcbf29ce484222325,
		},
		{
			name: "lbp1",
			opt: func() Options {
				return Options{Params: p, Policy: policy.LBP1{K: 0.35, Sender: 0}, InitialLoad: []int{100, 60}, Rand: xrand.NewStream(42, 7)}
			},
			completionBits: math.Float64bits(0x1.8478bfa3b6a42p+06),
			failures:       6, recoveries: 6, transfersSent: 1, tasksTransferred: 35,
			processed: []int{65, 95}, traceFNV: 0xcbf29ce484222325,
		},
		{
			name: "lbp2",
			opt: func() Options {
				return Options{Params: p, Policy: policy.LBP2{K: 1}, InitialLoad: []int{100, 60}, Rand: xrand.NewStream(42, 7)}
			},
			completionBits: math.Float64bits(0x1.d78aadd7a5836p+06),
			failures:       8, recoveries: 7, transfersSent: 6, tasksTransferred: 71,
			processed: []int{77, 83}, traceFNV: 0xcbf29ce484222325,
		},
		{
			name: "lbp2-delay3",
			opt: func() Options {
				return Options{Params: p.WithDelay(3), Policy: policy.LBP2{K: 0.24}, InitialLoad: []int{100, 60}, Rand: xrand.NewStream(99, 3)}
			},
			completionBits: math.Float64bits(0x1.734ae6c32a2a6p+06),
			failures:       4, recoveries: 4, transfersSent: 4, tasksTransferred: 31,
			processed: []int{105, 55}, traceFNV: 0xcbf29ce484222325,
		},
		{
			name: "lbp2-pertask",
			opt: func() Options {
				return Options{Params: p, Policy: policy.LBP2{K: 1}, InitialLoad: []int{100, 60}, Rand: xrand.NewStream(7, 1), TransferMode: TransferPerTask}
			},
			completionBits: math.Float64bits(0x1.8d6fbec655a7bp+06),
			failures:       5, recoveries: 5, transfersSent: 6, tasksTransferred: 68,
			processed: []int{68, 92}, traceFNV: 0xcbf29ce484222325,
		},
		{
			name: "lbp1-weibull",
			opt: func() Options {
				return Options{Params: p, Policy: policy.LBP1{K: 0.35, Sender: 0}, InitialLoad: []int{80, 20}, Rand: xrand.NewStream(5, 5), ChurnLaw: ChurnWeibull}
			},
			completionBits: math.Float64bits(0x1.5df755bb347efp+06),
			failures:       6, recoveries: 5, transfersSent: 1, tasksTransferred: 28,
			processed: []int{52, 48}, traceFNV: 0xcbf29ce484222325,
		},
		{
			name: "dynamic-arrivals",
			opt: func() Options {
				return Options{Params: p, Policy: policy.Dynamic{Base: policy.LBP2{K: 1}}, InitialLoad: []int{20, 0}, Rand: xrand.NewStream(103, 2), ArrivalRate: 0.5, ArrivalBatch: 5, ArrivalHorizon: 60}
			},
			completionBits: math.Float64bits(0x1.9b7b63acb3929p+06),
			failures:       9, recoveries: 8, transfersSent: 28, tasksTransferred: 95,
			processed: []int{67, 68}, traceFNV: 0xcbf29ce484222325,
		},
		{
			name: "trace-on",
			opt: func() Options {
				return Options{Params: p, Policy: policy.LBP2{K: 1}, InitialLoad: []int{100, 60}, Rand: xrand.NewStream(77, 0), Trace: true}
			},
			completionBits: math.Float64bits(0x1.4adf179e58631p+06),
			failures:       4, recoveries: 3, transfersSent: 4, tasksTransferred: 56,
			processed: []int{62, 98}, traceLen: 177, traceFNV: 0xca2b5f86280c6ae7,
		},
		// The three traced open-system cases below were recorded at commit
		// bc6c35e, where Trace still routed a run through retainable
		// snapshots, the reference Route scan and the per-call OnFailure
		// scan: the indexed, planned, zero-copy path every run takes now
		// must reproduce them bit for bit.
		{
			name: "trace-jsq-poisson",
			opt: func() Options {
				hp, load := tracedOpenCluster()
				return Options{Params: hp, Policy: policy.LBP2{K: 1}, InitialLoad: load, Rand: xrand.NewStream(61, 4),
					Router: policy.JSQ{}, ArrivalRate: 4.5, ArrivalBatch: 2, ArrivalHorizon: 30, Trace: true}
			},
			completionBits: math.Float64bits(0x1.a9574e1f9f2b2p+06),
			failures:       32, recoveries: 30, transfersSent: 84, tasksTransferred: 139,
			processed: []int{61, 65, 51, 96, 75, 48}, traceLen: 782, traceFNV: 0x1149b42f114033e1,
			externalArrivals: 308, nextRand: 0x236bf114b439a9be,
		},
		{
			name: "trace-lew-dynamic-t0",
			opt: func() Options {
				hp, load := tracedOpenCluster()
				return Options{Params: hp, Policy: policy.Dynamic{Base: policy.LBP2{K: 1}}, InitialLoad: load, Rand: xrand.NewStream(62, 4),
					Router: policy.LeastExpectedWork{}, ArrivalBatch: 2, ArrivalTrace: t0Schedule(), Trace: true}
			},
			completionBits: math.Float64bits(0x1.3645820c09529p+05),
			failures:       10, recoveries: 8, transfersSent: 95, tasksTransferred: 149,
			processed: []int{24, 40, 33, 37, 7, 20}, traceLen: 413, traceFNV: 0x9cafabdd6f16e821,
			externalArrivals: 73, nextRand: 0x57121f633bdff17,
		},
		{
			name: "trace-pod2-sink-observer",
			opt: func() Options {
				hp, load := tracedOpenCluster()
				router := policy.PowerOfD{D: 2}
				return Options{Params: hp, Policy: policy.LBP2{K: 1}, InitialLoad: load, Rand: xrand.NewStream(63, 4),
					Router: router, ArrivalRate: 4.5, ArrivalBatch: 2, ArrivalHorizon: 30, Trace: true,
					TaskObserver: newDecisionHash(hp.N(), router)}
			},
			completionBits: math.Float64bits(0x1.23e1f7d65d212p+06),
			failures:       26, recoveries: 24, transfersSent: 50, tasksTransferred: 97,
			processed: []int{46, 54, 76, 78, 41, 53}, traceLen: 630, traceFNV: 0x8913428805483e1d,
			externalArrivals: 260, nextRand: 0x2621e4f093cab543,
			obsCalls: 634, obsFNV: 0x3f809a0e77cda27b, decisions: 130, decisionFNV: 0x37f49b187dc460f7,
		},
		{
			name: "initial-down",
			opt: func() Options {
				return Options{Params: p, Policy: policy.LBP2{K: 1}, InitialLoad: []int{40, 10}, InitialUp: []bool{false, true}, Rand: xrand.NewStream(31, 9)}
			},
			completionBits: math.Float64bits(0x1.291970306c61dp+05),
			failures:       3, recoveries: 4, transfersSent: 3, tasksTransferred: 27,
			processed: []int{13, 37}, traceFNV: 0xcbf29ce484222325,
		},
		{
			name: "deterministic-churn",
			opt: func() Options {
				return Options{Params: p, Policy: policy.LBP2{K: 1}, InitialLoad: []int{60, 40}, Rand: xrand.NewStream(101, 2), ChurnLaw: ChurnDeterministic}
			},
			completionBits: math.Float64bits(0x1.970253037d28cp+05),
			failures:       3, recoveries: 2, transfersSent: 3, tasksTransferred: 35,
			processed: []int{43, 57}, traceFNV: 0xcbf29ce484222325,
		},
	}
}

// traceHash folds every trace point (time bits, kind, node, queue vector)
// into an FNV-1a digest, so traces compare exactly without storing them.
func traceHash(tr []TracePoint) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	for _, tp := range tr {
		mix(math.Float64bits(tp.Time))
		for _, c := range []byte(tp.Kind) {
			h ^= uint64(c)
			h *= prime
		}
		mix(uint64(int64(tp.Node)))
		for _, q := range tp.Queues {
			mix(uint64(int64(q)))
		}
	}
	return h
}

// Every golden case runs once, on the event queue its node count selects
// (the subtest's last name): the values were recorded when every case also
// ran on the other backend, and held there, so the backend may only change
// the cost of a realisation, never a single bit of it.
func TestGoldenBitIdentical(t *testing.T) {
	for _, c := range goldenCases() {
		opt := c.opt()
		t.Run(c.name+"/"+queueFor(opt.Params.N()).String(), func(t *testing.T) {
			res, err := Run(opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := math.Float64bits(res.CompletionTime); got != c.completionBits {
				t.Errorf("CompletionTime %x (bits %#x), want bits %#x",
					res.CompletionTime, got, c.completionBits)
			}
			if res.Failures != c.failures || res.Recoveries != c.recoveries {
				t.Errorf("churn (%d,%d), want (%d,%d)", res.Failures, res.Recoveries, c.failures, c.recoveries)
			}
			if res.TransfersSent != c.transfersSent || res.TasksTransferred != c.tasksTransferred {
				t.Errorf("transfers (%d,%d), want (%d,%d)",
					res.TransfersSent, res.TasksTransferred, c.transfersSent, c.tasksTransferred)
			}
			for i, want := range c.processed {
				if res.Processed[i] != want {
					t.Errorf("Processed[%d] = %d, want %d", i, res.Processed[i], want)
				}
			}
			if len(res.Trace) != c.traceLen {
				t.Errorf("trace length %d, want %d", len(res.Trace), c.traceLen)
			}
			if got := traceHash(res.Trace); got != c.traceFNV {
				t.Errorf("trace hash %#x, want %#x", got, c.traceFNV)
			}
			if c.externalArrivals != 0 && res.ExternalArrivals != c.externalArrivals {
				t.Errorf("ExternalArrivals %d, want %d", res.ExternalArrivals, c.externalArrivals)
			}
			if c.nextRand != 0 {
				if got := opt.Rand.Uint64(); got != c.nextRand {
					t.Errorf("next rng word %#x, want %#x", got, c.nextRand)
				}
			}
			if o, ok := hashOf(opt.TaskObserver); ok {
				if got := o.h.Sum64(); o.calls != c.obsCalls || got != c.obsFNV {
					t.Errorf("observer stream: %d calls, fnv %#x; want %d calls, fnv %#x", o.calls, got, c.obsCalls, c.obsFNV)
				}
			}
			if d, ok := opt.TaskObserver.(*decisionHash); ok {
				if got := d.fold.h.Sum64(); d.decisions != c.decisions || got != c.decisionFNV {
					t.Errorf("decision stream: %d decisions, fnv %#x; want %d decisions, fnv %#x", d.decisions, got, c.decisions, c.decisionFNV)
				}
			}
		})
	}
}

// scanRemaining recomputes the remaining-task total the pre-refactor way:
// a full queue scan plus the in-flight count — the reference the O(1)
// counter is held to.
func scanRemaining(s *simState) int {
	t := s.inFlight
	for i := range s.hot {
		t += int(s.hot[i].queue)
	}
	return t
}

// TestAccountingMatchesScan proves the incrementally maintained
// remaining-task counter agrees with the pre-refactor full scan after
// every single event, EvStart and EvDone included, on randomized small
// systems across policies, churn laws and arrival settings.
func TestAccountingMatchesScan(t *testing.T) {
	t.Parallel()
	events, mismatches := 0, 0
	f := func(seed uint16, nRaw, polRaw uint8) bool {
		rng := xrand.NewStream(uint64(seed), 55)
		n := 2 + int(nRaw)%4
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
			load[i] = rng.Intn(40)
		}
		var pol policy.Policy
		switch polRaw % 3 {
		case 0:
			pol = policy.NoBalance{}
		case 1:
			pol = policy.LBP1Multi{K: 0.8}
		default:
			pol = policy.LBP2{K: 1}
		}
		var first, last EventKind
		opt := Options{Params: p, Policy: pol, InitialLoad: load, Rand: rng,
			probe: func(s *simState, kind EventKind, _ int) {
				if first == "" {
					first = kind
				}
				last = kind
				events++
				if s.remaining != scanRemaining(s) {
					mismatches++
				}
			}}
		if polRaw%2 == 0 {
			opt.ArrivalRate, opt.ArrivalBatch, opt.ArrivalHorizon = 0.3, 3, 25
		}
		res, err := Run(opt)
		if err != nil {
			return false
		}
		total := 0
		for _, c := range res.Processed {
			total += c
		}
		want := res.ExternalArrivals
		for _, q := range load {
			want += q
		}
		return total == want && mismatches == 0 && first == EvStart && last == EvDone
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("accounting probe never fired")
	}
	if mismatches > 0 {
		t.Fatalf("O(1) accounting diverged from the full scan %d of %d times", mismatches, events)
	}
}
