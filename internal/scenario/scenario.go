// Package scenario generates large heterogeneous cluster scenarios for
// the churn simulator — the bridge between the paper's two-node
// experiments and the production-scale clusters the roadmap targets.
//
// A Spec names a scenario family and its size; Generate expands it
// deterministically (every draw comes from a stream derived from
// Spec.Seed) into concrete node rates, initial queue lengths, initial
// up/down states and external-arrival settings:
//
//   - Uniform: the workload is spread evenly over nodes whose processing
//     and churn rates are drawn around common means;
//   - Hotspot: a small set of nodes starts with most of the workload —
//     the skewed-initial-load regime where balancing matters most;
//   - CorrelatedFailure: nodes belong to failure domains (racks); one
//     domain starts entirely down with its queues frozen, and domain
//     membership scales each node's churn rates, modelling correlated
//     infrastructure failure;
//   - FlashCrowd: a modest initial backlog plus a Poisson arrival burst
//     that delivers the bulk of the workload during a short window;
//   - Diurnal: an open-system serving pattern — arrivals follow a
//     sinusoidal daily wave around a mean rate, the workload the
//     dispatcher routing policies (internal/policy Routers) are judged
//     on.
package scenario

import (
	"fmt"
	"math"

	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/sim"
	"churnlb/internal/xrand"
)

// Kind selects a scenario family.
type Kind int

// Scenario families.
const (
	Uniform Kind = iota
	Hotspot
	CorrelatedFailure
	FlashCrowd
	Diurnal
)

// Kinds lists every scenario family in declaration order.
func Kinds() []Kind {
	return []Kind{Uniform, Hotspot, CorrelatedFailure, FlashCrowd, Diurnal}
}

// String implements fmt.Stringer with the CLI spelling of the kind.
func (k Kind) String() string {
	switch k {
	case Uniform:
		return "uniform"
	case Hotspot:
		return "hotspot"
	case CorrelatedFailure:
		return "correlated"
	case FlashCrowd:
		return "flashcrowd"
	case Diurnal:
		return "diurnal"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind converts a CLI spelling into a Kind.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("scenario: unknown kind %q (want uniform, hotspot, correlated, flashcrowd or diurnal)", s)
}

// Spec describes a cluster scenario to generate. Zero MTBF, MTTR,
// DelayPerTask and HotspotNodes take the documented defaults, so
// Spec{Kind: Hotspot, N: 100, TotalLoad: 10000, Seed: 1} is a complete
// specification. The rest of a family's shape is fixed (the constants
// below and DiurnalWave).
type Spec struct {
	// Kind selects the scenario family.
	Kind Kind
	// N is the number of nodes (required, positive).
	N int
	// TotalLoad is the total number of tasks. For FlashCrowd and Diurnal
	// it is the expected total: part queued at t = 0, the rest arriving
	// as Poisson batches.
	TotalLoad int
	// Seed drives every generation draw; equal specs generate equal
	// scenarios.
	Seed uint64

	// MTBF and MTTR are the mean time between failures and mean time to
	// recovery in seconds (defaults 200 and 30).
	MTBF, MTTR float64
	// DelayPerTask is the mean transfer delay per task δ (default 0.02).
	DelayPerTask float64

	// HotspotNodes is the number of hot nodes (default max(1, N/20)).
	// Hotspot scenarios only.
	HotspotNodes int
}

// The fixed shape of the families.
const (
	// Processing rates are lognormal with mean meanProcRate tasks/s (the
	// paper's two nodes averaged) and coefficient of variation
	// heterogeneity.
	meanProcRate  = 1.5
	heterogeneity = 0.3
	// Hotspot: the hot nodes start with hotspotFraction of the load.
	hotspotFraction = 0.8
	// CorrelatedFailure: nodes fall into min(maxGroups, N) failure
	// domains.
	maxGroups = 10
	// FlashCrowd and Diurnal: queuedFraction of TotalLoad is queued at
	// t = 0 and the rest arrives over burstWindow (FlashCrowd) or
	// diurnalSpan (Diurnal) seconds.
	queuedFraction = 0.2
	burstWindow    = 30
	diurnalSpan    = 120
)

// DiurnalWave is the diurnal arrival wave over a span of arrivals: the
// rate swings 0.8 of its mean either way over two cycles of the span.
func DiurnalWave(span float64) sim.Wave {
	const amplitude, cycles = 0.8, 2
	return sim.Wave{Amplitude: amplitude, Period: span / cycles}
}

// withDefaults fills zero fields.
func (sp Spec) withDefaults() Spec {
	if sp.MTBF == 0 {
		sp.MTBF = 200
	}
	if sp.MTTR == 0 {
		sp.MTTR = 30
	}
	if sp.DelayPerTask == 0 {
		sp.DelayPerTask = 0.02
	}
	if sp.HotspotNodes == 0 {
		sp.HotspotNodes = max(1, sp.N/20)
	}
	return sp
}

// validate checks a Spec after withDefaults. Every float field is checked
// in a form NaN fails (a NaN compares false), so none reaches a rate.
func (sp Spec) validate() error {
	positive := func(x float64) bool { return x > 0 && x <= math.MaxFloat64 }
	for _, f := range [...]struct {
		name string
		v    float64
		ok   bool
		want string
	}{
		{"MTBF", sp.MTBF, positive(sp.MTBF), "positive and finite"},
		{"MTTR", sp.MTTR, positive(sp.MTTR), "positive and finite"},
		{"DelayPerTask", sp.DelayPerTask, sp.DelayPerTask >= 0 && sp.DelayPerTask <= math.MaxFloat64, "non-negative and finite"},
	} {
		if !f.ok {
			return fmt.Errorf("scenario: %s = %v must be %s", f.name, f.v, f.want)
		}
	}
	if sp.N <= 0 || sp.N > sim.MaxNodes {
		return fmt.Errorf("scenario: N = %d must be positive and at most the simulator's %d-node cap", sp.N, sim.MaxNodes)
	}
	if sp.TotalLoad < 0 {
		return fmt.Errorf("scenario: TotalLoad = %d must be non-negative", sp.TotalLoad)
	}
	if sp.HotspotNodes < 0 || sp.HotspotNodes > sp.N {
		return fmt.Errorf("scenario: HotspotNodes = %d out of range for N = %d", sp.HotspotNodes, sp.N)
	}
	return nil
}

// Scenario is a fully expanded cluster scenario, ready to simulate.
type Scenario struct {
	// Name labels the scenario in reports ("hotspot-n100" style).
	Name string
	// Params holds the generated node rates.
	Params model.Params
	// InitialLoad and InitialUp are the t = 0 queue lengths and states.
	InitialLoad []int
	InitialUp   []bool
	// Group maps each node to its failure domain (CorrelatedFailure) or
	// is nil.
	Group []int
	// ArrivalRate, ArrivalBatch and ArrivalHorizon configure the external
	// Poisson arrivals (FlashCrowd, Diurnal) or are zero.
	ArrivalRate    float64
	ArrivalBatch   int
	ArrivalHorizon float64
	// WaveAmplitude and WavePeriod modulate the arrival rate
	// sinusoidally (Diurnal) or are zero.
	WaveAmplitude float64
	WavePeriod    float64
}

// Generate expands a Spec into a concrete Scenario. Generation is
// deterministic in the Spec: the same Spec always yields the same
// Scenario, independent of any simulation randomness.
func Generate(spec Spec) (*Scenario, error) {
	sp := spec.withDefaults()
	if err := sp.validate(); err != nil {
		return nil, err
	}
	rng := xrand.NewStream(sp.Seed, xrand.StreamScenario)
	n := sp.N
	sc := &Scenario{
		Name: fmt.Sprintf("%s-n%d", sp.Kind, n),
		Params: model.Params{
			ProcRate:     make([]float64, n),
			FailRate:     make([]float64, n),
			RecRate:      make([]float64, n),
			DelayPerTask: sp.DelayPerTask,
		},
		InitialLoad: make([]int, n),
		InitialUp:   make([]bool, n),
	}
	for i := 0; i < n; i++ {
		sc.Params.ProcRate[i] = lognormal(rng, meanProcRate, heterogeneity)
		// Churn rates get mild (±50%) node-to-node jitter around the
		// cluster means.
		sc.Params.FailRate[i] = jitter(rng, 1/sp.MTBF)
		sc.Params.RecRate[i] = jitter(rng, 1/sp.MTTR)
		sc.InitialUp[i] = true
	}

	switch sp.Kind {
	case Uniform:
		spread(sc.InitialLoad, sp.TotalLoad)

	case Hotspot:
		hot := int(math.Round(hotspotFraction * float64(sp.TotalLoad)))
		if sp.HotspotNodes == n {
			hot = sp.TotalLoad // no cold nodes to take the remainder
		}
		spread(sc.InitialLoad[:sp.HotspotNodes], hot)
		spread(sc.InitialLoad[sp.HotspotNodes:], sp.TotalLoad-hot)

	case CorrelatedFailure:
		spread(sc.InitialLoad, sp.TotalLoad)
		groups := min(maxGroups, n)
		sc.Group = make([]int, n)
		for i := 0; i < n; i++ {
			g := i * groups / n
			sc.Group[i] = g
			// Domain 0 is the fragile one: an order of magnitude more
			// failure-prone and slower to recover — a rack with a bad
			// switch. Its nodes also start down (the correlated outage),
			// with their queues frozen until recovery.
			if g == 0 {
				sc.Params.FailRate[i] *= 10
				sc.Params.RecRate[i] /= 2
				sc.InitialUp[i] = false
			}
		}

	case FlashCrowd, Diurnal:
		queued := int(math.Round(queuedFraction * float64(sp.TotalLoad)))
		spread(sc.InitialLoad, queued)
		// Deliver the rest as ~200 batches across the burst, or ~400
		// across the diurnal span to sample the wave densely, at least 1
		// task each, so arrival events stay cheap for very large
		// workloads.
		batches, span := 200, float64(burstWindow)
		if sp.Kind == Diurnal {
			batches, span = 400, diurnalSpan
		}
		if arriving := sp.TotalLoad - queued; arriving > 0 {
			sc.ArrivalBatch = max(1, arriving/batches)
			sc.ArrivalRate = float64(arriving) / float64(sc.ArrivalBatch) / span
			sc.ArrivalHorizon = span
			if sp.Kind == Diurnal {
				w := DiurnalWave(span)
				sc.WaveAmplitude, sc.WavePeriod = w.Amplitude, w.Period
			}
		}

	default:
		return nil, fmt.Errorf("scenario: unknown kind %d", int(sp.Kind))
	}
	// Extreme MTBF or MTTR can still overflow a rate (1/MTBF, or the
	// fragile domain's ×10): the simulator would refuse the scenario.
	if err := sc.Params.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return sc, nil
}

// Options assembles sim.Options for one realisation of the scenario under
// the given policy and random stream.
func (sc *Scenario) Options(pol policy.Policy, rng *xrand.Rand) sim.Options {
	return sim.Options{
		Params:         sc.Params,
		Policy:         pol,
		InitialLoad:    sc.InitialLoad,
		InitialUp:      sc.InitialUp,
		Rand:           rng,
		ArrivalRate:    sc.ArrivalRate,
		ArrivalBatch:   sc.ArrivalBatch,
		ArrivalHorizon: sc.ArrivalHorizon,
		ArrivalWave:    sim.Wave{Amplitude: sc.WaveAmplitude, Period: sc.WavePeriod},
	}
}

// TotalQueued returns the number of tasks queued at t = 0.
func (sc *Scenario) TotalQueued() int {
	t := 0
	for _, q := range sc.InitialLoad {
		t += q
	}
	return t
}

// spread distributes total tasks evenly over dst, pushing the remainder
// onto the first nodes.
func spread(dst []int, total int) {
	if len(dst) == 0 {
		return
	}
	base, rem := total/len(dst), total%len(dst)
	for i := range dst {
		dst[i] = base
		if i < rem {
			dst[i]++
		}
	}
}

// lognormal draws a positive rate with the given mean and coefficient of
// variation, clamped to [mean/10, 10·mean] so no generated node is
// degenerate.
func lognormal(rng *xrand.Rand, mean, cv float64) float64 {
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	v := math.Exp(mu + math.Sqrt(sigma2)*rng.Normal())
	return math.Min(math.Max(v, mean/10), mean*10)
}

// jitter scales a rate by a uniform factor in [0.5, 1.5).
func jitter(rng *xrand.Rand, rate float64) float64 {
	return rate * (0.5 + rng.Float64())
}
