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

// Spec describes a cluster scenario to generate. Zero-valued tuning
// fields take the documented defaults, so Spec{Kind: Hotspot, N: 100,
// TotalLoad: 10000, Seed: 1} is a complete specification.
type Spec struct {
	// Kind selects the scenario family.
	Kind Kind
	// N is the number of nodes (required, positive).
	N int
	// TotalLoad is the total number of tasks. For FlashCrowd it is the
	// expected total: part queued at t = 0, the rest arriving as a
	// Poisson burst.
	TotalLoad int
	// Seed drives every generation draw; equal specs generate equal
	// scenarios.
	Seed uint64

	// MeanProcRate is the average per-node processing rate λd in tasks/s
	// (default 1.5, the paper's two nodes averaged).
	MeanProcRate float64
	// Heterogeneity is the relative spread of processing rates: rates are
	// lognormal with this coefficient of variation (default 0.3; 0 makes
	// every node identical).
	Heterogeneity float64
	// MTBF and MTTR are the mean time between failures and mean time to
	// recovery in seconds (defaults 200 and 30).
	MTBF, MTTR float64
	// DelayPerTask is the mean transfer delay per task δ (default 0.02).
	DelayPerTask float64

	// HotspotNodes is the number of hot nodes (default max(1, N/20));
	// HotspotFraction the share of the load they start with (default 0.8).
	// Hotspot scenarios only.
	HotspotNodes    int
	HotspotFraction float64

	// Groups is the number of failure domains (default min(10, N)); the
	// first domain starts down. CorrelatedFailure scenarios only.
	Groups int

	// BurstWindow is the arrival window in seconds (default 30) and
	// QueuedFraction the share of TotalLoad queued at t = 0 (default
	// 0.2). FlashCrowd and Diurnal scenarios.
	BurstWindow    float64
	QueuedFraction float64

	// WavePeriod is the length of one diurnal cycle in seconds (default
	// 60), WaveAmplitude the relative swing of the arrival rate around
	// its mean in [0, 1] (default 0.8), and WaveCycles the number of
	// cycles arrivals span (default 2). Diurnal scenarios only.
	WavePeriod    float64
	WaveAmplitude float64
	WaveCycles    int
}

// withDefaults fills zero tuning fields.
func (sp Spec) withDefaults() Spec {
	if sp.MeanProcRate == 0 {
		sp.MeanProcRate = 1.5
	}
	if sp.Heterogeneity == 0 {
		sp.Heterogeneity = 0.3
	}
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
		sp.HotspotNodes = sp.N / 20
		if sp.HotspotNodes < 1 {
			sp.HotspotNodes = 1
		}
	}
	if sp.HotspotFraction == 0 {
		sp.HotspotFraction = 0.8
	}
	if sp.Groups == 0 {
		sp.Groups = 10
		if sp.Groups > sp.N {
			sp.Groups = sp.N
		}
	}
	if sp.BurstWindow == 0 {
		sp.BurstWindow = 30
	}
	if sp.QueuedFraction == 0 {
		sp.QueuedFraction = 0.2
	}
	if sp.WavePeriod == 0 {
		sp.WavePeriod = 60
	}
	if sp.WaveAmplitude == 0 {
		sp.WaveAmplitude = 0.8
	}
	if sp.WaveCycles == 0 {
		sp.WaveCycles = 2
	}
	return sp
}

func (sp Spec) validate() error {
	if sp.N <= 0 {
		return fmt.Errorf("scenario: N = %d must be positive", sp.N)
	}
	if sp.TotalLoad < 0 {
		return fmt.Errorf("scenario: TotalLoad = %d must be non-negative", sp.TotalLoad)
	}
	if sp.HotspotNodes < 0 || sp.HotspotNodes > sp.N {
		return fmt.Errorf("scenario: HotspotNodes = %d out of range for N = %d", sp.HotspotNodes, sp.N)
	}
	if sp.HotspotFraction < 0 || sp.HotspotFraction > 1 {
		return fmt.Errorf("scenario: HotspotFraction = %v must be in [0,1]", sp.HotspotFraction)
	}
	if sp.QueuedFraction < 0 || sp.QueuedFraction > 1 {
		return fmt.Errorf("scenario: QueuedFraction = %v must be in [0,1]", sp.QueuedFraction)
	}
	if sp.Groups < 1 || sp.Groups > sp.N {
		return fmt.Errorf("scenario: Groups = %d out of range for N = %d", sp.Groups, sp.N)
	}
	if sp.WaveAmplitude < 0 || sp.WaveAmplitude > 1 {
		return fmt.Errorf("scenario: WaveAmplitude = %v must be in [0,1]", sp.WaveAmplitude)
	}
	if sp.WavePeriod <= 0 || sp.WaveCycles < 1 {
		return fmt.Errorf("scenario: wave needs positive WavePeriod and WaveCycles, got %v, %d",
			sp.WavePeriod, sp.WaveCycles)
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
		sc.Params.ProcRate[i] = lognormal(rng, sp.MeanProcRate, sp.Heterogeneity)
		// Churn rates get mild (±50%) node-to-node jitter around the
		// cluster means.
		sc.Params.FailRate[i] = jitter(rng, 1/sp.MTBF)
		sc.Params.RecRate[i] = jitter(rng, 1/sp.MTTR)
		sc.InitialUp[i] = true
	}

	switch sp.Kind {
	case Uniform:
		spread(sc.InitialLoad, sp.TotalLoad, 0, n)

	case Hotspot:
		hot := int(math.Round(sp.HotspotFraction * float64(sp.TotalLoad)))
		if sp.HotspotNodes == n {
			hot = sp.TotalLoad // no cold nodes to take the remainder
		}
		spread(sc.InitialLoad, hot, 0, sp.HotspotNodes)
		rest := make([]int, n-sp.HotspotNodes)
		spread(rest, sp.TotalLoad-hot, 0, len(rest))
		copy(sc.InitialLoad[sp.HotspotNodes:], rest)

	case CorrelatedFailure:
		spread(sc.InitialLoad, sp.TotalLoad, 0, n)
		sc.Group = make([]int, n)
		for i := 0; i < n; i++ {
			g := i * sp.Groups / n
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

	case FlashCrowd:
		queued := int(math.Round(sp.QueuedFraction * float64(sp.TotalLoad)))
		spread(sc.InitialLoad, queued, 0, n)
		burst := sp.TotalLoad - queued
		if burst > 0 {
			// Deliver the burst as ~200 batches (at least 1 task each)
			// across the window, so arrival events stay cheap even for
			// very large workloads.
			batch := burst / 200
			if batch < 1 {
				batch = 1
			}
			sc.ArrivalBatch = batch
			sc.ArrivalRate = float64(burst) / float64(batch) / sp.BurstWindow
			sc.ArrivalHorizon = sp.BurstWindow
		}

	case Diurnal:
		queued := int(math.Round(sp.QueuedFraction * float64(sp.TotalLoad)))
		spread(sc.InitialLoad, queued, 0, n)
		arriving := sp.TotalLoad - queued
		if arriving > 0 {
			horizon := sp.WavePeriod * float64(sp.WaveCycles)
			// ~400 batches across the horizon keep arrival events cheap
			// for very large workloads while sampling the wave densely.
			batch := arriving / 400
			if batch < 1 {
				batch = 1
			}
			sc.ArrivalBatch = batch
			sc.ArrivalRate = float64(arriving) / float64(batch) / horizon
			sc.ArrivalHorizon = horizon
			sc.WaveAmplitude = sp.WaveAmplitude
			sc.WavePeriod = sp.WavePeriod
		}

	default:
		return nil, fmt.Errorf("scenario: unknown kind %d", int(sp.Kind))
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

// spread distributes total tasks evenly over dst[from:to], pushing the
// remainder onto the first nodes.
func spread(dst []int, total, from, to int) {
	if to <= from {
		return
	}
	n := to - from
	base, rem := total/n, total%n
	for i := from; i < to; i++ {
		dst[i] = base
		if i-from < rem {
			dst[i]++
		}
	}
}

// lognormal draws a positive rate with the given mean and coefficient of
// variation, clamped to [mean/10, 10·mean] so no generated node is
// degenerate.
func lognormal(rng *xrand.Rand, mean, cv float64) float64 {
	if cv <= 0 {
		return mean
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	v := math.Exp(mu + math.Sqrt(sigma2)*rng.Normal())
	return math.Min(math.Max(v, mean/10), mean*10)
}

// jitter scales a rate by a uniform factor in [0.5, 1.5).
func jitter(rng *xrand.Rand, rate float64) float64 {
	return rate * (0.5 + rng.Float64())
}
