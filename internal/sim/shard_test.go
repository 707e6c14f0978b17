package sim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/xrand"
)

// shardTestCluster builds a randomized n-node cluster with churn and
// transfer delays — the same shape the accounting quickchecks use.
func shardTestCluster(rng *xrand.Rand, n int) (model.Params, []int) {
	p := model.Params{
		ProcRate:     make([]float64, n),
		FailRate:     make([]float64, n),
		RecRate:      make([]float64, n),
		DelayPerTask: 0.05,
	}
	load := make([]int, n)
	for i := 0; i < n; i++ {
		p.ProcRate[i] = 0.5 + 2*rng.Float64()
		p.FailRate[i] = 0.2 * rng.Float64()
		p.RecRate[i] = 0.2 + 0.3*rng.Float64()
		load[i] = rng.Intn(40)
	}
	return p, load
}

// shardCases enumerates the option sets the invariance suite sweeps: the
// closed churn-heavy model under every policy family the engine accepts,
// and routed/uniform serving with every router family, waves, batches and
// both transfer modes.
func shardCases(seed uint64) []Options {
	rng := xrand.NewStream(seed, 77)
	var cases []Options

	// Closed model, churn-heavy, plan policy (eq.-(8) cross-domain
	// failure transfers exercise the mailbox path hard).
	p, load := shardTestCluster(rng, 37)
	cases = append(cases, Options{
		Params: p, Policy: policy.LBP2{K: 1}, InitialLoad: load,
	})

	// Closed model, episode-inert policies.
	p, load = shardTestCluster(rng, 23)
	cases = append(cases, Options{
		Params: p, Policy: policy.NoBalance{}, InitialLoad: load,
	})
	p, load = shardTestCluster(rng, 19)
	cases = append(cases, Options{
		Params: p, Policy: policy.LBP1Multi{K: 0.8}, InitialLoad: load,
		TransferMode: TransferPerTask, ChurnLaw: ChurnWeibull,
	})

	// Routed serving: JSQ (indexed router → mirror score index), wave.
	p, load = shardTestCluster(rng, 31)
	cases = append(cases, Options{
		Params: p, Policy: policy.LBP2{K: 1}, InitialLoad: load,
		ArrivalRate: 6, ArrivalBatch: 2, ArrivalHorizon: 18,
		ArrivalWave: Wave{Amplitude: 0.5, Period: 5},
		Router:      policy.JSQ{},
	})

	// Routed serving: PowerOfD (sampling router draws from the front
	// door's stream).
	p, load = shardTestCluster(rng, 29)
	cases = append(cases, Options{
		Params: p, Policy: policy.NoBalance{}, InitialLoad: load,
		ArrivalRate: 4, ArrivalHorizon: 15,
		Router: policy.PowerOfD{D: 2},
	})

	// Uniform serving (no router — no mirror, pure front-door stream).
	p, load = shardTestCluster(rng, 11)
	cases = append(cases, Options{
		Params: p, Policy: policy.LBP2{K: 1}, InitialLoad: load,
		ArrivalRate: 3, ArrivalBatch: 3, ArrivalHorizon: 12,
	})

	return cases
}

func runShardedCase(t *testing.T, opt Options, seed uint64, shards int) *Result {
	t.Helper()
	o := opt
	o.Rand = xrand.New(seed)
	o.Shards = shards
	res, err := RunSharded(o)
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	return res
}

func resultsEqual(a, b *Result) string {
	if math.Float64bits(a.CompletionTime) != math.Float64bits(b.CompletionTime) {
		return fmt.Sprintf("CompletionTime %v != %v", a.CompletionTime, b.CompletionTime)
	}
	if a.Failures != b.Failures || a.Recoveries != b.Recoveries {
		return fmt.Sprintf("churn (%d,%d) != (%d,%d)", a.Failures, a.Recoveries, b.Failures, b.Recoveries)
	}
	if a.TransfersSent != b.TransfersSent || a.TasksTransferred != b.TasksTransferred {
		return fmt.Sprintf("transfers (%d,%d) != (%d,%d)", a.TransfersSent, a.TasksTransferred, b.TransfersSent, b.TasksTransferred)
	}
	if a.ExternalArrivals != b.ExternalArrivals {
		return fmt.Sprintf("arrivals %d != %d", a.ExternalArrivals, b.ExternalArrivals)
	}
	for i := range a.Processed {
		if a.Processed[i] != b.Processed[i] {
			return fmt.Sprintf("Processed[%d] %d != %d", i, a.Processed[i], b.Processed[i])
		}
	}
	return ""
}

// TestShardedShardCountInvariance is the core determinism contract: for
// every case, every tested shard count produces a Result bit-identical to
// the Shards=1 sequential reference (which runs the same engine inline,
// with no worker goroutines).
func TestShardedShardCountInvariance(t *testing.T) {
	for ci, opt := range shardCases(101) {
		ref := runShardedCase(t, opt, 42+uint64(ci), 1)
		total := 0
		for _, c := range ref.Processed {
			total += c
		}
		want := ref.ExternalArrivals
		for _, q := range opt.InitialLoad {
			want += q
		}
		if total != want {
			t.Errorf("case %d: processed %d tasks, workload was %d", ci, total, want)
		}
		for _, shards := range []int{2, 4, 7} {
			if diff := resultsEqual(ref, runShardedCase(t, opt, 42+uint64(ci), shards)); diff != "" {
				t.Errorf("case %d shards=%d: %s", ci, shards, diff)
			}
		}
	}
}

// TestShardedQuick fuzzes the same contract over randomized clusters and
// shard counts: Shards=k always reproduces Shards=1.
func TestShardedQuick(t *testing.T) {
	shardChoices := []int{2, 3, 4, 7, 16}
	f := func(seed uint16, nRaw, polRaw, kRaw uint8) bool {
		rng := xrand.NewStream(uint64(seed), 91)
		n := 2 + int(nRaw)%40
		p, load := shardTestCluster(rng, n)
		var pol policy.Policy
		switch polRaw % 3 {
		case 0:
			pol = policy.NoBalance{}
		case 1:
			pol = policy.LBP1Multi{K: 0.8}
		default:
			pol = policy.LBP2{K: 1}
		}
		opt := Options{Params: p, Policy: pol, InitialLoad: load}
		if polRaw%2 == 0 {
			opt.ArrivalRate, opt.ArrivalBatch, opt.ArrivalHorizon = 0.5, 2, 20
			if polRaw%4 == 0 {
				opt.Router = policy.JSQ{}
			}
		}
		runSeed := uint64(seed)*2654435761 + 7
		a := opt
		a.Rand, a.Shards = xrand.New(runSeed), 1
		b := opt
		b.Rand, b.Shards = xrand.New(runSeed), shardChoices[int(kRaw)%len(shardChoices)]
		ra, err := RunSharded(a)
		if err != nil {
			return false
		}
		rb, err := RunSharded(b)
		if err != nil {
			return false
		}
		return resultsEqual(ra, rb) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// shardObsRecorder records the full observer stream for exact comparison
// across shard counts, asserting the monotone-time contract on the way.
type shardObsRecorder struct {
	t      *testing.T
	events []string
	last   float64
}

func (r *shardObsRecorder) stamp(t float64, s string) {
	if t < r.last {
		r.t.Errorf("observer time went backwards: %v after %v (%s)", t, r.last, s)
	}
	r.last = t
	r.events = append(r.events, s)
}

func (r *shardObsRecorder) TasksArrived(node, count int, t float64) {
	r.stamp(t, fmt.Sprintf("arrive %d %d %x", node, count, math.Float64bits(t)))
}

func (r *shardObsRecorder) TaskCompleted(node int, arrival, firstService, completion float64) {
	r.stamp(completion, fmt.Sprintf("complete %d %x %x %x", node,
		math.Float64bits(arrival), math.Float64bits(firstService), math.Float64bits(completion)))
}

func (r *shardObsRecorder) NodeStateChanged(node int, up bool, t float64) {
	r.stamp(t, fmt.Sprintf("state %d %v %x", node, up, math.Float64bits(t)))
}

func (r *shardObsRecorder) TransferDeparted(from, to, tasks int, t float64) {
	r.stamp(t, fmt.Sprintf("depart %d %d %d %x", from, to, tasks, math.Float64bits(t)))
}

func (r *shardObsRecorder) TransferArrived(to, tasks int, t float64) {
	r.stamp(t, fmt.Sprintf("xfer %d %d %x", to, tasks, math.Float64bits(t)))
}

// TestShardedObserverInvariance pins the merged telemetry stream: every
// shard count delivers the identical event sequence, in monotone time
// order — the property the metrics collector depends on.
func TestShardedObserverInvariance(t *testing.T) {
	p, load := shardTestCluster(xrand.NewStream(5, 13), 21)
	base := Options{
		Params: p, Policy: policy.LBP2{K: 1}, InitialLoad: load,
		ArrivalRate: 4, ArrivalHorizon: 10, Router: policy.JSQ{},
	}
	var ref []string
	for _, shards := range []int{1, 2, 4, 7} {
		rec := &shardObsRecorder{t: t}
		opt := base
		opt.Rand = xrand.New(99)
		opt.Shards = shards
		opt.TaskObserver = rec
		if _, err := RunSharded(opt); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if ref == nil {
			ref = rec.events
			continue
		}
		if len(rec.events) != len(ref) {
			t.Fatalf("shards=%d: %d observer events, reference has %d", shards, len(rec.events), len(ref))
		}
		for i := range ref {
			if rec.events[i] != ref[i] {
				t.Fatalf("shards=%d: event %d = %q, reference %q", shards, i, rec.events[i], ref[i])
			}
		}
	}
}

// TestShardedGating pins the sharded engine's option gates and Start's
// refusal to silently run a sharded option set on the sequential engine.
func TestShardedGating(t *testing.T) {
	p, load := shardTestCluster(xrand.NewStream(3, 17), 8)
	base := Options{Params: p, Policy: policy.NoBalance{}, InitialLoad: load, Shards: 2}

	opt := base
	opt.Rand = xrand.New(1)
	opt.Trace = true
	if _, err := RunSharded(opt); err == nil {
		t.Error("sharded run accepted Trace")
	}

	opt = base
	opt.Rand = xrand.New(1)
	opt.Policy = policy.Dynamic{Base: policy.LBP2{K: 1}}
	if _, err := RunSharded(opt); err == nil {
		t.Error("sharded run accepted an ArrivalBalancer policy")
	}

	opt = base
	opt.Rand = xrand.New(1)
	if _, err := Start(opt); err == nil {
		t.Error("Start accepted Shards > 0")
	}

	opt = base
	opt.Rand = xrand.New(1)
	opt.Shards = 0
	if _, err := StartSharded(opt); err == nil {
		t.Error("StartSharded accepted Shards = 0")
	}

	// Run dispatches on Shards, and the sharded engine accepts the whole
	// shardable policy family.
	for _, pol := range []policy.Policy{policy.NoBalance{}, policy.LBP1Multi{K: 0.8}, policy.LBP2{K: 1}} {
		opt = base
		opt.Rand = xrand.New(1)
		opt.Policy = pol
		if _, err := Run(opt); err != nil {
			t.Errorf("Run with Shards=2 policy %s: %v", pol.Name(), err)
		}
	}
	// LBP1 (two-node by the paper's spec) shards too: both domains of the
	// two-node partition, one node each.
	opt = Options{
		Params: model.PaperBaseline(), Policy: policy.LBP1{K: 0.35, Sender: 0},
		InitialLoad: []int{100, 60}, Rand: xrand.New(1), Shards: 2,
	}
	if _, err := Run(opt); err != nil {
		t.Errorf("Run with Shards=2 policy LBP1: %v", err)
	}
}

// TestShardedWindowOverride pins that ShardWindow is part of the sharded
// semantics: the same window reproduces the same realisation at any
// shard count, and the default window is what a zero override selects.
func TestShardedWindowOverride(t *testing.T) {
	p, load := shardTestCluster(xrand.NewStream(9, 23), 17)
	base := Options{
		Params: p, Policy: policy.LBP2{K: 1}, InitialLoad: load,
		ArrivalRate: 2, ArrivalHorizon: 8, Router: policy.JSQ{},
		ShardWindow: 0.25,
	}
	ref := runShardedCase(t, base, 7, 1)
	for _, shards := range []int{2, 7} {
		if diff := resultsEqual(ref, runShardedCase(t, base, 7, shards)); diff != "" {
			t.Errorf("shards=%d with explicit window: %s", shards, diff)
		}
	}
}
