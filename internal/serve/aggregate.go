package serve

import (
	"fmt"
	"unsafe"

	"churnlb/internal/mc"
	"churnlb/internal/metrics"
	"churnlb/internal/policy"
	"churnlb/internal/stats"
	"churnlb/internal/xrand"
)

// Pooled aggregates a RunManyPooled sweep: per-replication summary
// statistics folded in replication order, plus the pooled latency sketches
// and the exact pooled fairness tally. It is the single aggregation path
// shared by the manifest runner, the public churnlb.ServeMany and the
// experiment harness's serve experiment, so a manifest replay cannot drift
// from the CLI that wrote it.
type Pooled struct {
	// Reps is the number of replications run; N the number that completed
	// at least one task (the latency sample count — an empty realisation
	// has no percentile).
	Reps, N int
	// P50, P99, Throughput, Availability and InFlight summarise the
	// per-replication whole-run values. Throughput, Availability and
	// InFlight fold in every replication; P50 and P99 skip empty ones.
	P50, P99, Throughput, Availability, InFlight stats.Summary
	// Latency is the pairwise merge, in replication order, of every
	// replication's P² sketches — the pooled task population's
	// percentiles, bit-identical for any worker count.
	Latency metrics.LatencySketch
	// Fairness is the elementwise sum of every replication's per-node
	// completed-work tally; its Jain() is the pooled fairness index.
	Fairness metrics.Fairness
}

// repStats is what RunManyPooled keeps of one replication until it folds
// them: the summary scalars, the latency sketches and the fairness tally;
// the full Result (windows, per-node counters) is released as it is
// visited.
type repStats struct {
	completed                    int
	p50, p99, thr, avail, flight float64
	latency                      metrics.LatencySketch
	fairness                     metrics.Fairness
}

// PooledRepBytes is what RunManyPooled keeps per replication of an n-node
// run before it folds them: its repStats, the three P² sketches they
// point to, the n-count fairness tally and the sketch's slot in the
// pooling merge. Replications times this is what mc.Options.Check budgets.
func PooledRepBytes(n int) int {
	return int(unsafe.Sizeof(repStats{})+3*unsafe.Sizeof(metrics.P2{})+unsafe.Sizeof(metrics.LatencySketch{})) + 8*max(n, 0)
}

// RunManyPooled executes reps independent realisations of opt in parallel
// on the mc worker pool (workers caps the goroutines; 0 = GOMAXPROCS),
// replication rep reseeded with xrand.MixSeed(opt.Seed, rep) — exactly the
// seeds a serial loop over Run would use — and folds them, in replication
// order, into a Pooled aggregate, bit-identical for any worker count. Each
// replication's Result is released once its repStats are taken. The
// first replication error (by index) aborts the sweep. It refuses, before
// it allocates per replication, a sweep that mc.Options.Check refuses at
// PooledRepBytes per replication, and options that set a Tracer or a
// Sim.Interrupt: single-run hooks, through which concurrent replications
// would interleave or race on one cut.
func RunManyPooled(opt Options, reps, workers int) (*Pooled, error) {
	if reps <= 0 {
		return nil, fmt.Errorf("serve: RunManyPooled needs positive reps, got %d", reps)
	}
	if opt.Tracer != nil || opt.Sim.Interrupt != nil {
		return nil, fmt.Errorf("serve: RunManyPooled takes no Tracer or Sim.Interrupt (single-run hooks)")
	}
	mo := mc.Options{Reps: reps, Workers: workers}
	if err := mo.Check(PooledRepBytes(opt.Sim.Params.N())); err != nil {
		return nil, err
	}
	// The eq.-(8) plan depends only on Params: build it once (unless opt
	// brings one) and share the immutable result across all replications
	// (and workers) instead of rebuilding O(n log n) per rep.
	if opt.Sim.FailurePlan == nil {
		opt.Sim.FailurePlan = policy.PlanFor(opt.Sim.Policy, opt.Sim.Params)
	}
	perRep := make([]repStats, reps)
	err := mc.ForEach(mo, func(rep int) error {
		o := opt
		o.Seed = xrand.MixSeed(opt.Seed, rep)
		run, err := Run(o)
		if err != nil {
			return err
		}
		perRep[rep] = repStats{
			completed: run.Summary.Completed,
			p50:       run.Summary.P50,
			p99:       run.Summary.P99,
			thr:       run.Summary.Throughput,
			avail:     run.Summary.Availability,
			flight:    run.Summary.InFlight,
			latency:   run.Latency,
			fairness:  run.Fairness,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	agg := &Pooled{Reps: reps}
	var p50, p99, thr, avail, flight stats.Welford
	sketches := make([]metrics.LatencySketch, reps)
	for rep, r := range perRep {
		sketches[rep] = r.latency
		thr.Add(r.thr)
		avail.Add(r.avail)
		flight.Add(r.flight)
		agg.Fairness.Merge(r.fairness)
		if r.completed == 0 {
			continue // an empty realisation has no latency sample
		}
		p50.Add(r.p50)
		p99.Add(r.p99)
	}
	agg.N = p50.N()
	agg.P50 = p50.Summary()
	agg.P99 = p99.Summary()
	agg.Throughput = thr.Summary()
	agg.Availability = avail.Summary()
	agg.InFlight = flight.Summary()
	agg.Latency = PoolLatency(sketches)
	return agg, nil
}

// PoolLatency merges per-replication latency sketches pairwise —
// adjacent pairs per round, in replication order, so the result does not
// depend on which workers produced them. The input sketches are consumed.
func PoolLatency(ls []metrics.LatencySketch) metrics.LatencySketch {
	for len(ls) > 1 {
		half := 0
		for i := 0; i+1 < len(ls); i += 2 {
			ls[i].Merge(ls[i+1])
			ls[half] = ls[i]
			half++
		}
		if len(ls)%2 == 1 {
			ls[half] = ls[len(ls)-1]
			half++
		}
		ls = ls[:half]
	}
	return ls[0]
}
