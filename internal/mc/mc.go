// Package mc runs Monte-Carlo replications in parallel. Every replication
// draws its randomness from an independent stream derived from (seed,
// replication index), so an estimate is bit-identical no matter how many
// worker goroutines execute it — determinism under parallelism is what
// makes the reproduction's numbers stable across machines.
package mc

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"churnlb/internal/stats"
	"churnlb/internal/xrand"
)

// Replication computes one sample given its private random stream.
type Replication func(r *xrand.Rand, rep int) (float64, error)

// Estimate aggregates replication outputs.
type Estimate struct {
	stats.Summary
	// Samples holds the per-replication values in replication order.
	Samples []float64
}

// Options configures a Monte-Carlo run.
type Options struct {
	// Reps is the number of replications (must be positive).
	Reps int
	// Workers caps the worker goroutines; 0 means GOMAXPROCS.
	Workers int
	// Seed is the root seed; replication i uses stream (Seed, i).
	Seed uint64
}

// ForEach runs fn for every replication index 0..Reps-1 on the worker
// pool and returns the lowest-indexed error, if any. It is the raw
// parallel-for underneath Run, exported for callers whose replications
// produce more than one scalar (the serving layer collects whole metric
// summaries per replication): fn writes into rep-indexed storage, so the
// aggregate is bit-identical no matter how many workers executed it.
// Unlike Run, fn derives its own randomness (opt.Seed is unused here).
func ForEach(opt Options, fn func(rep int) error) error {
	if opt.Reps <= 0 {
		return fmt.Errorf("mc: Reps must be positive, got %d", opt.Reps)
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > opt.Reps {
		workers = opt.Reps
	}

	errs := make([]error, opt.Reps)
	// Replications are claimed off a lock-free counter: short replications
	// (large clusters make them seconds, the paper's two nodes make them
	// microseconds) would otherwise serialise on a mutex. Determinism is
	// untouched — every result is keyed by its replication index, not by
	// which worker ran it.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				rep := int(next.Add(1)) - 1
				if rep >= opt.Reps {
					return
				}
				errs[rep] = fn(rep)
			}
		}()
	}
	wg.Wait()
	for rep, err := range errs {
		if err != nil {
			return fmt.Errorf("mc: replication %d: %w", rep, err)
		}
	}
	return nil
}

// Run executes f for every replication and aggregates the samples.
// The first replication error aborts the run.
func Run(opt Options, f Replication) (Estimate, error) {
	if opt.Reps <= 0 {
		return Estimate{}, fmt.Errorf("mc: Reps must be positive, got %d", opt.Reps)
	}
	samples := make([]float64, opt.Reps)
	err := ForEach(opt, func(rep int) error {
		rng := xrand.NewStream(opt.Seed, uint64(rep))
		v, err := f(rng, rep)
		samples[rep] = v
		return err
	})
	if err != nil {
		return Estimate{}, err
	}
	return Estimate{Summary: stats.Summarize(samples), Samples: samples}, nil
}
