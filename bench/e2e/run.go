package e2e

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// Prepared is a workload after set-up: inputs generated, program inputs
// built, and one untimed warm-up replay finished (heap grown, failure
// plan and calendar sized, sockets bound once).
type Prepared struct {
	Block Block
	// SetupSeconds is how long the set-up took.
	SetupSeconds float64
	// Warm is the warm-up replay's outcome: the reference every timed
	// sample's fingerprint is compared with.
	Warm Outcome
}

// Setup runs the workload's set-up: generate, build and one untimed
// warm-up replay.
func Setup(w Workload, seed uint64, sp *Spans) (*Prepared, error) {
	started := time.Now()
	end := sp.Begin("setup")
	defer end()
	block, err := w.Spec.New(seed, sp)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	endWarm := sp.Begin("warm-up")
	out, err := block.Run(nil)
	endWarm()
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.Name, err)
	}
	return &Prepared{Block: block, SetupSeconds: time.Since(started).Seconds(), Warm: out}, nil
}

// Samples is the raw material of the end-to-end metrics: what a series of
// timed replays of one block cost.
type Samples struct {
	// NsPerTask holds each sample's host wall time divided by the tasks
	// it completed, in sample order.
	NsPerTask []float64
	// Tasks and Failed total the tasks attempted and failed. A sample
	// whose fingerprint differs from the warm-up's fails all its tasks.
	Tasks, Failed int
	// Wall and CPU total the samples' wall time and process CPU time
	// (user + system, all threads).
	Wall, CPU time.Duration
	// AllocBytes, Mallocs and GCCycles are runtime.MemStats deltas summed
	// over the samples (the forced collections between samples excluded).
	AllocBytes, Mallocs uint64
	GCCycles            uint32
	// Mismatches counts samples whose fingerprint differed.
	Mismatches int
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Sample replays the block n times, timing each replay, with an untimed
// runtime.GC() before each. It stops early — never before one sample —
// once the timed total passes deadline: this host runs up to 1.8x slower
// for minutes at a time, and a driver's total time limit does not. The
// metrics are per task and a minimum, so a shorter series estimates the
// same quantities.
func (p *Prepared) Sample(n int, deadline time.Duration, sp *Spans) (Samples, error) {
	var s Samples
	var before, after runtime.MemStats
	for i := 0; i < n; i++ {
		if i >= 1 && s.Wall > deadline {
			break
		}
		runtime.GC()
		runtime.ReadMemStats(&before)
		end := sp.Begin("sample")
		cpu0 := cpuTime()
		t0 := time.Now()
		out, err := p.Block.Run(sp)
		wall := time.Since(t0)
		cpu := cpuTime() - cpu0
		end()
		if err != nil {
			return s, fmt.Errorf("sample %d: %w", i, err)
		}
		runtime.ReadMemStats(&after)
		if out.Fingerprint != p.Warm.Fingerprint {
			s.Mismatches++
			out.Failed = max(out.Tasks, 1)
		}
		s.NsPerTask = append(s.NsPerTask, float64(wall.Nanoseconds())/float64(max(out.Tasks, 1)))
		s.Tasks += out.Tasks
		s.Failed += out.Failed
		s.Wall += wall
		s.CPU += cpu
		s.AllocBytes += after.TotalAlloc - before.TotalAlloc
		s.Mallocs += after.Mallocs - before.Mallocs
		s.GCCycles += after.NumGC - before.NumGC
	}
	return s, nil
}

// Quantiles returns the minimum, quartiles and maximum of xs.
func Quantiles(xs []float64) (min, q1, median, q3, max float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return s[0], at(0.25), at(0.5), at(0.75), s[len(s)-1]
}
