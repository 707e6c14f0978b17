package daemon

import (
	"encoding/binary"
	"math"
	"testing"

	"churnlb/internal/cluster"
	"churnlb/internal/model"
	"churnlb/internal/sim"
)

// fuzzTrace decodes up to 16 entries of 16 bytes each — a float64 time's
// bits and a batch — and repeats them reps times, to at most 4096 entries.
func fuzzTrace(b []byte, reps uint16) []sim.ArrivalAt {
	var one []sim.ArrivalAt
	for ; len(b) >= 16 && len(one) < 16; b = b[16:] {
		one = append(one, sim.ArrivalAt{
			Time:  math.Float64frombits(binary.LittleEndian.Uint64(b)),
			Batch: int(int64(binary.LittleEndian.Uint64(b[8:]))),
		})
	}
	var trace []sim.ArrivalAt
	for r := 0; r <= int(reps) && len(one) > 0 && len(trace)+len(one) <= 4096; r++ {
		trace = append(trace, one...)
	}
	return trace
}

// fuzzLoad decodes 8-byte loads: none is nil, more than n are used as
// they are (a ragged backlog), fewer are cycled over the n workers.
func fuzzLoad(b []byte, n int) []int {
	var vals []int
	for ; len(b) >= 8; b = b[8:] {
		vals = append(vals, int(int64(binary.LittleEndian.Uint64(b))))
	}
	if len(vals) == 0 || len(vals) > n {
		return vals
	}
	load := make([]int, n)
	for i := range load {
		load[i] = vals[i%len(vals)]
	}
	return load
}

func u64s(vs ...int64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

func entry(t float64, batch int64) []byte {
	return append(binary.LittleEndian.AppendUint64(nil, math.Float64bits(t)), u64s(batch)...)
}

// FuzzDaemonOptions holds validation and newRun to an error or a run for
// any options — never a panic — at work and memory bounded by the caps:
// nothing is minted and no socket is bound (the run gets a ChanTransport
// and is never served). What newRun accepts is also checked against the
// caps it enforces.
func FuzzDaemonOptions(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	type seed struct {
		nodes                    uint16
		proc, fail, rec, delay   float64
		load, trace              []byte
		reps                     uint16
		timeScale, state, window float64
		batch                    int64
	}
	for _, s := range []seed{
		// A valid open run and a valid closed one.
		{nodes: 2, proc: 20, rec: 1, delay: 0.01, trace: entry(0, 1), reps: 3},
		{nodes: 2, proc: 20, fail: 0.1, rec: 1, load: u64s(100, 60), timeScale: 4000},
		// TestNonFiniteOptionsRejected.
		{nodes: 2, proc: 20, rec: 1, trace: entry(0, 0), reps: 3, timeScale: nan},
		{nodes: 2, proc: 20, rec: 1, trace: entry(0, 0), reps: 3, timeScale: inf},
		{nodes: 2, proc: 20, rec: 1, trace: entry(0, 0), reps: 3, state: -inf},
		{nodes: 2, proc: 20, rec: 1, trace: entry(0, 0), reps: 3, state: nan},
		{nodes: 2, proc: 20, rec: 1, trace: entry(0, 0), reps: 3, window: nan},
		{nodes: 2, proc: 20, rec: 1, trace: entry(0, 0), reps: 3, window: -1},
		// TestRunRejectsBadConfig: a ragged backlog, a negative rate, a
		// negative load.
		{nodes: 2, proc: 20, rec: 1, load: u64s(10, 10, 10)},
		{nodes: 2, proc: -1, rec: 1, load: u64s(10, 10)},
		{nodes: 2, proc: 20, rec: 1, load: u64s(-5, 3)},
		// The budget reproducers: a backlog, one batch, and a trace whose
		// total passes the int32 counters.
		{nodes: 2, proc: 20, rec: 1, load: u64s(1<<40, 0)},
		{nodes: 2, proc: 20, rec: 1, trace: entry(0, 1<<40)},
		{nodes: 2, proc: 20, rec: 1, trace: entry(0, MaxBacklog), reps: 2048},
		{nodes: 2, proc: 20, rec: 1, trace: entry(0, 0), batch: 1 << 40},
		// Odd times and the fleet cap.
		{nodes: 3, proc: 20, rec: 1, trace: append(entry(inf, 1), entry(nan, 1)...)},
		{nodes: MaxWorkers + 1, proc: 20, rec: 1, trace: entry(0, 1)},
	} {
		f.Add(s.nodes, s.proc, s.fail, s.rec, s.delay, s.load, s.trace, s.reps, s.timeScale, s.state, s.window, s.batch)
	}
	f.Fuzz(func(t *testing.T, nodes uint16, proc, fail, rec, delay float64, load, trace []byte, reps uint16,
		timeScale, state, window float64, batch int64) {
		n := int(nodes % (MaxWorkers + 2))
		p := model.Params{ProcRate: make([]float64, n), FailRate: make([]float64, n), RecRate: make([]float64, n), DelayPerTask: delay}
		for i := 0; i < n; i++ {
			p.ProcRate[i], p.FailRate[i], p.RecRate[i] = proc, fail, rec
		}
		opt := Options{
			Params:        p,
			InitialLoad:   fuzzLoad(load, n),
			Trace:         fuzzTrace(trace, reps),
			Batch:         int(batch),
			TimeScale:     timeScale,
			StateInterval: state,
			Window:        window,
			Transport:     cluster.NewChanTransport(min(n, MaxWorkers) + 1),
		}
		c, err := newRun(opt)
		if err != nil {
			return
		}
		if !(c.opt.TimeScale > 0) || math.IsInf(c.opt.TimeScale, 0) || !(c.opt.StateInterval > 0) || math.IsInf(c.opt.StateInterval, 0) {
			t.Fatalf("accepted TimeScale %v StateInterval %v", c.opt.TimeScale, c.opt.StateInterval)
		}
		backlog, total := 0, 0
		for _, q := range c.opt.InitialLoad {
			backlog += q
		}
		total = backlog
		for _, a := range c.opt.Trace {
			b := a.Batch
			if b <= 0 {
				b = c.opt.Batch
			}
			if b < 1 || b > MaxBacklog {
				t.Fatalf("accepted an arrival of %d tasks", b)
			}
			total += b
		}
		if backlog > MaxBacklog || total > math.MaxInt32 {
			t.Fatalf("accepted a backlog of %d and %d tasks in all", backlog, total)
		}
	})
}
