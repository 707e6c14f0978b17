// Package e2e holds the benchmark's four gated workloads and the sampler
// that turns them into the end-to-end metrics. It imports only the pinned
// surface listed in bench/README.md, so a refactor inside the program
// cannot break the gated numbers without also breaking that list.
package e2e

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"time"

	"churnlb"
	"churnlb/internal/daemon"
	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/scenario"
	"churnlb/internal/sim"
)

// Outcome is what one replay of a block did.
type Outcome struct {
	// Tasks is the number of tasks the block attempted; Failed counts
	// those in realisations (or daemon lifetimes) that broke conservation.
	Tasks, Failed int
	// Fingerprint hashes the simulated statistics of every realisation in
	// the block; 0 for the live workload, whose statistics are wall-clock.
	Fingerprint uint64
}

// Block is one workload's generated inputs. Every Run replays the same
// inputs, so all samples of a benchmark run do identical simulated work.
type Block interface {
	Run(sp *Spans) (Outcome, error)
}

// Spec generates a block from a seed; the program only ever sees the
// generated inputs. The seed picks the random streams — the block's
// realisation seed list, the daemon's seed — while the cluster is a
// constant of the workload (ClusterSeed).
type Spec interface {
	New(seed uint64, sp *Spans) (Block, error)
}

// Workload is one named row of the benchmark.
type Workload struct {
	Name, Why string
	// Samples is the number of timed replays each of a run's Parts
	// processes makes in a run of NominalSeconds, sized so the timed parts
	// together last about that long on a 2-core 2.1 GHz Xeon. A constant
	// of the workload, never a wall-clock budget.
	Samples int
	Spec    Spec
}

// ClusterSeed generates every workload's cluster scenario.
const ClusterSeed = 1

// NominalSeconds is the run length Workload.Samples is sized for, and
// BENCHMARK.json's run_seconds.
const NominalSeconds = 15

// Parts is the number of processes a gated run is split over, one after
// the other. Each sets up and samples a block of its own (PartSeed), and
// every metric is the median over the parts. One process is not enough:
// the cost level of a process is partly drawn at its start (where its
// pages land in physical memory and so in the shared cache — the same
// seed of closed-scale-1e5 read 248 to 365 ns/task in twenty processes
// while the samples within each agreed to 3 %), and on closed-scale-1e5
// partly by the seed (how often the calendar queue rebuilds at the same
// size: 46 to 90 B/task). A median of five draws tolerates two bad ones.
const Parts = 5

// PartSeed derives the seed of one part's block from the benchmark seed.
func PartSeed(seed uint64, part int) uint64 { return seed*Parts + uint64(part) }

// Set is the typed form of the four workloads, so bench/layers can derive
// probe inputs shaped like the workload each layer serves.
type Set struct {
	Scale, Churn Closed
	Serve        Serve
	Live         Live
	// samples holds the four sample counts in Workloads order.
	samples [4]int
}

// Sizes returns the benchmark's workloads, or the smoke test's toy
// versions of them (10² nodes, one sample, 8 live workers).
func Sizes(toy bool) Set {
	if toy {
		return Set{
			Scale:   Closed{Nodes: 100, Tasks: 10_000, HotNodes: 5, Reps: 1, Queue: churnlb.QueueCalendar, Lazy: true},
			Churn:   Closed{Nodes: 100, Tasks: 2_000, MTBF: 20, MTTR: 2, Reps: 3, Queue: churnlb.QueueCalendar, Lazy: true},
			Serve:   Serve{Nodes: 100, Rate: 500, Horizon: 10, Router: churnlb.RouterSpec{Kind: churnlb.RouterPowerOfD, D: 2}},
			Live:    Live{Workers: 8, Tasks: 2_000},
			samples: [4]int{1, 1, 1, 1},
		}
	}
	return Set{
		Scale:   Closed{Nodes: 100_000, Tasks: 5_000_000, HotNodes: 5, Reps: 1, Queue: churnlb.QueueCalendar, Lazy: true},
		Churn:   Closed{Nodes: 1000, Tasks: 100_000, MTBF: 20, MTTR: 2, Reps: 25, Queue: churnlb.QueueCalendar, Lazy: true},
		Serve:   Serve{Nodes: 10_000, Rate: 50_000, Horizon: 20, Router: churnlb.RouterSpec{Kind: churnlb.RouterPowerOfD, D: 2}},
		Live:    Live{Workers: 64, Tasks: 100_000},
		samples: [4]int{2, 3, 4, 4},
	}
}

// Workloads lists the set in the order BENCHMARK.json names it.
func (s Set) Workloads() []Workload {
	return []Workload{
		{
			Name:    "closed-scale-1e5",
			Why:     "closed system, one 1e5-node 5e6-task realisation: ~2e5 live timers and ~200 MB, so des and the sim handlers run at DRAM-miss cost; no routing, no telemetry, almost no failures",
			Samples: s.samples[0], Spec: s.Scale,
		},
		{
			Name:    "closed-churn-1e3",
			Why:     "closed system under heavy churn (MTBF 20 s, MTTR 2 s), 25 short 1e3-node realisations: the failure path, plan build, per-run allocation and calendar re-arms dominate, which is the paper's subject",
			Samples: s.samples[1], Spec: s.Churn,
		},
		{
			Name:    "serve-pod2-1e4",
			Why:     "open system, Poisson 5e4 tasks/s over 1e4 nodes behind a power-of-2 router: the only sim workload where routing, serve and metrics telemetry run; the closed workloads bypass all three",
			Samples: s.samples[2], Spec: s.Serve,
		},
		{
			Name:    "live-admit-net-64",
			Why:     "live daemon, 64 workers on loopback UDP/TCP, 1e5 arrivals all due at t=0: the fleet outruns the dispatcher, so time per task is the admit, route, wire and enqueue path",
			Samples: s.samples[3], Spec: s.Live,
		},
	}
}

// fingerprint is FNV-1a over the float bits and integer counters fed to it.
type fingerprint struct {
	h   hash.Hash64
	buf [8]byte
}

func newFingerprint() *fingerprint { return &fingerprint{h: fnv.New64a()} }

func (f *fingerprint) u64(v uint64) {
	binary.LittleEndian.PutUint64(f.buf[:], v)
	f.h.Write(f.buf[:])
}

func (f *fingerprint) floats(vs ...float64) {
	for _, v := range vs {
		f.u64(math.Float64bits(v))
	}
}

func (f *fingerprint) ints(vs ...int) {
	for _, v := range vs {
		f.u64(uint64(v))
	}
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// blockSeeds derives the block's fixed realisation seed list from the
// benchmark seed.
func blockSeeds(seed uint64, reps int) []uint64 {
	seeds := make([]uint64, reps)
	for i := range seeds {
		seeds[i] = seed*1_000_003 + uint64(i) + 1
	}
	return seeds
}

func systemOf(p model.Params) churnlb.System {
	sys := churnlb.System{DelayPerTask: p.DelayPerTask, Nodes: make([]churnlb.Node, p.N())}
	for i := range sys.Nodes {
		sys.Nodes[i] = churnlb.Node{ProcRate: p.ProcRate[i], FailRate: p.FailRate[i], RecRate: p.RecRate[i]}
	}
	return sys
}

var lbp2 = churnlb.PolicySpec{Kind: churnlb.PolicyLBP2, K: 1}

// Closed is a closed-system workload: Reps realisations of
// churnlb.Simulate draining a fixed hotspot backlog under LBP-2. Zero
// MTBF/MTTR/HotNodes keep the scenario defaults (200 s, 30 s, Nodes/20).
type Closed struct {
	Nodes, Tasks, HotNodes int
	MTBF, MTTR             float64
	Reps                   int
	Queue                  churnlb.EventQueue
	Lazy                   bool
}

type closedBlock struct {
	sys   churnlb.System
	load  []int
	total int
	seeds []uint64
	opt   churnlb.SimOptions
}

// New implements Spec.
func (c Closed) New(seed uint64, sp *Spans) (Block, error) {
	end := sp.Begin("generate")
	sc, err := scenario.Generate(scenario.Spec{
		Kind: scenario.Hotspot, N: c.Nodes, TotalLoad: c.Tasks, Seed: ClusterSeed,
		MTBF: c.MTBF, MTTR: c.MTTR, HotspotNodes: c.HotNodes,
	})
	end()
	if err != nil {
		return nil, err
	}
	defer sp.Begin("build")()
	return &closedBlock{
		sys:   systemOf(sc.Params),
		load:  sc.InitialLoad,
		total: c.Tasks,
		seeds: blockSeeds(seed, c.Reps),
		opt:   churnlb.SimOptions{EventQueue: c.Queue, LazyChurn: c.Lazy},
	}, nil
}

func (b *closedBlock) Run(sp *Spans) (Outcome, error) {
	var out Outcome
	fp := newFingerprint()
	for _, seed := range b.seeds {
		end := sp.Begin("realisation")
		res, err := churnlb.Simulate(b.sys, lbp2, b.load, seed, b.opt)
		end()
		if err != nil {
			return Outcome{}, err
		}
		out.Tasks += b.total
		if sum(res.Processed) != b.total {
			out.Failed += b.total
		}
		fp.floats(res.CompletionTime)
		fp.ints(res.Failures, res.Recoveries, res.TransfersSent, res.TasksTransferred)
		fp.ints(res.Processed...)
	}
	out.Fingerprint = fp.h.Sum64()
	return out, nil
}

// Serve is the open-system workload: one churnlb.Serve realisation of a
// Poisson stream routed over a generated hotspot cluster with LBP-2
// failure compensation and full telemetry, on the calendar queue.
type Serve struct {
	Nodes         int
	Rate, Horizon float64
	Router        churnlb.RouterSpec
	// TraceDecisions attaches the decision tracer (probe use only).
	TraceDecisions bool
}

// Generate expands the workload's cluster scenario.
func (s Serve) Generate() (*scenario.Scenario, error) {
	return scenario.Generate(scenario.Spec{Kind: scenario.Hotspot, N: s.Nodes, TotalLoad: 0, Seed: ClusterSeed})
}

// Options returns the serving options every realisation of the workload
// runs with.
func (s Serve) Options() churnlb.ServeOptions {
	return churnlb.ServeOptions{
		Rate: s.Rate, Horizon: s.Horizon, Window: 1,
		EventQueue: churnlb.QueueCalendar, TraceDecisions: s.TraceDecisions,
	}
}

type serveBlock struct {
	sys    churnlb.System
	router churnlb.RouterSpec
	seed   uint64
	opt    churnlb.ServeOptions
}

// New implements Spec.
func (s Serve) New(seed uint64, sp *Spans) (Block, error) {
	end := sp.Begin("generate")
	sc, err := s.Generate()
	end()
	if err != nil {
		return nil, err
	}
	defer sp.Begin("build")()
	return &serveBlock{sys: systemOf(sc.Params), router: s.Router, seed: blockSeeds(seed, 1)[0], opt: s.Options()}, nil
}

func (b *serveBlock) Run(sp *Spans) (Outcome, error) {
	end := sp.Begin("realisation")
	res, err := churnlb.Serve(b.sys, lbp2, b.router, b.seed, b.opt)
	end()
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{Tasks: res.Arrived}
	if res.Completed != res.Arrived || res.Arrived == 0 {
		out.Failed = max(res.Arrived, 1)
	}
	fp := newFingerprint()
	fp.floats(res.Duration, res.P50, res.P90, res.P99)
	fp.ints(res.Arrived, res.Completed, res.Failures, res.Recoveries, res.TransfersSent, res.TasksTransferred)
	out.Fingerprint = fp.h.Sum64()
	return out, nil
}

// Live is the live-daemon workload: one daemon.Run lifetime admitting
// Tasks single-task arrivals, all due at t = 0, into Workers churn-free
// workers behind a power-of-2 router. Service is Exp(1000/s) at
// TimeScale 1000, i.e. about the timer floor, so the fleet absorbs
// several times what the dispatcher can admit and the lifetime is spent
// on the admit → route → wire → enqueue path. The generator is the
// daemon's own trace goroutine: zero client connections.
type Live struct {
	Workers, Tasks int
}

// Options generates the daemon inputs: fleet parameters and the arrival
// trace. Transport is left nil, which binds real loopback sockets.
func (l Live) Options(seed uint64) daemon.Options {
	p := model.Params{
		ProcRate: make([]float64, l.Workers),
		FailRate: make([]float64, l.Workers),
		RecRate:  make([]float64, l.Workers),
	}
	for i := range p.ProcRate {
		p.ProcRate[i] = 1000
	}
	return daemon.Options{
		Params:        p,
		Router:        policy.PowerOfD{D: 2},
		Trace:         make([]sim.ArrivalAt, l.Tasks),
		TimeScale:     1000,
		StateInterval: 100,
		Seed:          seed,
		MaxWall:       time.Minute,
	}
}

type liveBlock struct{ opt daemon.Options }

// New implements Spec.
func (l Live) New(seed uint64, sp *Spans) (Block, error) {
	defer sp.Begin("generate")()
	return &liveBlock{opt: l.Options(seed)}, nil
}

func (b *liveBlock) Run(sp *Spans) (Outcome, error) {
	defer sp.Begin("lifetime")()
	out, _, err := RunLive(b.opt)
	return out, err
}

// RunLive runs one daemon lifetime and checks that every trace arrival
// was admitted, executed exactly once and decoded cleanly.
func RunLive(opt daemon.Options) (Outcome, *daemon.Result, error) {
	res, err := daemon.Run(opt)
	if err != nil {
		return Outcome{}, nil, fmt.Errorf("daemon: %w", err)
	}
	out := Outcome{Tasks: len(opt.Trace)}
	if sum(res.Processed) != res.Injected || res.Injected != len(opt.Trace) || res.DecodeErrors != 0 {
		out.Failed = max(out.Tasks, 1)
	}
	return out, res, nil
}
