package layers

import (
	"fmt"
	"time"

	"churnlb/bench/e2e"
	"churnlb/internal/cluster"
	"churnlb/internal/des"
	"churnlb/internal/mc"
	"churnlb/internal/metrics"
	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/scenario"
	"churnlb/internal/sim"
	"churnlb/internal/workload"
	"churnlb/internal/xrand"

	"churnlb"
)

// Value is one reported per-layer number.
type Value struct {
	Name  string
	Value float64
	Unit  string
}

// sink keeps the compiler from discarding the probed calls.
var sink float64

// prober times probes, one span each; the first error stops the rest.
type prober struct {
	set  e2e.Set
	seed uint64
	toy  bool
	sp   *e2e.Spans
	out  []Value
	err  error
}

func (p *prober) add(name string, v float64, unit string) {
	p.out = append(p.out, Value{name, v, unit})
}

// iters scales a loop count down for the smoke test's toy run.
func (p *prober) iters(n int) int {
	if p.toy {
		return max(n/100, min(n, 10))
	}
	return n
}

// loop times fn(n) three times under one span and returns the fastest
// pass's nanoseconds per iteration.
func (p *prober) loop(name string, n int, fn func(n int)) float64 {
	if p.err != nil {
		return 0
	}
	defer p.sp.Begin("probe:" + name)()
	n = p.iters(n)
	best := 0.0
	for pass := 0; pass < 3; pass++ {
		t0 := time.Now()
		fn(n)
		if ns := float64(time.Since(t0).Nanoseconds()) / float64(n); pass == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// once times one call of fn under a span and returns its nanoseconds
// divided by the unit count fn reports (tasks, nodes).
func (p *prober) once(name string, fn func() (units int, err error)) float64 {
	if p.err != nil {
		return 0
	}
	defer p.sp.Begin("probe:" + name)()
	t0 := time.Now()
	units, err := fn()
	ns := float64(time.Since(t0).Nanoseconds())
	if err != nil {
		p.err = fmt.Errorf("probe %s: %w", name, err)
		return 0
	}
	return ns / float64(max(units, 1))
}

// block replays a freshly generated e2e block reps times and returns the
// fastest replay's nanoseconds per task.
func (p *prober) block(name string, spec e2e.Spec, reps int) float64 {
	if p.err != nil {
		return 0
	}
	b, err := spec.New(p.seed, nil)
	if err != nil {
		p.err = fmt.Errorf("probe %s: %w", name, err)
		return 0
	}
	return p.best(name, reps, func() (int, error) {
		out, err := b.Run(nil)
		if err == nil && out.Failed > 0 {
			err = fmt.Errorf("%d of %d tasks failed", out.Failed, out.Tasks)
		}
		return out.Tasks, err
	})
}

// best is once repeated: the fastest of reps calls.
func (p *prober) best(name string, reps int, fn func() (int, error)) float64 {
	best := 0.0
	for i := 0; i < reps && p.err == nil; i++ {
		if ns := p.once(name, fn); i == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// Probes times every probe of the per-layer table on inputs derived from
// the workload set and returns the values in report order.
func Probes(set e2e.Set, seed uint64, toy bool, sp *e2e.Spans) ([]Value, error) {
	p := &prober{set: set, seed: seed, toy: toy, sp: sp}
	p.des()
	p.xrand()
	p.policy()
	p.metrics()
	p.sim()
	p.replication()
	p.cluster()
	p.daemon()
	return p.out, p.err
}

// hold runs the classic hold model: a standing population of pending
// indexed events, each firing re-arming itself after a delay from a
// precomputed table (so no rng cost is timed).
func (p *prober) hold(name string, kind des.QueueKind, pending int) {
	rng := xrand.New(p.seed)
	var delays [4096]float64
	for i := range delays {
		delays[i] = rng.ExpMean(1)
	}
	s := des.NewWithQueue(kind)
	k := 0
	s.SetDispatcher(func(_, arg int32) {
		k++
		s.AfterIndexed(delays[k&4095], 0, arg)
	})
	for i := 0; i < pending; i++ {
		s.AfterIndexed(delays[i&4095], 0, int32(i))
	}
	p.add(name, p.loop(name, 1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			s.ProcessNext()
		}
	}), "ns")
}

func (p *prober) des() {
	p.hold("des.calendar_hold_ns_2e5", des.QueueCalendar, 2*p.set.Scale.Nodes)
	p.hold("des.calendar_hold_ns_2e3", des.QueueCalendar, 2*p.set.Churn.Nodes)
	p.hold("des.heap_hold_ns_2e4", des.QueueHeap, 2*p.set.Serve.Nodes)

	// Cancel + re-arm at the churn workload's population: what a failure
	// does to the failing node's completion timer.
	rng := xrand.New(p.seed)
	s := des.NewWithQueue(des.QueueCalendar)
	s.SetDispatcher(func(_, _ int32) {})
	handles := make([]des.Handle, 2*p.set.Churn.Nodes)
	for i := range handles {
		handles[i] = s.AfterIndexed(rng.ExpMean(1), 0, int32(i))
	}
	p.add("des.calendar_rearm_ns", p.loop("des.calendar_rearm_ns", 1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			j := (i * 7919) % len(handles)
			handles[j].Cancel()
			handles[j] = s.AfterIndexed(0.5+float64(i&1023)/1024, 0, int32(j))
		}
	}), "ns")
}

func (p *prober) xrand() {
	rng := xrand.New(p.seed)
	p.add("xrand.exp_ns", p.loop("xrand.exp_ns", 10_000_000, func(n int) {
		for i := 0; i < n; i++ {
			sink += rng.Exp(1.5)
		}
	}), "ns")
	nodes := p.set.Serve.Nodes
	p.add("xrand.intn_ns", p.loop("xrand.intn_ns", 10_000_000, func(n int) {
		t := 0
		for i := 0; i < n; i++ {
			t += rng.Intn(nodes)
		}
		sink += float64(t)
	}), "ns")
}

// randomView draws a snapshot of n unit-rate nodes with random queues,
// most up — the un-indexed state the live dispatcher routes against.
func randomView(rng *xrand.Rand, n int) (model.SnapshotView, model.Params) {
	s := model.State{Queues: make([]int, n), Up: make([]bool, n)}
	p := model.Params{ProcRate: make([]float64, n), FailRate: make([]float64, n), RecRate: make([]float64, n)}
	for i := range s.Queues {
		s.Queues[i] = rng.Intn(50)
		s.Up[i] = rng.Float64() < 0.9
		p.ProcRate[i] = 1
	}
	return model.SnapshotView{State: s}, p
}

func (p *prober) policy() {
	if p.err != nil {
		return
	}
	churn, err := scenario.Generate(scenario.Spec{
		Kind: scenario.Hotspot, N: p.set.Churn.Nodes, TotalLoad: p.set.Churn.Tasks, Seed: e2e.ClusterSeed,
		MTBF: p.set.Churn.MTBF, MTTR: p.set.Churn.MTTR,
	})
	if err != nil {
		p.err = err
		return
	}
	lbp2 := policy.LBP2{K: 1}
	var plan *policy.FailurePlan
	p.add("policy.plan_build_ns_per_node", p.loop("policy.plan_build_ns_per_node", 20, func(n int) {
		for i := 0; i < n; i++ {
			plan = policy.PlanFor(lbp2, churn.Params)
		}
	})/float64(churn.Params.N()), "ns")
	if plan == nil {
		p.err = fmt.Errorf("probe policy.plan_episode_ns: LBP-2 built no failure plan")
		return
	}
	var buf []model.Transfer
	nodes := churn.Params.N()
	p.add("policy.plan_episode_ns", p.loop("policy.plan_episode_ns", 1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			buf = plan.Transfers(buf[:0], i%nodes, 100)
		}
		sink += float64(len(buf))
	}), "ns")

	scale, err := scenario.Generate(scenario.Spec{
		Kind: scenario.Hotspot, N: p.set.Scale.Nodes, TotalLoad: p.set.Scale.Tasks, Seed: e2e.ClusterSeed,
		HotspotNodes: p.set.Scale.HotNodes,
	})
	if err != nil {
		p.err = err
		return
	}
	view := model.SnapshotView{State: model.State{Queues: scale.InitialLoad, Up: scale.InitialUp}}
	p.add("policy.lbp2_initial_ns_per_node", p.loop("policy.lbp2_initial_ns_per_node", 3, func(n int) {
		for i := 0; i < n; i++ {
			sink += float64(len(lbp2.Initial(view, scale.Params)))
		}
	})/float64(scale.Params.N()), "ns")

	rng := xrand.New(p.seed)
	route := func(name string, r policy.Router, n int) {
		v, params := randomView(rng, n)
		p.add(name, p.loop(name, 1_000_000, func(iters int) {
			t := 0
			for i := 0; i < iters; i++ {
				t += r.Route(v, params, rng)
			}
			sink += float64(t)
		}), "ns")
	}
	route("policy.route_pod2_ns", policy.PowerOfD{D: 2}, p.set.Serve.Nodes)
	route("policy.route_jsq_scan_ns_64", policy.JSQ{}, p.set.Live.Workers)
}

func (p *prober) metrics() {
	rng := xrand.New(p.seed)
	sketch := metrics.NewP2(0.99)
	p.add("metrics.p2_add_ns", p.loop("metrics.p2_add_ns", 5_000_000, func(n int) {
		for i := 0; i < n; i++ {
			sketch.Add(rng.Float64())
		}
	}), "ns")

	// One arrival plus one completion per iteration over the serving
	// workload's node count, at its arrival rate, window 1 s.
	nodes := p.set.Serve.Nodes
	col := metrics.NewCollector(nodes, 1)
	t, dt := 0.0, 1/p.set.Serve.Rate
	p.add("metrics.collector_task_ns", p.loop("metrics.collector_task_ns", 1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			node := (i * 7919) % nodes
			t += dt
			col.TasksArrived(node, 1, t)
			col.TaskCompleted(node, t-0.2, t-0.1, t)
		}
	}), "ns")
}

// bareServe runs the serving workload's realisation straight through
// sim.Run with no TaskObserver: same cluster, arrivals, router and
// policy, none of the serve or telemetry layers.
func (p *prober) bareServe() (int, error) {
	sv := p.set.Serve
	sc, err := sv.Generate()
	if err != nil {
		return 0, err
	}
	res, err := sim.Run(sim.Options{
		Params: sc.Params, Policy: policy.LBP2{K: 1}, InitialLoad: make([]int, sv.Nodes),
		Rand: xrand.New(p.seed), ArrivalRate: sv.Rate, ArrivalHorizon: sv.Horizon,
		Router: policy.PowerOfD{D: sv.Router.D}, EventQueue: des.QueueCalendar,
	})
	if err != nil {
		return 0, err
	}
	done := 0
	for _, n := range res.Processed {
		done += n
	}
	return done, nil
}

func (p *prober) sim() {
	served := p.block("serve.full", p.set.Serve, 2)
	bare := p.best("sim.bare_ns_per_task", 2, p.bareServe)
	p.add("sim.bare_ns_per_task", bare, "ns")
	p.add("serve.telemetry_ns_per_task", served-bare, "ns")

	jsq, rr := p.set.Serve, p.set.Serve
	jsq.Router = churnlb.RouterSpec{Kind: churnlb.RouterJSQ}
	rr.Router = churnlb.RouterSpec{Kind: churnlb.RouterRoundRobin}
	p.add("sim.jsq_index_ns_per_task", p.block("serve.jsq", jsq, 2)-p.block("serve.rr", rr, 2), "ns")

	// The decision tracer prices every arrival against all n nodes, so it
	// is probed at a twentieth of the serving workload's cluster and rate.
	plain := p.set.Serve
	plain.Nodes, plain.Rate = max(plain.Nodes/20, 10), plain.Rate/20
	traced := plain
	traced.TraceDecisions = true
	p.add("obs.decision_trace_ns_per_task", p.block("serve.traced", traced, 1)-p.block("serve.untraced", plain, 2), "ns")

	// The churn workload on other engine settings, a fifth of its block.
	eager := p.set.Churn
	eager.Reps = max(eager.Reps/5, 1)
	eager.Lazy = false
	p.add("sim.eager_ns_per_task", p.block("sim.eager_ns_per_task", eager, 2), "ns")
	defaults := eager
	defaults.Queue = churnlb.QueueHeap
	p.add("sim.default_ns_per_task", p.block("sim.default_ns_per_task", defaults, 2), "ns")

	nodes := p.set.Scale.Nodes
	p.add("scenario.generate_ns_per_node", p.loop("scenario.generate_ns_per_node", 3, func(n int) {
		for i := 0; i < n; i++ {
			sc, err := scenario.Generate(scenario.Spec{Kind: scenario.Hotspot, N: nodes, TotalLoad: p.set.Scale.Tasks, Seed: e2e.ClusterSeed, HotspotNodes: p.set.Scale.HotNodes})
			if err != nil {
				p.err = err
				return
			}
			sink += sc.Params.ProcRate[0]
		}
	})/float64(nodes), "ns")
}

// replication probes the Monte-Carlo worker pool: its per-replication
// overhead, and what a second worker buys on a small closed study.
func (p *prober) replication() {
	p.add("mc.rep_overhead_ns", p.loop("mc.rep_overhead_ns", 1, func(int) {
		if err := mc.ForEach(mc.Options{Reps: 100_000}, func(int) error { return nil }); err != nil {
			p.err = err
		}
	})/100_000, "ns")

	if p.err != nil {
		return
	}
	sc, err := scenario.Generate(scenario.Spec{Kind: scenario.Uniform, N: 100, TotalLoad: 10_000, Seed: p.seed})
	if err != nil {
		p.err = err
		return
	}
	reps := p.iters(100)
	study := func(workers int) func() (int, error) {
		return func() (int, error) {
			_, err := mc.Run(mc.Options{Reps: reps, Workers: workers, Seed: p.seed}, func(r *xrand.Rand, _ int) (float64, error) {
				out, err := sim.Run(sc.Options(policy.LBP2{K: 1}, r))
				if err != nil {
					return 0, err
				}
				return out.CompletionTime, nil
			})
			return 1, err
		}
	}
	one := p.once("mc.study_1w", study(1))
	two := p.once("mc.study_2w", study(2))
	if two > 0 {
		p.add("mc.speedup_2w", one/two, "x")
	} else {
		p.add("mc.speedup_2w", 0, "x")
	}
}

func (p *prober) cluster() {
	if p.err != nil {
		return
	}
	gen := workload.NewGenerator(16, 50, xrand.New(p.seed))
	tasks := gen.Batch(1)
	var frame []byte
	p.add("cluster.task_frame_codec_ns", p.loop("cluster.task_frame_codec_ns", 1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			frame = cluster.AppendTaskFrame(frame[:0], 64, tasks)
			if _, got, err := cluster.DecodeTaskFrame(frame[4:]); err != nil || len(got) != 1 {
				p.err = fmt.Errorf("probe cluster.task_frame_codec_ns: decoded %d tasks: %v", len(got), err)
				return
			}
		}
	}), "ns")

	var wire []byte
	p.add("cluster.state_packet_codec_ns", p.loop("cluster.state_packet_codec_ns", 5_000_000, func(n int) {
		for i := 0; i < n; i++ {
			wire = cluster.StatePacket{From: 3, Seq: uint32(i), QueueLen: 17, Up: true, RateMilli: 1000, TimeMs: uint64(i)}.AppendWire(wire[:0])
			pkt, err := cluster.DecodeStatePacket(wire)
			if err != nil {
				p.err = err
				return
			}
			sink += float64(pkt.QueueLen)
		}
	}), "ns")

	roundtrip := func(name string, tr cluster.Transport, iters int) {
		defer tr.Close()
		p.add(name, p.loop(name, iters, func(n int) {
			for i := 0; i < n; i++ {
				if err := tr.SendTasks(0, 1, tasks); err != nil {
					p.err = fmt.Errorf("probe %s: %w", name, err)
					return
				}
				<-tr.Tasks(1)
			}
		}), "ns")
	}
	nt, err := cluster.NewNetTransport(2)
	if err != nil {
		p.err = err
		return
	}
	roundtrip("cluster.net_roundtrip_ns", nt, 10_000)
	roundtrip("cluster.chan_roundtrip_ns", cluster.NewChanTransport(2), 200_000)
}

func (p *prober) daemon() {
	live := p.set.Live
	var packets, seconds float64
	net := p.once("daemon.lifetime_net", func() (int, error) {
		t0 := time.Now()
		out, res, err := e2e.RunLive(live.Options(p.seed))
		if err == nil && out.Failed > 0 {
			err = fmt.Errorf("%d of %d tasks failed", out.Failed, out.Tasks)
		}
		if err == nil {
			packets, seconds = float64(res.StatePackets), time.Since(t0).Seconds()
		}
		return out.Tasks, err
	})
	ch := p.once("daemon.admit_chan_ns_per_task", func() (int, error) {
		opt := live.Options(p.seed)
		tr := cluster.NewChanTransport(live.Workers + 1)
		defer tr.Close()
		opt.Transport = tr
		out, _, err := e2e.RunLive(opt)
		if err == nil && out.Failed > 0 {
			err = fmt.Errorf("%d of %d tasks failed", out.Failed, out.Tasks)
		}
		return out.Tasks, err
	})
	p.add("daemon.admit_chan_ns_per_task", ch, "ns")
	p.add("cluster.wire_ns_per_task", net-ch, "ns")
	if seconds > 0 {
		p.add("daemon.gossip_packets_per_s", packets/seconds, "1/s")
	} else {
		p.add("daemon.gossip_packets_per_s", 0, "1/s")
	}

	// An empty trace with Interrupt already fired: bind the sockets, start
	// and stop the fleet, admit nothing.
	fired := make(chan struct{})
	close(fired)
	p.add("daemon.spinup_ms", p.once("daemon.spinup_ms", func() (int, error) {
		opt := live.Options(p.seed)
		opt.Trace, opt.Interrupt = nil, fired
		_, _, err := e2e.RunLive(opt)
		return 1, err
	})/1e6, "ms")
}
