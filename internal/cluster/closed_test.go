package cluster_test

// The closed-run suite: the paper's Section-3 testbed is the live engine
// (internal/daemon) under the closed boundary condition — an initial
// backlog, no arrivals — running on this package's two transports. The
// engine imports this package, so the suite is an external test package.

import (
	"math"
	"testing"
	"time"

	"churnlb/internal/cluster"
	"churnlb/internal/daemon"
	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/sim"
	"churnlb/internal/stats"
)

// closedOptions is a fast closed run of the paper's two-node system over
// in-process channels: ~30 ms wall for the (100,60) workload.
func closedOptions(load []int, pol policy.Policy) daemon.Options {
	return daemon.Options{
		Params:      model.PaperBaseline(),
		Policy:      pol,
		InitialLoad: load,
		TimeScale:   4000,
		Seed:        1,
		MaxWall:     30 * time.Second,
	}
}

// run executes opt on a transport of its own, sized for the fleet (the
// workers plus the dispatcher endpoint): in-process channels, or real
// loopback UDP/TCP.
func run(t *testing.T, opt daemon.Options, sockets bool) (*daemon.Result, error) {
	t.Helper()
	n := opt.Params.N() + 1
	if sockets {
		tr, err := cluster.NewNetTransport(n)
		if err != nil {
			t.Skipf("loopback sockets unavailable: %v", err)
		}
		opt.Transport = tr
	} else {
		opt.Transport = cluster.NewChanTransport(n)
	}
	defer opt.Transport.Close()
	return daemon.Run(opt)
}

func mustRun(t *testing.T, opt daemon.Options) *daemon.Result {
	t.Helper()
	res, err := run(t, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// checkConserved asserts that every one of the total admitted tasks was
// executed exactly once. The engine counts an execution only while the
// task's ID is in its in-system window and takes it out as it counts, so
// processed == injected with telemetry agreeing means each ID left the
// window once and none is left in it.
func checkConserved(t *testing.T, res *daemon.Result, total int) {
	t.Helper()
	if res.Injected != total {
		t.Fatalf("injected %d tasks, want %d", res.Injected, total)
	}
	if got := sum(res.Processed); got != total || res.Lost != 0 {
		t.Fatalf("processed %d + lost %d of %d tasks", got, res.Lost, total)
	}
	if res.Summary.Arrived != total || res.Summary.Completed != total {
		t.Fatalf("telemetry saw %d arrive and %d complete, want %d", res.Summary.Arrived, res.Summary.Completed, total)
	}
	if res.DecodeErrors != 0 {
		t.Fatalf("%d decode errors", res.DecodeErrors)
	}
}

func TestRunCompletesAndConserves(t *testing.T) {
	res := mustRun(t, closedOptions([]int{60, 40}, policy.LBP2{K: 1}))
	checkConserved(t, res, 100)
	if res.Summary.Elapsed <= 0 {
		t.Fatalf("completion time %v", res.Summary.Elapsed)
	}
}

// Full end-to-end experiment over real loopback sockets: the Section-3
// architecture with UDP state exchange and TCP task transfer.
func TestClusterOverLoopbackSockets(t *testing.T) {
	opt := closedOptions([]int{60, 30}, policy.LBP2{K: 1})
	opt.TimeScale, opt.Seed, opt.MaxWall = 3000, 11, 60*time.Second
	res, err := run(t, opt, true)
	if err != nil {
		t.Fatal(err)
	}
	checkConserved(t, res, 90)
	if res.Summary.Elapsed <= 0 {
		t.Fatalf("completion %v", res.Summary.Elapsed)
	}
}

func TestRunNoBalance(t *testing.T) {
	res := mustRun(t, closedOptions([]int{30, 30}, nil))
	checkConserved(t, res, 60)
	if res.TransfersSent != 0 {
		t.Fatalf("no-balance run sent %d transfers", res.TransfersSent)
	}
}

func TestRunLBP1InitialTransferHappens(t *testing.T) {
	res := mustRun(t, closedOptions([]int{80, 20}, policy.LBP1{K: 0.5, Sender: 0}))
	checkConserved(t, res, 100)
	if res.TransfersSent != 1 || res.TasksTransferred != 40 {
		t.Fatalf("transfers %d / tasks %d, want 1 / 40", res.TransfersSent, res.TasksTransferred)
	}
}

// An empty backlog is still a closed run: it returns at once instead of
// idling for arrivals.
func TestRunEmptyWorkload(t *testing.T) {
	start := time.Now()
	res := mustRun(t, closedOptions([]int{0, 0}, nil))
	checkConserved(t, res, 0)
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("empty run took %v", el)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	opt := closedOptions([]int{10}, nil)
	if _, err := run(t, opt, false); err == nil {
		t.Fatal("ragged initial load accepted")
	}
	opt = closedOptions([]int{10, 10}, nil)
	opt.Params.ProcRate[0] = -1
	if _, err := run(t, opt, false); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestFailuresObservedOnLongRun(t *testing.T) {
	opt := closedOptions([]int{100, 60}, policy.LBP2{K: 1})
	opt.Seed = 3
	res := mustRun(t, opt)
	checkConserved(t, res, 160)
	// Mean failure time is 20 s and the run lasts ~110+ virtual seconds,
	// so seeing zero failures on both nodes is vanishingly unlikely.
	if res.Failures == 0 {
		t.Fatal("no failures observed in a ~110 s virtual run")
	}
	// LBP-2's initial balance always fires for workload (100,60); failure
	// transfers cannot be coupled to the failure count here, because the
	// wall-clock testbed may deliver failures after a queue has drained,
	// in which case eq. (8) sends nothing — asserting otherwise is racy.
	if res.TransfersSent < 1 {
		t.Fatalf("failures %d but no transfers at all (initial balance missing)", res.Failures)
	}
}

func TestTraceRecordsQueueEvolution(t *testing.T) {
	opt := closedOptions([]int{40, 20}, policy.LBP1{K: 0.35, Sender: 0})
	opt.QueueTrace = true
	res := mustRun(t, opt)
	checkConserved(t, res, 60)
	trace := res.QueueTrace
	if len(trace) < 2 || trace[0].Kind != model.EvStart || trace[len(trace)-1].Kind != model.EvDone {
		t.Fatalf("trace of %d points must begin with start and end with done", len(trace))
	}
	completions := 0
	prev := -1.0
	for _, tp := range trace {
		if tp.Kind == model.EvCompletion {
			completions++
		}
		if tp.Time < prev {
			t.Fatalf("trace time regressed: %v after %v", tp.Time, prev)
		}
		prev = tp.Time
		for _, q := range tp.Queues {
			if q < 0 {
				t.Fatalf("negative queue in trace: %+v", tp)
			}
		}
	}
	if completions != 60 {
		t.Fatalf("trace has %d completion points for 60 tasks", completions)
	}
	if last := trace[len(trace)-1]; sum(last.Queues) != 0 {
		t.Fatalf("queues not empty at done: %+v", last)
	}
}

func TestRealComputeMode(t *testing.T) {
	opt := closedOptions([]int{25, 25}, policy.LBP2{K: 1})
	opt.RealCompute = true
	opt.MatrixDim = 16
	opt.MeanPrecision = 20
	checkConserved(t, mustRun(t, opt), 50)
}

// The testbed's mean completion must agree with the analytical model to
// within the tolerance expected of timer jitter at this scale (a few
// replications keep the test fast; the experiment harness uses more).
// With TestMeanCompletionReasonableVsMarkov it pins the engine's spin rule:
// timer-slept, this mean reads about 357 s.
func TestCompletionTimeTracksTheory(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replication testbed run")
	}
	var w stats.Welford
	for rep := 0; rep < 6; rep++ {
		opt := closedOptions([]int{100, 60}, policy.LBP1{K: 0.35, Sender: 0})
		opt.TimeScale = 2000
		opt.Seed = uint64(100 + rep)
		res := mustRun(t, opt)
		checkConserved(t, res, 160)
		w.Add(res.Summary.Elapsed)
	}
	t.Logf("mean completion %.1f virtual s over %d runs", w.Mean(), w.N())
	// Theory says 116.75 s; the completion time is noisy (σ ≈ 25 s), so
	// only guard against gross disagreement.
	if w.Mean() < 60 || w.Mean() > 220 {
		t.Fatalf("testbed mean %v far from theoretical 116.75", w.Mean())
	}
}

func TestThreeNodeCluster(t *testing.T) {
	opt := closedOptions([]int{90, 10, 10}, policy.LBP2{K: 1})
	opt.Params = model.Params{
		ProcRate:     []float64{1.0, 1.5, 2.0},
		FailRate:     []float64{0.05, 0, 0.05},
		RecRate:      []float64{0.1, 0, 0.1},
		DelayPerTask: 0.02,
	}
	opt.Seed = 5
	res := mustRun(t, opt)
	checkConserved(t, res, 110)
	if res.TasksTransferred == 0 {
		t.Fatal("overloaded node never shed work")
	}
}

func TestMeanCompletionReasonableVsMarkov(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	// Single fast check that virtual-time scaling is calibrated: a
	// no-failure, no-balance (40,0) run ≈ 40/1.08 ≈ 37 virtual seconds.
	opt := closedOptions([]int{40, 0}, nil)
	opt.Params = model.PaperBaseline().NoFailure()
	opt.TimeScale = 2000
	var w stats.Welford
	for rep := 0; rep < 8; rep++ {
		opt.Seed = uint64(rep)
		w.Add(mustRun(t, opt).Summary.Elapsed)
	}
	want := 40 / 1.08
	t.Logf("mean completion %.1f virtual s over %d runs", w.Mean(), w.N())
	if math.Abs(w.Mean()-want) > 0.5*want {
		t.Fatalf("testbed mean %v, want ≈%v", w.Mean(), want)
	}
}

// TestBacklogAndArrivalTrace is the case one engine makes possible: both
// boundary conditions in one run, a backlog at t = 0 and arrivals after it.
func TestBacklogAndArrivalTrace(t *testing.T) {
	opt := closedOptions([]int{30, 10}, policy.LBP2{K: 1})
	for v := 1.0; v <= 20; v++ {
		opt.Trace = append(opt.Trace, sim.ArrivalAt{Time: v, Batch: 1})
	}
	opt.Router = policy.JSQ{}
	res := mustRun(t, opt)
	checkConserved(t, res, 40+len(opt.Trace))
	if res.Summary.Elapsed < 20 {
		t.Fatalf("run ended at %v, before the last arrival at 20", res.Summary.Elapsed)
	}
}
