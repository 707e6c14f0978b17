package daemon_test

// The closed-run suite: the paper's Section-3 testbed is the live engine
// under the closed boundary condition — an initial backlog, no arrivals —
// running on internal/cluster's two transports, through the package's
// exported surface only.

import (
	"math"
	"strings"
	"testing"
	"time"

	"churnlb/internal/cluster"
	"churnlb/internal/daemon"
	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/sim"
	"churnlb/internal/stats"
	"churnlb/internal/xrand"
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
	opt = closedOptions([]int{-5, 3}, nil)
	if _, err := run(t, opt, false); err == nil || !strings.Contains(err.Error(), "worker 0") {
		t.Fatalf("negative initial load: got %v, want an error naming worker 0", err)
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

// The testbed's mean completion must agree with the analytical model to
// within the tolerance expected of timer jitter at this scale (a few
// replications keep the test fast; the experiment harness uses more).
// With TestMeanCompletionReasonableVsMarkov it pins paced service: every
// wait is a plain timer wait, and this mean reads about 123 s on 2 vCPUs,
// where a worker waiting out each service on a relative timer, stretched
// by every late wake, reads about 357 s.
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

// TestPacedServiceAcrossAFailure replays the pacing rule on one worker by
// hand and holds a closed run to it. The worker serves k tasks queued at
// t = 0 back to back, each due at the previous one's due instant plus its
// service draw, and fails at a fixed instant F in the middle of the last
// task's service. That task goes back to the head, and after the recovery
// at F + R it is served again with a fresh draw. Since every task arrived
// at 0, the mean sojourn is the mean completion instant and the mean wait
// the mean first start, both fixed by the worker's service stream: a
// failure the worker ignored (the last task completing at its first due
// instant), a start that ignored the server's previous completion, or a
// late wake that slid the recovery would each move them. The seed is the
// first whose draws put F, and every other instant the outcome hinges on,
// at least margin virtual seconds (50 ms of wall time) from the nearest
// instant that could race it.
func TestPacedServiceAcrossAFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock run of several hundred milliseconds")
	}
	const (
		k         = 4
		rate      = 1.0
		recovery  = 1.0
		margin    = 1.0
		timeScale = 20
	)
	var (
		seed       uint64
		draws      []float64
		firstStart float64 // the instant task k first starts
		fail       float64
	)
	for seed = 1; ; seed++ {
		rng := xrand.NewStream(seed, xrand.WorkerStream(0, xrand.WorkerService))
		draws = make([]float64, k+1)
		for i := range draws {
			draws[i] = rng.Exp(rate)
		}
		firstStart = 0
		for _, s := range draws[:k-1] {
			firstStart += s
		}
		// F sits mid-service of task k, and the second failure, at 2F + R,
		// after task k's second attempt ends at F + R + draws[k].
		if draws[k-1] >= 2*margin && draws[k-1]/2+firstStart > draws[k]+margin {
			fail = firstStart + draws[k-1]/2
			break
		}
	}
	p := model.Params{
		ProcRate:     []float64{rate},
		FailRate:     []float64{1 / fail},
		RecRate:      []float64{1 / recovery},
		DelayPerTask: 0.1,
	}
	// The churn controller's instants, as it computes them.
	downAt := sim.ChurnDeterministic.Sample(nil, 1/p.FailRate[0])
	upAt := downAt + sim.ChurnDeterministic.Sample(nil, 1/p.RecRate[0])
	// The rule, by hand: completion instants and first starts, summed in
	// completion order as the collector sums them.
	var sojourns, waits, free float64
	for i := 0; i < k-1; i++ {
		waits += free
		free += draws[i]
		sojourns += free
	}
	waits += free // task k's first attempt, cut short at downAt
	sojourns += upAt + draws[k]

	opt := closedOptions([]int{k}, nil)
	opt.Params, opt.ChurnLaw, opt.TimeScale, opt.Seed = p, sim.ChurnDeterministic, timeScale, seed
	res := mustRun(t, opt)
	checkConserved(t, res, k)
	if res.Failures != 1 || res.Recoveries != 1 {
		t.Fatalf("%d failures and %d recoveries, want one each", res.Failures, res.Recoveries)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12*want }
	if got, want := res.Summary.MeanSojourn, sojourns/k; !near(got, want) {
		t.Errorf("mean sojourn %v, the pacing rule gives %v (seed %d, failure at %v)", got, want, seed, fail)
	}
	if got, want := res.Summary.MeanWait, waits/k; !near(got, want) {
		t.Errorf("mean wait %v, the pacing rule gives %v (seed %d, failure at %v)", got, want, seed, fail)
	}
}
