package daemon

import (
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"churnlb/internal/cluster"
	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/sim"
	"churnlb/internal/workload"
	"churnlb/internal/xrand"
)

// uniformTrace builds a rate-like arrival schedule: batch tasks every
// 1/rate virtual seconds over the horizon.
func uniformTrace(rate, horizon float64, batch int) []sim.ArrivalAt {
	var tr []sim.ArrivalAt
	for t := 1 / rate; t < horizon; t += 1 / rate {
		tr = append(tr, sim.ArrivalAt{Time: t, Batch: batch})
	}
	return tr
}

func stableParams(n int) model.Params {
	p := model.Params{
		ProcRate:     make([]float64, n),
		FailRate:     make([]float64, n),
		RecRate:      make([]float64, n),
		DelayPerTask: 0.01,
	}
	for i := range p.ProcRate {
		p.ProcRate[i] = 20
		p.RecRate[i] = 1
	}
	return p
}

func sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// checkConserved is the identity every daemon run must end on: each
// admitted task was executed exactly once or declared lost, and no frame
// was dropped on the way.
func checkConserved(t *testing.T, res *Result) {
	t.Helper()
	if got := sum(res.Processed) + res.Lost; got != res.Injected {
		t.Fatalf("conservation broken: processed %d + lost %d != injected %d",
			sum(res.Processed), res.Lost, res.Injected)
	}
	if res.DecodeErrors != 0 {
		t.Fatalf("%d decode errors", res.DecodeErrors)
	}
}

// TestRunDrainsTrace is the conservation test: every traced task is
// admitted, executed exactly once, and the run terminates on its own.
func TestRunDrainsTrace(t *testing.T) {
	p := stableParams(4)
	trace := uniformTrace(30, 8, 1)
	res, err := Run(Options{
		Params:    p,
		Router:    policy.JSQ{},
		Trace:     trace,
		TimeScale: 400,
		Seed:      7,
		Transport: cluster.NewChanTransport(5),
		MaxWall:   90 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected != len(trace) {
		t.Fatalf("injected %d of %d traced tasks", res.Injected, len(trace))
	}
	total := 0
	for _, n := range res.Processed {
		total += n
	}
	if total != len(trace) {
		t.Fatalf("processed %d of %d tasks", total, len(trace))
	}
	if res.Summary.Completed != len(trace) {
		t.Fatalf("telemetry counted %d completions, want %d", res.Summary.Completed, len(trace))
	}
	if res.Summary.Availability != 1 {
		t.Fatalf("availability %v with no churn", res.Summary.Availability)
	}
	if res.Interrupted {
		t.Fatal("run reported interrupted without an Interrupt")
	}
	if res.Lost != 0 {
		t.Fatalf("%d tasks lost on a clean run", res.Lost)
	}
	checkConserved(t, res)
}

// TestRunChurnTransfers kills one worker deterministically mid-run with
// an LBP-2 plan: the failure must register in telemetry (availability
// dips), the backlog must move via eq.-(8) transfers, and conservation
// must still hold.
func TestRunChurnTransfers(t *testing.T) {
	p := stableParams(4)
	p.FailRate[0] = 1.0 / 3 // deterministic: fails at v=3, recovers at v=5
	p.RecRate[0] = 1.0 / 2
	trace := uniformTrace(40, 8, 1)
	res, err := Run(Options{
		Params:    p,
		Router:    policy.JSQ{},
		Policy:    policy.LBP2{},
		ChurnLaw:  sim.ChurnDeterministic,
		Trace:     trace,
		TimeScale: 200,
		Seed:      11,
		Transport: cluster.NewChanTransport(5),
		MaxWall:   90 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures < 1 {
		t.Fatalf("expected at least one failure, saw %d", res.Failures)
	}
	if res.Recoveries < 1 {
		t.Fatalf("expected at least one recovery, saw %d", res.Recoveries)
	}
	total := 0
	for _, n := range res.Processed {
		total += n
	}
	if total != len(trace) {
		t.Fatalf("processed %d of %d tasks across churn", total, len(trace))
	}
	if res.Summary.Availability >= 1 {
		t.Fatalf("availability %v despite %d failures", res.Summary.Availability, res.Failures)
	}
	// The dip must be visible in the window series too.
	sawDip := false
	for _, w := range res.Windows {
		if w.Availability < 1 {
			sawDip = true
		}
	}
	if !sawDip {
		t.Fatal("no telemetry window shows the availability dip")
	}
	checkConserved(t, res)
}

// TestRunNetTransport runs a short trace over real loopback sockets —
// the wire path end to end: UDP state packets must reach the dispatcher
// and every task must survive the TCP framing.
func TestRunNetTransport(t *testing.T) {
	tr, err := cluster.NewNetTransport(4)
	if err != nil {
		t.Skipf("loopback sockets unavailable: %v", err)
	}
	defer tr.Close()
	p := stableParams(3)
	trace := uniformTrace(25, 5, 1)
	res, err := Run(Options{
		Params:    p,
		Router:    policy.JSQ{},
		Trace:     trace,
		TimeScale: 250,
		Seed:      3,
		Transport: tr,
		MaxWall:   90 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range res.Processed {
		total += n
	}
	if total != len(trace) {
		t.Fatalf("processed %d of %d tasks over sockets", total, len(trace))
	}
	if res.StatePackets == 0 {
		t.Fatal("dispatcher saw no state packets")
	}
	if res.DecodeErrors != 0 {
		t.Fatalf("decode errors on a clean run: %d", res.DecodeErrors)
	}
	checkConserved(t, res)
}

// TestRunLeavesNothingBehind runs burst lifetimes back to back over the
// daemon's own loopback sockets: when Run returns, every goroutine it
// started — workers, dispatcher, accept and per-connection readers — has
// ended, so one lifetime cannot perturb the next (the benchmark replays
// several in one process).
func TestRunLeavesNothingBehind(t *testing.T) {
	p := stableParams(8)
	for i := range p.ProcRate {
		p.ProcRate[i] = 1000
	}
	before := runtime.NumGoroutine()
	for life := 0; life < 3; life++ {
		res, err := Run(Options{
			Params:        p,
			Router:        policy.PowerOfD{D: 2},
			Trace:         burstTrace(2000),
			TimeScale:     1000,
			StateInterval: 100,
			Seed:          uint64(life + 1),
			MaxWall:       30 * time.Second,
		})
		if err != nil {
			t.Skipf("loopback sockets unavailable: %v", err)
		}
		checkConserved(t, res)
		var after int
		for wait := 0; wait < 100; wait++ { // an exiting goroutine is counted until it is descheduled
			if after = runtime.NumGoroutine(); after <= before {
				break
			}
			time.Sleep(time.Millisecond)
		}
		if after > before {
			t.Fatalf("lifetime %d left %d goroutines behind", life, after-before)
		}
	}
}

// TestRunInterrupt closes the Interrupt channel mid-replay: the stream
// must cut, admitted work must drain, and the result must say so.
func TestRunInterrupt(t *testing.T) {
	p := stableParams(3)
	intr := make(chan struct{})
	close(intr)
	trace := uniformTrace(20, 50, 1)
	res, err := Run(Options{
		Params:    p,
		Trace:     trace,
		TimeScale: 300,
		Seed:      5,
		Transport: cluster.NewChanTransport(4),
		Interrupt: intr,
		MaxWall:   60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("run did not report the interrupt")
	}
	if res.Injected >= len(trace) {
		t.Fatalf("interrupt did not cut the stream: %d injected", res.Injected)
	}
	total := 0
	for _, n := range res.Processed {
		total += n
	}
	if total != res.Injected {
		t.Fatalf("drained %d of %d admitted tasks", total, res.Injected)
	}
	checkConserved(t, res)
}

// TestHTTPFrontDoor drives arrivals through POST /task and reads the
// observability endpoints while an idle daemon serves.
func TestHTTPFrontDoor(t *testing.T) {
	addr, stop := startHTTPDaemon(t, 3, 60*time.Second)

	post := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Post("http://"+addr+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	const arrivals = 20
	for i := 0; i < arrivals; i++ {
		resp := post("/task?batch=1")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /task: %s", resp.Status)
		}
		var out map[string]int
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if w, ok := out["worker"]; !ok || w < 0 || w >= 3 {
			t.Fatalf("bad routing response: %v", out)
		}
	}
	resp, err := http.Get("http://" + addr + "/state")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Peers []struct {
			Up bool `json:"up"`
		} `json:"peers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Peers) != 3 {
		t.Fatalf("GET /state reported %d peers, want 3", len(st.Peers))
	}
	if resp, err = http.Get("http://" + addr + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp.Status)
	}
	resp.Body.Close()

	res := stop()
	if res.Injected != arrivals {
		t.Fatalf("injected %d of %d HTTP arrivals", res.Injected, arrivals)
	}
	if total := sum(res.Processed); total != arrivals {
		t.Fatalf("processed %d of %d HTTP arrivals", total, arrivals)
	}
	checkConserved(t, res)
}

// --- coalescing semantics, seen from the wire ---

// sentBundle is one dispatcher SendTasks call as the transport saw it.
type sentBundle struct {
	at  time.Time
	to  int
	ids []uint64
}

// recordingTransport wraps a Transport, recording every bundle the
// dispatcher (endpoint `dispatcher`) sends and optionally interfering:
// failSend(k, from) returning true makes the k-th send (1-based, counted
// per sender class) fail — without delivering, or after delivering when
// failDelivers is set (a write error can follow a frame that arrived) —
// and onSend observes each dispatcher send before it is forwarded.
type recordingTransport struct {
	cluster.Transport
	dispatcher   int
	failSend     func(k int, from int) bool
	failDelivers bool
	onSend       func(k int)

	mu        sync.Mutex
	sends     []sentBundle
	transfers int
}

var errInjected = errors.New("injected send failure")

func (r *recordingTransport) SendTasks(from, to int, tasks []workload.Task) error {
	r.mu.Lock()
	var k int
	if from == r.dispatcher {
		// tasks is the caller's to reuse after the call: keep the IDs only.
		r.sends = append(r.sends, sentBundle{at: time.Now(), to: to, ids: ids(tasks)})
		k = len(r.sends)
	} else {
		r.transfers++
		k = r.transfers
	}
	r.mu.Unlock()
	if from == r.dispatcher && r.onSend != nil {
		r.onSend(k)
	}
	if r.failSend != nil && r.failSend(k, from) {
		if r.failDelivers {
			r.Transport.SendTasks(from, to, tasks)
		}
		return errInjected
	}
	return r.Transport.SendTasks(from, to, tasks)
}

func newRecording(workers int) *recordingTransport {
	return &recordingTransport{Transport: cluster.NewChanTransport(workers + 1), dispatcher: workers}
}

// burstTrace is n single-task arrivals all due at t = 0.
func burstTrace(n int) []sim.ArrivalAt { return make([]sim.ArrivalAt, n) }

// TestPacedArrivalsAreNotCoalesced pins the "zero added latency" half of
// the flush rule: when the dispatcher keeps up, every arrival is its own
// single-task frame, on the wire before the next arrival is due.
func TestPacedArrivalsAreNotCoalesced(t *testing.T) {
	const (
		workers   = 3
		arrivals  = 8
		timeScale = 50.0 // one virtual second = 20 ms of wall time
	)
	trace := uniformTrace(1, arrivals+1, 1) // one arrival per virtual second
	if len(trace) != arrivals {
		t.Fatalf("trace has %d arrivals, want %d", len(trace), arrivals)
	}
	tr := newRecording(workers)
	t0 := time.Now() // no later than the run's own clock start
	res, err := Run(Options{
		Params:    stableParams(workers),
		Router:    policy.JSQ{},
		Trace:     trace,
		TimeScale: timeScale,
		Seed:      21,
		Transport: tr,
		MaxWall:   60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkConserved(t, res)
	if len(tr.sends) != arrivals {
		t.Fatalf("%d sends for %d paced arrivals", len(tr.sends), arrivals)
	}
	for k, b := range tr.sends {
		if len(b.ids) != 1 || b.ids[0] != uint64(k+1) {
			t.Fatalf("send %d carried tasks %v, want exactly task %d", k, b.ids, k+1)
		}
		if k+1 < arrivals {
			nextDue := t0.Add(time.Duration(trace[k+1].Time / timeScale * float64(time.Second)))
			if !b.at.Before(nextDue) {
				t.Fatalf("send %d issued %v after the next arrival was due", k, b.at.Sub(nextDue))
			}
		}
	}
}

// TestBurstIsCoalesced pins the other half: a dispatcher that is behind
// (every arrival already due) ships bundles, none above the cap, with each
// worker's tasks in admission order.
func TestBurstIsCoalesced(t *testing.T) {
	const workers, arrivals = 4, 400
	tr := newRecording(workers)
	res, err := Run(Options{
		Params:    stableParams(workers),
		Router:    policy.PowerOfD{D: 2},
		Trace:     burstTrace(arrivals),
		TimeScale: 2000,
		Seed:      22,
		Transport: tr,
		MaxWall:   60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkConserved(t, res)
	if res.Injected != arrivals || res.Lost != 0 {
		t.Fatalf("injected %d lost %d, want %d and 0", res.Injected, res.Lost, arrivals)
	}
	if len(tr.sends) > arrivals/4 {
		t.Fatalf("%d sends for a burst of %d arrivals: not coalesced", len(tr.sends), arrivals)
	}
	last := make([]uint64, workers)
	seen := 0
	for k, b := range tr.sends {
		if len(b.ids) == 0 || len(b.ids) > bundleCap {
			t.Fatalf("send %d carries %d tasks (cap %d)", k, len(b.ids), bundleCap)
		}
		for _, id := range b.ids {
			if id <= last[b.to] {
				t.Fatalf("worker %d received task %d after task %d", b.to, id, last[b.to])
			}
			last[b.to] = id
		}
		seen += len(b.ids)
	}
	if seen != arrivals {
		t.Fatalf("sends carried %d tasks, want %d", seen, arrivals)
	}
}

// TestCoalescingKeepsRouting pins "same routing, different framing": with
// gossip effectively off, the dispatcher's view is its own optimistic
// bumps, so the per-worker admitted counts must equal an independent
// replay of route-then-bump per arrival on the same rng stream — the
// sequence the one-frame-per-arrival dispatcher produced.
func TestCoalescingKeepsRouting(t *testing.T) {
	const (
		workers, arrivals = 5, 600
		seed              = 23
	)
	p := stableParams(workers)
	router := policy.PowerOfD{D: 2}

	want := make([]int, workers)
	view := model.SnapshotView{State: model.State{Queues: make([]int, workers), Up: make([]bool, workers)}}
	for i := range view.State.Up {
		view.State.Up[i] = true
	}
	rng := xrand.NewStream(seed, xrand.StreamDispatcher)
	for i := 0; i < arrivals; i++ {
		node := router.Route(view, p, rng)
		view.State.Queues[node]++
		want[node]++
	}

	tr := newRecording(workers)
	res, err := Run(Options{
		Params:        p,
		Router:        router,
		Trace:         burstTrace(arrivals),
		TimeScale:     2000,
		StateInterval: 1e9, // no state packet within the run
		Seed:          seed,
		Transport:     tr,
		MaxWall:       60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkConserved(t, res)
	if res.StatePackets != 0 {
		t.Fatalf("%d state packets reached the dispatcher; the replay assumes none", res.StatePackets)
	}
	got := make([]int, workers)
	for _, b := range tr.sends {
		got[b.to] += len(b.ids)
	}
	for i := range want {
		if got[i] != want[i] || res.Processed[i] != want[i] {
			t.Fatalf("worker %d: admitted %d, processed %d, replay says %d (all: got %v want %v)",
				i, got[i], res.Processed[i], want[i], got, want)
		}
	}
}

// TestInterruptMidBurstFlushes fires Interrupt while bundles are pending:
// everything admitted must still reach a worker.
func TestInterruptMidBurstFlushes(t *testing.T) {
	const workers, arrivals = 4, 20000
	intr := make(chan struct{})
	tr := newRecording(workers)
	tr.onSend = func(k int) {
		if k == 10 {
			close(intr)
		}
	}
	res, err := Run(Options{
		Params:    stableParams(workers),
		Router:    policy.PowerOfD{D: 2},
		Trace:     burstTrace(arrivals),
		TimeScale: 1e6,
		Seed:      24,
		Transport: tr,
		Interrupt: intr,
		MaxWall:   60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkConserved(t, res)
	if !res.Interrupted {
		t.Fatal("run did not report the interrupt")
	}
	if res.Lost != 0 {
		t.Fatalf("%d tasks lost to an interrupt", res.Lost)
	}
	if res.Injected == 0 || res.Injected >= arrivals {
		t.Fatalf("interrupt after 10 sends admitted %d of %d arrivals", res.Injected, arrivals)
	}
	sent := 0
	for _, b := range tr.sends {
		sent += len(b.ids)
	}
	if sent != res.Injected {
		t.Fatalf("%d admitted tasks, %d on the wire: a pending bundle was not flushed", res.Injected, sent)
	}
}

// TestFailedDispatchIsDeclaredLost is the ROADMAP 7a wedge: a failed
// dispatcher send used to leave processed < injected forever and the run
// hanging to MaxWall. Now the bundle is declared lost, the replay stops,
// and Run returns as soon as the delivered work drains.
func TestFailedDispatchIsDeclaredLost(t *testing.T) {
	const workers, arrivals = 4, 2000
	tr := newRecording(workers)
	tr.failSend = func(k, from int) bool { return from == workers && k == 5 }
	start := time.Now()
	res, err := Run(Options{
		Params:    stableParams(workers),
		Router:    policy.PowerOfD{D: 2},
		Trace:     burstTrace(arrivals),
		TimeScale: 1e6,
		Seed:      25,
		Transport: tr,
		MaxWall:   60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("run took %v after a failed send", el)
	}
	checkConserved(t, res)
	if len(tr.sends) < 5 {
		t.Fatalf("only %d sends recorded", len(tr.sends))
	}
	if want := len(tr.sends[4].ids); res.Lost != want {
		t.Fatalf("lost %d tasks, the failed bundle held %d", res.Lost, want)
	}
	if res.Injected >= arrivals {
		t.Fatalf("replay went on after the failure: %d injected", res.Injected)
	}
	if res.Summary.Completed != sum(res.Processed) {
		t.Fatalf("telemetry completed %d, workers processed %d", res.Summary.Completed, sum(res.Processed))
	}
}

// TestLostButDeliveredIsNotCounted covers "a write that errored may or
// may not have delivered": tasks declared lost that a worker executes
// anyway must not also count as processed, or the run could never end on
// its identity.
func TestLostButDeliveredIsNotCounted(t *testing.T) {
	const workers, arrivals = 4, 2000
	tr := newRecording(workers)
	tr.failSend = func(k, from int) bool { return from == workers && k == 3 }
	tr.failDelivers = true
	res, err := Run(Options{
		Params:    stableParams(workers),
		Router:    policy.PowerOfD{D: 2},
		Trace:     burstTrace(arrivals),
		TimeScale: 1e6,
		Seed:      27,
		Transport: tr,
		MaxWall:   60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkConserved(t, res)
	// Whatever a worker finished before the error came back counts as
	// processed; the rest of the bundle as lost; nothing as both.
	if max := len(tr.sends[2].ids); res.Lost > max {
		t.Fatalf("lost %d tasks, the failed bundle held only %d", res.Lost, max)
	}
}

// TestFailedTransferIsDeclaredLost is the same accounting on the other
// send site: an eq.-(8) transfer whose delayed send fails.
func TestFailedTransferIsDeclaredLost(t *testing.T) {
	p := stableParams(4)
	p.FailRate[0] = 1.0 / 3 // deterministic: fails at v=3, recovers at v=5
	p.RecRate[0] = 1.0 / 2
	tr := newRecording(4)
	tr.failSend = func(k, from int) bool { return from != 4 && k == 1 }
	res, err := Run(Options{
		Params:    p,
		Router:    policy.NewRoundRobin(),
		Policy:    policy.LBP2{},
		ChurnLaw:  sim.ChurnDeterministic,
		Trace:     uniformTrace(120, 6, 1), // overload: worker 0 has a backlog to transfer
		TimeScale: 200,
		Seed:      26,
		Transport: tr,
		MaxWall:   60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkConserved(t, res)
	if res.TransfersSent == 0 {
		t.Fatal("no transfer was attempted: the test exercised nothing")
	}
	if res.Lost == 0 {
		t.Fatal("a failed transfer lost no tasks")
	}
	if res.Lost > res.TasksTransferred {
		t.Fatalf("lost %d of %d transferred tasks", res.Lost, res.TasksTransferred)
	}
}

// TestSatAdd32 pins the optimistic bump's saturation.
func TestSatAdd32(t *testing.T) {
	const top = ^uint32(0)
	for _, tc := range []struct {
		q    uint32
		k    int
		want uint32
	}{
		{0, 1, 1},
		{10, maxBatch, 10 + maxBatch},
		{top - 1, 1, top},
		{top - 1, 2, top},
		{top, maxBatch, top},
		{1, 1 << 33, top},
	} {
		if got := satAdd32(tc.q, tc.k); got != tc.want {
			t.Errorf("satAdd32(%d, %d) = %d, want %d", tc.q, tc.k, got, tc.want)
		}
	}
}

// startHTTPDaemon runs an idle daemon with a front door and returns its
// address and a stop function that interrupts it and returns the result.
func startHTTPDaemon(t *testing.T, workers int, maxWall time.Duration) (addr string, stop func() *Result) {
	t.Helper()
	intr := make(chan struct{})
	type outT struct {
		res *Result
		err error
	}
	done := make(chan outT, 1)
	addrCh := make(chan string, 1)
	go func() {
		res, err := Run(Options{
			Params:     stableParams(workers),
			Router:     policy.JSQ{},
			TimeScale:  2000,
			Seed:       31,
			Transport:  cluster.NewChanTransport(workers + 1),
			HTTPAddr:   "127.0.0.1:0",
			Interrupt:  intr,
			MaxWall:    maxWall,
			OnHTTPAddr: func(a string) { addrCh <- a },
		})
		done <- outT{res, err}
	}()
	select {
	case addr = <-addrCh:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never bound its front door")
	}
	return addr, func() *Result {
		close(intr)
		out := <-done
		if out.err != nil {
			t.Fatal(out.err)
		}
		return out.res
	}
}

// TestHTTPBatchBounds is the ROADMAP 7b front-door hardening: a batch
// outside [1, maxBatch] is refused with 400 before anything is allocated
// or bumped, and what is accepted is conserved.
func TestHTTPBatchBounds(t *testing.T) {
	addr, stop := startHTTPDaemon(t, 3, 60*time.Second)
	admitted := 0
	for _, tc := range []struct {
		batch string
		want  int
	}{
		{"0", http.StatusBadRequest},
		{"-1", http.StatusBadRequest},
		{"1", http.StatusOK},
		{strconv.Itoa(maxBatch), http.StatusOK},
		{strconv.Itoa(maxBatch + 1), http.StatusBadRequest},
		{"8589934592", http.StatusBadRequest}, // 1<<33
		{"lots", http.StatusBadRequest},
		{"1e3", http.StatusBadRequest},
	} {
		resp, err := http.Post("http://"+addr+"/task?batch="+tc.batch, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("batch=%s: status %d, want %d", tc.batch, resp.StatusCode, tc.want)
		}
		if resp.StatusCode == http.StatusOK {
			n, _ := strconv.Atoi(tc.batch)
			admitted += n
		}
	}
	res := stop()
	if res.Injected != admitted {
		t.Fatalf("injected %d, the accepted requests carried %d", res.Injected, admitted)
	}
	checkConserved(t, res)
}

// TestIdleDaemonOutlivesMaxWall is ROADMAP 7b: a daemon waiting for its
// first request has nothing outstanding, so MaxWall must not end it. After
// four expiries it still serves a request, and drains on Interrupt.
func TestIdleDaemonOutlivesMaxWall(t *testing.T) {
	const maxWall = 150 * time.Millisecond
	addr, stop := startHTTPDaemon(t, 3, maxWall)
	time.Sleep(4 * maxWall)
	resp, err := http.Post("http://"+addr+"/task?batch=1", "", nil)
	if err != nil {
		t.Fatalf("daemon gone after 4 x MaxWall of idling: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /task: %s", resp.Status)
	}
	res := stop()
	if res.Injected != 1 {
		t.Fatalf("injected %d, want the one HTTP arrival", res.Injected)
	}
	checkConserved(t, res)
}

// blackholeTransport accepts every task bundle and delivers none: the
// dispatcher sees no error, so nothing is declared lost and the admitted
// tasks stay outstanding for ever.
type blackholeTransport struct{ cluster.Transport }

func (blackholeTransport) SendTasks(from, to int, tasks []workload.Task) error { return nil }

// TestWedgedRunHitsMaxWall covers the abort MaxWall exists for: tasks
// outstanding, no counter moving — arrivals the wire swallowed, or a closed
// run's backlog whose initial LBP-1 transfer went the same way.
func TestWedgedRunHitsMaxWall(t *testing.T) {
	const maxWall = 150 * time.Millisecond
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"open", Options{Params: stableParams(3), Trace: burstTrace(10)}},
		{"closed", Options{Params: stableParams(2), InitialLoad: []int{10, 0}, Policy: policy.LBP1{K: 0.5}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.opt
			opt.TimeScale, opt.Seed, opt.MaxWall = 2000, 33, maxWall
			opt.Transport = blackholeTransport{cluster.NewChanTransport(opt.Params.N() + 1)}
			start := time.Now()
			_, err := Run(opt)
			if err == nil || !strings.Contains(err.Error(), "MaxWall") {
				t.Fatalf("wedged run returned %v, want the MaxWall error", err)
			}
			if el := time.Since(start); el > 3*maxWall {
				t.Fatalf("wedge reported after %v, want within %v", el, 3*maxWall)
			}
		})
	}
}

// TestSlowClosedRunOutlivesMaxWall is the other side of the rule: a closed
// run several MaxWalls long that keeps completing tasks is not cut, which
// an unconditional deadline (the testbed's, before it ran on this engine)
// would do.
func TestSlowClosedRunOutlivesMaxWall(t *testing.T) {
	const maxWall = 150 * time.Millisecond
	start := time.Now()
	res, err := Run(Options{
		Params:      stableParams(2),
		InitialLoad: []int{50, 50},
		TimeScale:   4, // a mean service is 12.5 ms of wall time
		Seed:        34,
		Transport:   cluster.NewChanTransport(3),
		MaxWall:     maxWall,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkConserved(t, res)
	if el := time.Since(start); el < 3*maxWall {
		t.Fatalf("run took %v: not several times MaxWall=%v, the test exercised nothing", el, maxWall)
	}
}

// TestClosedRunFailedTransferIsDeclaredLost: the testbed used to discard
// the error of a failed transfer, leaving processed < total for ever and
// the run dying at MaxWall. On this engine the bundle is declared lost.
func TestClosedRunFailedTransferIsDeclaredLost(t *testing.T) {
	tr := newRecording(2)
	tr.failSend = func(k, from int) bool { return from != tr.dispatcher }
	start := time.Now()
	res, err := Run(Options{
		Params:      model.PaperBaseline(),
		Policy:      policy.LBP1{K: 0.5},
		InitialLoad: []int{40, 0},
		TimeScale:   4000,
		Seed:        35,
		Transport:   tr,
		MaxWall:     10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("run took %v after a failed transfer", el)
	}
	checkConserved(t, res)
	if res.Injected != 40 || res.Lost == 0 {
		t.Fatalf("injected %d, lost %d: want 40 injected and the failed transfer's tasks lost", res.Injected, res.Lost)
	}
}

// TestStatePacketsFlow: state packets reach the dispatcher, the one
// endpoint that reads them, and no worker endpoint — nothing drains those.
func TestStatePacketsFlow(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func() (cluster.Transport, error)
	}{
		{"chan", func() (cluster.Transport, error) { return cluster.NewChanTransport(3), nil }},
		{"net", func() (cluster.Transport, error) { return cluster.NewNetTransport(3) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := tc.open()
			if err != nil {
				t.Skipf("loopback sockets unavailable: %v", err)
			}
			defer tr.Close()
			res, err := Run(Options{
				Params:        model.PaperBaseline(),
				InitialLoad:   []int{60, 60},
				StateInterval: 0.5,
				// Slow enough that the report ticker fires before the
				// backlog drains, even under the race detector.
				TimeScale: 500,
				Seed:      1,
				Transport: tr,
				MaxWall:   30 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			checkConserved(t, res)
			if res.StatePackets == 0 {
				t.Fatal("no state packets reached the dispatcher")
			}
			for i := 0; i < 2; i++ {
				if n := len(tr.State(i)); n != 0 {
					t.Fatalf("%d state packets sit unread at worker endpoint %d", n, i)
				}
			}
		})
	}
}

// TestSpinAffordable pins the spin rule's two load-bearing outcomes on the
// 2-core machine that gates the repository (see preciseWait), and its
// boundary.
func TestSpinAffordable(t *testing.T) {
	for _, tc := range []struct {
		cores, workers int
		paced, want    bool
	}{
		{2, 2, false, true},  // the paper's two-node closed run: must spin
		{2, 64, true, false}, // the benchmark's 64-worker open fleet: must not
		{2, 2, true, false},  // two workers and a paced trace driver: three loops
		{2, 3, false, false}, // three-node closed run
		{8, 7, true, true},   // each loop has a core
		{1, 1, false, true},
	} {
		if got := spinAffordable(tc.cores, tc.workers, tc.paced); got != tc.want {
			t.Errorf("spinAffordable(%d cores, %d workers, paced %v) = %v, want %v",
				tc.cores, tc.workers, tc.paced, got, tc.want)
		}
	}
}
