package daemon

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

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

// TestRunInterruptMidWait closes Interrupt while the trace driver sleeps
// towards its next entry — where a paced run almost always is when a
// signal lands — and the run must still report the cut.
func TestRunInterruptMidWait(t *testing.T) {
	intr := make(chan struct{})
	trace := uniformTrace(10, 100, 1) // 1000 entries, 10 s of wall time at TimeScale 10
	stop := time.AfterFunc(300*time.Millisecond, func() { close(intr) })
	defer stop.Stop()
	res, err := Run(Options{
		Params:    stableParams(3),
		Trace:     trace,
		TimeScale: 10,
		Seed:      5,
		Transport: cluster.NewChanTransport(4),
		Interrupt: intr,
		MaxWall:   60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected >= len(trace) {
		t.Fatalf("interrupt did not cut the stream: %d injected", res.Injected)
	}
	if !res.Interrupted {
		t.Fatalf("run cut after %d of %d entries did not report the interrupt", res.Injected, len(trace))
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
	if resp, err = http.Get("http://" + addr + "/metrics"); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if _, ok := m["telemetry_backlog"].(float64); err != nil || !ok || m["injected"] != float64(arrivals) {
		t.Fatalf("GET /metrics: %v %v, want telemetry_backlog and %d injected", err, m, arrivals)
	}

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

// capturingTransport wraps a Transport and keeps a deep copy of every
// task that reaches a worker, in the order the worker's task channel
// delivers it. One forwarder per worker writes that worker's got; read it
// after Close.
type capturingTransport struct {
	cluster.Transport
	out  []chan cluster.TaskBundle
	done chan struct{}
	wg   sync.WaitGroup
	got  [][]workload.Task // per worker
}

func newCapturing(inner cluster.Transport, workers int) *capturingTransport {
	c := &capturingTransport{
		Transport: inner,
		out:       make([]chan cluster.TaskBundle, workers),
		done:      make(chan struct{}),
		got:       make([][]workload.Task, workers),
	}
	for i := range c.out {
		c.out[i] = make(chan cluster.TaskBundle)
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			for b := range inner.Tasks(i) {
				for _, task := range b.Tasks {
					task.Row = slices.Clone(task.Row)
					c.got[i] = append(c.got[i], task)
				}
				select {
				case c.out[i] <- b:
				case <-c.done:
					return
				}
			}
		}()
	}
	return c
}

func (c *capturingTransport) Tasks(i int) <-chan cluster.TaskBundle {
	if i < len(c.out) {
		return c.out[i]
	}
	return c.Transport.Tasks(i)
}

// Close stops the forwarders, then the transport under them.
func (c *capturingTransport) Close() error {
	close(c.done)
	err := c.Transport.Close()
	c.wg.Wait()
	return err
}

// TestCoalescingKeepsRouting pins "same routing, different framing, same
// tasks": with gossip effectively off, the dispatcher's view is its own
// optimistic bumps, so what each worker receives — every task's ID,
// precision and row, in order — must equal an independent replay of
// route-then-bump per arrival on the same rng stream, minting each task
// from the same generator into a row of its own: the sequence the
// one-frame-per-arrival dispatcher produced. The burst spans many flushes
// of every worker, so each slab is reused many times, on both transports.
func TestCoalescingKeepsRouting(t *testing.T) {
	const (
		workers, arrivals = 5, 40 * bundleCap
		seed              = 23
	)
	p := stableParams(workers)
	router := policy.PowerOfD{D: 2}

	want := make([][]workload.Task, workers)
	view := model.SnapshotView{State: model.State{Queues: make([]int, workers), Up: make([]bool, workers)}}
	for i := range view.State.Up {
		view.State.Up[i] = true
	}
	rng := xrand.NewStream(seed, xrand.StreamDispatcher)
	gen := workload.NewGenerator(taskDim, taskPrecision, xrand.NewStream(seed, xrand.StreamTaskGen))
	for i := 0; i < arrivals; i++ {
		node := router.Route(view, p, rng)
		view.State.Queues[node]++
		want[node] = append(want[node], gen.Next())
	}

	for _, sockets := range []bool{false, true} {
		var inner cluster.Transport = cluster.NewChanTransport(workers + 1)
		if sockets {
			nt, err := cluster.NewNetTransport(workers + 1)
			if err != nil {
				t.Skipf("loopback sockets unavailable: %v", err)
			}
			inner = nt
		}
		tr := newCapturing(inner, workers)
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
		tr.Close()
		if err != nil {
			t.Fatal(err)
		}
		checkConserved(t, res)
		if res.StatePackets != 0 {
			t.Fatalf("%d state packets reached the dispatcher; the replay assumes none", res.StatePackets)
		}
		for i := range want {
			got := tr.got[i]
			if len(got) != len(want[i]) || res.Processed[i] != len(want[i]) {
				t.Fatalf("sockets %v, worker %d: received %d, processed %d, replay says %d",
					sockets, i, len(got), res.Processed[i], len(want[i]))
			}
			for k, w := range want[i] {
				g := got[k]
				if g.ID != w.ID || g.Precision != w.Precision || !slices.Equal(g.Row, w.Row) {
					t.Fatalf("sockets %v, worker %d task %d: received (%d, %d, %v), replay minted (%d, %d, %v)",
						sockets, i, k, g.ID, g.Precision, g.Row, w.ID, w.Precision, w.Row)
				}
			}
		}
	}
}

// discardTransport accepts every bundle and delivers none: what admission
// and flush cost on their own.
type discardTransport struct{ cluster.Transport }

func (discardTransport) SendTasks(from, to int, tasks []workload.Task) error { return nil }

// TestAdmitAllocatesNothing pins the trace driver's path — route, mint,
// publish the arrival, append to the bundle, flush at bundleCap — at zero
// heap allocations per admitted task once every worker's bundle and slab
// are warm. The run is built but not served: no consumer drains the
// telemetry ring, so after the warm-up the test gives the run an empty
// ring that the measured arrivals fit in, and counts them in one
// AllocsPerRun call, whose count is then exact.
func TestAdmitAllocatesNothing(t *testing.T) {
	const workers = 4
	c, err := newRun(Options{
		Params:    stableParams(workers),
		Router:    policy.PowerOfD{D: 2},
		Trace:     burstTrace(1),
		Seed:      24,
		Transport: discardTransport{cluster.NewChanTransport(workers + 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	admit := func(tasks int) {
		for i := 0; i < tasks; i++ {
			if err := c.admitTraced(1, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	admit(4 * workers * bundleCap)
	for node := range c.pending {
		if cap(c.pending[node]) < bundleCap || cap(c.slabs[node]) != slabFloats {
			t.Fatalf("worker %d not warm: bundle capacity %d, slab capacity %d", node, cap(c.pending[node]), cap(c.slabs[node]))
		}
	}
	c.tel = newTelRing(telCap)
	const tasks = telCap / 2 // AllocsPerRun runs the function twice
	if allocs := testing.AllocsPerRun(1, func() { admit(tasks) }); allocs != 0 {
		t.Fatalf("%v allocations for %d admitted tasks", allocs, tasks)
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

// TestLongServiceOutlivesMaxWall: a worker waiting towards the paced due
// instant of a long service is progress, though no counter moves. The
// seed is picked so that the first service takes at least 2 virtual s,
// 200 ms of wall time: several MaxWall periods with nothing settled.
func TestLongServiceOutlivesMaxWall(t *testing.T) {
	const (
		maxWall   = 30 * time.Millisecond
		timeScale = 10
		rate      = 1.0
	)
	var seed uint64
	var first float64
	for first < 2 {
		seed++
		first = xrand.NewStream(seed, xrand.WorkerStream(0, xrand.WorkerService)).Exp(rate)
	}
	start := time.Now()
	res, err := Run(Options{
		Params:      model.Params{ProcRate: []float64{rate}, FailRate: []float64{0}, RecRate: []float64{0}},
		InitialLoad: []int{3},
		TimeScale:   timeScale,
		Seed:        seed,
		Transport:   cluster.NewChanTransport(2),
		MaxWall:     maxWall,
	})
	if err != nil {
		t.Fatalf("seed %d (first service %.2f virtual s): %v", seed, first, err)
	}
	checkConserved(t, res)
	if el, long := time.Since(start), time.Duration(first/timeScale*float64(time.Second)); el < long {
		t.Fatalf("run took %v, less than its first service of %v", el, long)
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

// serviceDraws returns the first k service times worker id draws at rate.
func serviceDraws(seed uint64, id int, rate float64, k int) []float64 {
	rng := xrand.NewStream(seed, xrand.WorkerStream(id, xrand.WorkerService))
	out := make([]float64, k)
	for i := range out {
		out[i] = rng.Exp(rate)
	}
	return out
}

// TestPacedStartIsCausal pins the two bounds on a paced start: no task
// starts before it reached the worker, and none before the worker's
// previous paced completion. One worker takes five arrivals a virtual
// second apart and then, at v = 20, a burst. Every wait is then
// non-negative (a start taken from the server's last completion alone
// would start the first arrival at 0, a virtual second before it was
// admitted), and the run cannot end before the burst's instant plus the
// sum of the burst's service draws (a start taken from the arrival alone
// would serve the burst in parallel, all done within one service time).
func TestPacedStartIsCausal(t *testing.T) {
	const (
		seed   = 41
		paced  = 5
		burst  = 200
		burstV = 20.0
	)
	p := stableParams(1)
	var trace []sim.ArrivalAt
	for v := 1.0; v <= paced; v++ {
		trace = append(trace, sim.ArrivalAt{Time: v, Batch: 1})
	}
	trace = append(trace, sim.ArrivalAt{Time: burstV, Batch: burst})
	res, err := Run(Options{
		Params:    p,
		Trace:     trace,
		TimeScale: 200,
		Seed:      seed,
		Transport: cluster.NewChanTransport(2),
		MaxWall:   60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkConserved(t, res)
	if res.Summary.Completed != paced+burst {
		t.Fatalf("%d of %d tasks completed", res.Summary.Completed, paced+burst)
	}
	if res.Summary.MeanWait < 0 {
		t.Fatalf("mean wait %v: a task started before it reached the worker", res.Summary.MeanWait)
	}
	// No failures, so the worker drew one service per task, in order.
	busy := burstV
	for _, s := range serviceDraws(seed, 0, p.ProcRate[0], paced+burst)[paced:] {
		busy += s
	}
	if res.Summary.Elapsed < busy {
		t.Fatalf("run ended at %v, before the burst's %v of service from v = %v was done",
			res.Summary.Elapsed, busy-burstV, burstV)
	}
}

// TestChurnMidBurstConserves lands failures in the middle of a burst: the
// fleet is far behind its arrivals, so workers complete strings of
// already-due tasks without waiting while failures interrupt them and
// eq.-(8) transfers carry their backlogs off. Every task is still
// executed exactly once or declared lost.
func TestChurnMidBurstConserves(t *testing.T) {
	const workers, arrivals = 8, 3000
	p := stableParams(workers)
	for i := range p.FailRate {
		p.FailRate[i] = 1.0 / 2 // up 2 virtual s, down 1, on average
	}
	res, err := Run(Options{
		Params:    p,
		Router:    policy.PowerOfD{D: 2},
		Policy:    policy.LBP2{K: 1},
		Trace:     burstTrace(arrivals),
		TimeScale: 100, // the burst takes ~20 virtual s, 0.2 s of wall time
		Seed:      42,
		Transport: cluster.NewChanTransport(workers + 1),
		MaxWall:   60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkConserved(t, res)
	if res.Injected != arrivals || res.Lost != 0 {
		t.Fatalf("injected %d lost %d, want %d and 0", res.Injected, res.Lost, arrivals)
	}
	if res.Failures < workers || res.TasksTransferred == 0 {
		t.Fatalf("%d failures, %d tasks transferred: the burst met too little churn to test anything",
			res.Failures, res.TasksTransferred)
	}
}

// TestBurstArmsFewTimers counts the timer waits a worker arms. A backlog
// queued at t = 0 is a burst all due at once; at 10 ns of wall time per
// service no worker loop keeps up with its due instants, and a paced
// worker completes every task already due without arming a timer, where
// one relative wait per task arms one per task. (At the benchmark's 1 µs,
// and down to 0.2 µs, a worker whose telemetry is one record on a ring
// sometimes catches up with the clock and waits legitimately.) Measured
// on 2 vCPUs: no wait for 4000 tasks in 100 runs on 2 Ps, 100 on one P
// and 30 under the race detector. The bound is four times that, so a
// single wait fails.
func TestBurstArmsFewTimers(t *testing.T) {
	const tasks = 4000
	p := stableParams(1)
	p.ProcRate[0] = 100000 // mean service 10 µs virtual, 10 ns of wall time
	c, err := newRun(Options{
		Params:      p,
		InitialLoad: []int{tasks},
		TimeScale:   1000,
		Seed:        43,
		Transport:   cluster.NewChanTransport(2),
		MaxWall:     60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.serve()
	if err != nil {
		t.Fatal(err)
	}
	checkConserved(t, res)
	waits := c.workers[0].waits
	t.Logf("%d timer waits for %d tasks", waits, tasks)
	if waits > 0 {
		t.Fatalf("%d timer waits for %d tasks", waits, tasks)
	}
}

// TestNonFiniteOptionsRejected: zero means the default for TimeScale,
// StateInterval and Window, but NaN and ±Inf are errors naming the field,
// and so is a negative Window.
// A NaN time scale used to slip past the default (NaN <= 0 is false) and
// leave a run that never finished.
func TestNonFiniteOptionsRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		field string
		set   func(*Options)
	}{
		{"TimeScale", func(o *Options) { o.TimeScale = nan }},
		{"TimeScale", func(o *Options) { o.TimeScale = inf }},
		{"StateInterval", func(o *Options) { o.StateInterval = -inf }},
		{"StateInterval", func(o *Options) { o.StateInterval = nan }},
		{"Window", func(o *Options) { o.Window = nan }},
		{"Window", func(o *Options) { o.Window = inf }},
		{"Window", func(o *Options) { o.Window = -1 }},
	} {
		opt := Options{Params: stableParams(2), Trace: burstTrace(4), Transport: cluster.NewChanTransport(3)}
		tc.set(&opt)
		if _, err := newRun(opt); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s %v/%v/%v: got %v, want an error naming %s",
				tc.field, opt.TimeScale, opt.StateInterval, opt.Window, err, tc.field)
		}
	}
	c, err := newRun(Options{Params: stableParams(2), Trace: burstTrace(4), Transport: cluster.NewChanTransport(3)})
	if err != nil {
		t.Fatal(err)
	}
	if c.opt.TimeScale != 200 || c.opt.StateInterval != 1 {
		t.Fatalf("zero options resolved to TimeScale %v StateInterval %v, want the defaults 200 and 1",
			c.opt.TimeScale, c.opt.StateInterval)
	}
}

// TestArrivalBalancerRefused: nothing in the live engine calls OnArrival,
// so a dynamic policy used to run as its base policy while its twin
// rebalanced at every arrival. newRun refuses it, naming the policy.
func TestArrivalBalancerRefused(t *testing.T) {
	pol := policy.Dynamic{Base: policy.LBP2{K: 1}}
	_, err := newRun(Options{Params: stableParams(2), Policy: pol, Trace: burstTrace(4), Transport: cluster.NewChanTransport(3)})
	if err == nil || !strings.Contains(err.Error(), pol.Name()) {
		t.Fatalf("got %v, want an error naming %s", err, pol.Name())
	}
}

// TestArrivalBudget: a run is refused before anything is minted when its
// backlog or one arrival's batch passes MaxBacklog, or its backlog and
// trace together pass the int32 task counters; the error names the cap.
// Each refused case used to be run: the first two minted until the
// process died out of memory.
func TestArrivalBudget(t *testing.T) {
	if got := int(unsafe.Sizeof(workload.Task{})) + 8*taskDim + int(unsafe.Sizeof(taskMeta{})); got != taskBytes {
		t.Fatalf("a minted task holds %d bytes, taskBytes says %d", got, taskBytes)
	}
	many := make([]sim.ArrivalAt, math.MaxInt32/MaxBacklog+1)
	for i := range many {
		many[i].Batch = MaxBacklog
	}
	// exact is math.MaxInt32 tasks to the last.
	exact := append(many[:len(many)-1:len(many)-1], sim.ArrivalAt{Batch: math.MaxInt32 % MaxBacklog})
	for _, tc := range []struct {
		name, cap string
		set       func(*Options)
	}{
		{"backlog", "backlog cap", func(o *Options) { o.InitialLoad = []int{1 << 40, 0} }},
		{"backlog over two workers", "backlog cap", func(o *Options) { o.InitialLoad = []int{MaxBacklog, 1} }},
		{"one batch", "1048576-task cap", func(o *Options) { o.Trace = []sim.ArrivalAt{{Batch: 1 << 40}} }},
		{"default batch", "1048576-task cap", func(o *Options) { o.Trace, o.Batch = []sim.ArrivalAt{{}}, MaxBacklog+1 }},
		{"backlog and trace", "int32 task counters", func(o *Options) { o.Trace = many }},
		{"trace over the backlog", "int32 task counters", func(o *Options) { o.InitialLoad, o.Trace = []int{1, 0}, exact }},
	} {
		opt := Options{Params: stableParams(2), Transport: cluster.NewChanTransport(3), MaxWall: 10 * time.Second}
		tc.set(&opt)
		if _, err := Run(opt); err == nil || !strings.Contains(err.Error(), tc.cap) {
			t.Errorf("%s: got %v, want an error naming the %s", tc.name, err, tc.cap)
		}
	}
	// At the caps, exactly: accepted (newRun mints nothing, so this is cheap).
	for _, opt := range []Options{
		{Params: stableParams(2), InitialLoad: []int{MaxBacklog - 1, 1}},
		{Params: stableParams(2), Trace: exact},
		{Params: stableParams(2), Trace: []sim.ArrivalAt{{}}, Batch: MaxBacklog},
	} {
		opt.Transport = cluster.NewChanTransport(3)
		if _, err := newRun(opt); err != nil {
			t.Errorf("a run at the cap refused: %v", err)
		}
	}
}
