package daemon

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"churnlb/internal/cluster"
	"churnlb/internal/policy"
	"churnlb/internal/workload"
	"churnlb/internal/xrand"
)

// sameRow compares two rows bit by bit.
func sameRow(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestTaskQueueKeepsRowsOfReleasedBundles drives a worker's queue with
// bundles a NetTransport decoded into recycled memory, through a scripted
// mix of push, pop, unpop and takeTail. After every step each bundle the
// queue released is poisoned: the connection decodes as many all-NaN
// frames, of the largest shape the script sends, as the step released, so
// every released pair is overwritten whole. Every queued task, the task in
// service and every task takeTail detached must keep the row it was sent
// with: a bundle released while a task taken from it is in service, or an
// unpop or takeTail that kept a row inside its bundle, shows up as NaN.
func TestTaskQueueKeepsRowsOfReleasedBundles(t *testing.T) {
	tr, err := cluster.NewNetTransport(2)
	if err != nil {
		t.Skipf("loopback sockets unavailable: %v", err)
	}
	defer tr.Close()
	const dim, maxBundle = 4, 6
	gen := workload.NewGenerator(dim, 10, xrand.New(31))
	sent := map[uint64][]float64{} // every real task's row as sent
	recv := func(tasks []workload.Task) cluster.TaskBundle {
		t.Helper()
		if err := tr.SendTasks(0, 1, tasks); err != nil {
			t.Fatal(err)
		}
		select {
		case b := <-tr.Tasks(1):
			return b
		case <-time.After(5 * time.Second):
			t.Fatal("bundle never arrived")
			return cluster.TaskBundle{}
		}
	}
	poison := make([]workload.Task, maxBundle)
	for i := range poison {
		poison[i] = workload.Task{ID: math.MaxUint64, Row: make([]float64, dim)}
		for j := range poison[i].Row {
			poison[i].Row[j] = math.NaN()
		}
	}

	var q taskQueue
	var inService *workload.Task
	var detached []workload.Task
	check := func(step int, op string) {
		t.Helper()
		bad := func(task workload.Task, where string) {
			t.Helper()
			if !sameRow(task.Row, sent[task.ID]) {
				t.Fatalf("step %d (%s): %s task %d has row %v, sent %v", step, op, where, task.ID, task.Row, sent[task.ID])
			}
		}
		for _, b := range q.bundles {
			for _, task := range b.Tasks {
				bad(task, "queued")
			}
		}
		if inService != nil {
			bad(*inService, "in-service")
		}
		for _, task := range detached {
			bad(task, "detached")
		}
	}

	rng := xrand.New(32)
	pops, unpops, takes := 0, 0, 0
	for step := 0; step < 600; step++ {
		var op string
		released := 0
		switch r := rng.Intn(10); {
		case r < 4 || q.len() == 0:
			op = "push"
			tasks := gen.Batch(1 + rng.Intn(maxBundle))
			for _, task := range tasks {
				sent[task.ID] = slices.Clone(task.Row)
			}
			q.push(recv(tasks), float64(step))
		case r < 7:
			op = "pop"
			released = len(q.spent)
			task, _ := q.pop()
			inService = &task
			pops++
		case r < 8 && inService != nil:
			op = "unpop"
			q.unpop(*inService, float64(step))
			inService = nil
			unpops++
		default:
			op = "takeTail"
			detached = append(detached, q.takeTail(1+rng.Intn(2*maxBundle))...)
			takes++
		}
		for range released {
			recv(poison) // decoded into a released pair, never released itself
		}
		check(step, op)
	}
	if pops < 100 || unpops < 20 || takes < 20 {
		t.Fatalf("script ran %d pops, %d unpops and %d takeTails: too few to test anything", pops, unpops, takes)
	}
}

// rowCheckingTransport records every task's row as the dispatcher sends
// it and checks it again at every later send: the eq.-(8) transfers,
// which ship rows out of the sending worker's queue.
type rowCheckingTransport struct {
	cluster.Transport
	dispatcher int
	mu         sync.Mutex
	rows       map[uint64][]float64
	checked    int
	bad        []uint64
}

func (c *rowCheckingTransport) SendTasks(from, to int, tasks []workload.Task) error {
	c.mu.Lock()
	for _, task := range tasks {
		if from == c.dispatcher {
			c.rows[task.ID] = slices.Clone(task.Row)
			continue
		}
		c.checked++
		if !sameRow(task.Row, c.rows[task.ID]) {
			c.bad = append(c.bad, task.ID)
		}
	}
	c.mu.Unlock()
	return c.Transport.SendTasks(from, to, tasks)
}

// TestRecycledRowsSurviveChurn runs a burst over loopback sockets, where
// every worker's bundles decode into recycled memory, on a fleet that
// fails often enough to ship eq.-(8) transfers out of its queues. Every
// transferred task must carry the row the dispatcher sent, and the run
// must conserve its tasks. CI runs it under -race, where a row read after
// its bundle went back to the reader is a reported race.
func TestRecycledRowsSurviveChurn(t *testing.T) {
	const workers, arrivals = 8, 3000
	nt, err := cluster.NewNetTransport(workers + 1)
	if err != nil {
		t.Skipf("loopback sockets unavailable: %v", err)
	}
	tr := &rowCheckingTransport{Transport: nt, dispatcher: dispatcherID(workers), rows: map[uint64][]float64{}}
	defer tr.Close()
	p := stableParams(workers)
	for i := range p.FailRate {
		p.FailRate[i] = 1.0 / 2 // up 2 virtual s, down 1, on average
	}
	res, err := Run(Options{
		Params:    p,
		Router:    policy.PowerOfD{D: 2},
		Policy:    policy.LBP2{K: 1},
		Trace:     burstTrace(arrivals),
		TimeScale: 100,
		Seed:      43,
		Transport: tr,
		MaxWall:   60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkConserved(t, res)
	if res.Injected != arrivals {
		t.Fatalf("injected %d, want %d", res.Injected, arrivals)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.bad) > 0 {
		t.Fatalf("%d of %d transferred tasks left with a row other than the one sent (first: task %d)", len(tr.bad), tr.checked, tr.bad[0])
	}
	if res.Failures < workers || tr.checked == 0 {
		t.Fatalf("%d failures, %d tasks transferred: the burst met too little churn to test anything", res.Failures, tr.checked)
	}
}
