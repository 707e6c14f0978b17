package sim

import (
	"fmt"
	"runtime"
	"testing"

	"churnlb/internal/policy"
	"churnlb/internal/xrand"
)

// TestLedgerStampsEveryFrontInService is the invariant the Ledger's stamp
// rule rests on: from Armed on, after every event, each node the simulator
// holds up with tasks queued has a front task in the ledger, and that task
// carries a first-service stamp. (The rule only ever stamps the front of
// the node a call touched; it is exact because no other node can be left
// unstamped.) Seeds × LBP-2, shipAll and arrival-triggered Dynamic sends ×
// bundle and per-task transfers, on a churning cluster with one node
// starting down and an arrival trace.
func TestLedgerStampsEveryFrontInService(t *testing.T) {
	for _, pc := range []struct {
		name string
		pol  policy.Policy
	}{
		{"lbp2", policy.LBP2{K: 1}},
		{"ship-all", shipAll{}},
		{"dynamic", policy.Dynamic{Base: policy.LBP2{K: 1}}},
	} {
		for _, mode := range []TransferMode{TransferBundle, TransferPerTask} {
			t.Run(pc.name+"/"+mode.String(), func(t *testing.T) {
				events, sent, failures := 0, 0, 0
				for seed := uint64(1); seed <= 20; seed++ {
					p, load := hotspotCluster(12, 2, 60, 2)
					up := make([]bool, len(load))
					for i := range up {
						up[i] = i != 1
					}
					trace := make([]ArrivalAt, 150)
					for k := range trace {
						trace[k] = ArrivalAt{Time: 0.2 * float64(k), Batch: 1 + k%3}
					}
					l := NewLedger(p.N(), newStreamHash())
					var bad error
					res, err := Run(Options{
						Params: p, Policy: pc.pol, InitialLoad: load, InitialUp: up,
						Rand: xrand.NewStream(seed, 17), TransferMode: mode, ArrivalTrace: trace,
						TaskObserver: l,
						probe: func(s *simState, kind EventKind, node int) {
							if !l.armed || bad != nil {
								return
							}
							events++
							for i := range s.hot {
								if !s.hot[i].up || s.hot[i].queue == 0 {
									continue
								}
								if l.q[i].len() == 0 || l.front[i] < 0 {
									bad = fmt.Errorf("seed %d, after %s at node %d, t = %v: node %d is up with %d tasks, its front in the ledger is unstamped",
										seed, kind, node, s.sched.Now(), i, s.hot[i].queue)
									return
								}
							}
						},
					})
					if err != nil {
						t.Fatal(err)
					}
					if bad != nil {
						t.Fatal(bad)
					}
					sent += res.TransfersSent
					failures += res.Failures
				}
				if events == 0 || sent == 0 || failures == 0 {
					t.Fatalf("%d events checked, %d transfers, %d failures: the runs exercise no episode", events, sent, failures)
				}
			})
		}
	}
}

// TestLedgerBytesPerQueuedTask pins the ledger's footprint: a fresh ledger
// queueing 10⁵ tasks over 100 nodes allocates under 36 B per task. Each
// node's deque grows by append to 1000 tasks, doubling up to 512 slots and
// then by about a quarter (832, 1232): some 3100 slots' worth of growth,
// about 25 B a task at 8 bytes a slot and about 50 at the 16-byte records
// the ledger held before a task's first-service stamp moved to its node.
func TestLedgerBytesPerQueuedTask(t *testing.T) {
	const nodes, tasks = 100, 100_000
	idleLedgers.mu.Lock()
	idleLedgers.items = nil
	idleLedgers.mu.Unlock()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l := NewLedger(nodes, discardSink{})
	for k := 0; k < tasks; k++ {
		l.TasksArrived(k%nodes, 1, float64(k))
	}
	runtime.ReadMemStats(&after)
	perTask := float64(after.TotalAlloc-before.TotalAlloc) / tasks
	t.Logf("%.1f B per queued task", perTask)
	if perTask >= 36 {
		t.Errorf("the ledger allocated %.1f B per queued task, want under 36", perTask)
	}
	l.Release()
}
