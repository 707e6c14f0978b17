package daemon

import (
	"slices"
	"testing"

	"churnlb/internal/workload"
)

func ids(tasks []workload.Task) []uint64 {
	out := make([]uint64, len(tasks))
	for i := range tasks {
		out[i] = tasks[i].ID
	}
	return out
}

func bundle(first, n uint64) []workload.Task {
	b := make([]workload.Task, n)
	for i := range b {
		b[i].ID = first + uint64(i)
	}
	return b
}

// TestTaskQueueOrder walks the queue through every operation the worker
// loops use and checks FIFO order across bundle boundaries.
func TestTaskQueueOrder(t *testing.T) {
	var q taskQueue
	q.push(bundle(1, 3)) // 1 2 3
	q.push(nil)          // an empty frame queues nothing
	q.push(bundle(4, 1)) // 4
	q.push(bundle(5, 4)) // 5 6 7 8
	if q.len() != 8 {
		t.Fatalf("len %d, want 8", q.len())
	}
	if got := q.pop().ID; got != 1 {
		t.Fatalf("popped %d, want 1", got)
	}
	// A failure interrupt puts the task in service back at the head.
	q.unpop(workload.Task{ID: 1})
	if got := q.pop().ID; got != 1 {
		t.Fatalf("popped %d after unpop, want 1", got)
	}
	// An eq.-(8) transfer takes the tail, in order, across bundles.
	if got := ids(q.takeTail(5)); !slices.Equal(got, []uint64{4, 5, 6, 7, 8}) {
		t.Fatalf("takeTail(5) = %v", got)
	}
	if got := ids(q.takeTail(10)); !slices.Equal(got, []uint64{2, 3}) {
		t.Fatalf("takeTail beyond the queue = %v", got)
	}
	if q.len() != 0 || q.takeTail(1) != nil {
		t.Fatalf("queue not empty: len %d", q.len())
	}
	// Reuse after draining, partial tail of a single bundle.
	q.push(bundle(9, 4))
	if got := ids(q.takeTail(1)); !slices.Equal(got, []uint64{12}) {
		t.Fatalf("takeTail(1) = %v", got)
	}
	for want := uint64(9); want <= 11; want++ {
		if got := q.pop().ID; got != want {
			t.Fatalf("popped %d, want %d", got, want)
		}
	}
	if q.len() != 0 || len(q.bundles) != 0 {
		t.Fatalf("drained queue holds %d tasks in %d bundles", q.len(), len(q.bundles))
	}
}

// TestTaskWindow covers the in-system window: sequential registration,
// out-of-order departure, a straggler stretching the window across a
// growth, and IDs that are not (or no longer) in the system.
func TestTaskWindow(t *testing.T) {
	w := newTaskWindow()
	const n = 5000 // several doublings past the initial ring
	for id := uint64(1); id <= n; id++ {
		w.add(id, float64(id))
	}
	if w.get(0) != nil || w.get(n+1) != nil {
		t.Fatal("IDs outside the window resolved")
	}
	// Everyone but the straggler (ID 1) leaves, newest first.
	for id := uint64(n); id >= 2; id-- {
		m := w.get(id)
		if m == nil || m.arrival != float64(id) || m.firstService >= 0 {
			t.Fatalf("task %d: record %+v", id, m)
		}
		w.remove(m)
		if w.get(id) != nil {
			t.Fatalf("task %d still in system after remove", id)
		}
	}
	if w.base != 1 || w.next != n+1 {
		t.Fatalf("window [%d, %d), want [1, %d): the straggler holds the base", w.base, w.next, n+1)
	}
	m := w.get(1)
	m.firstService = 0.5 // stamped by an interrupt
	if got := w.get(1).firstService; got != 0.5 {
		t.Fatalf("stamp lost: %v", got)
	}
	w.remove(m)
	if w.base != w.next {
		t.Fatalf("window [%d, %d) not empty after the straggler left", w.base, w.next)
	}
	// The sequence goes on where it stopped, in the grown ring.
	w.add(n+1, 7)
	if m := w.get(n + 1); m == nil || m.arrival != 7 {
		t.Fatalf("task after the drain: %+v", m)
	}
	if w.get(1) != nil {
		t.Fatal("a departed task resolved again")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-sequence registration accepted")
		}
	}()
	w.add(n+5, 8)
}
