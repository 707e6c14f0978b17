package daemon

import (
	"strings"
	"sync"
	"testing"
	"unsafe"

	"churnlb/internal/cluster"
)

// TestTelSlotIsOneLine pins the layouts the ring's padding is for: a slot
// is one 64-byte line, and the producers' tail, the line every publish
// reads and the consumer's position each start a line of their own.
func TestTelSlotIsOneLine(t *testing.T) {
	if got := unsafe.Sizeof(telSlot{}); got != 64 {
		t.Fatalf("telSlot is %d bytes, want 64", got)
	}
	var q telRing
	if unsafe.Sizeof(uintptr(0)) != 8 {
		return // the line offsets below assume 64-bit words
	}
	if off := unsafe.Offsetof(q.parked); off != 64 {
		t.Fatalf("parked at offset %d, want 64", off)
	}
	if off := unsafe.Offsetof(q.head); off != 128 {
		t.Fatalf("head at offset %d, want 128", off)
	}
}

// TestTelRingOrder runs producers against one consumer on a ring far
// smaller than what they publish, so producers wait on a full ring, and
// checks that every record is applied exactly once, intact, and in its
// producer's own order. Each record carries its producer, its index in
// that producer's stream and two stamps derived from both, so a payload
// read before it was written — or a slot applied twice — shows.
func TestTelRingOrder(t *testing.T) {
	const producers, each, size = 8, 5000, 8
	q := newTelRing(size)
	next := make([]uint64, producers) // the consumer's alone
	var bad []string
	applied := 0
	apply := func(r *record) {
		applied++
		p := int(r.node) - 1
		switch {
		case p < 0 || p >= producers:
			bad = append(bad, "record from no producer")
		case r.id != next[p]:
			bad = append(bad, "out of order")
		case r.t != float64(r.id) || r.t0 != float64(p) || r.kind != recCompleted:
			bad = append(bad, "torn payload")
		default:
			next[p]++
			return
		}
		if len(bad) > 10 {
			panic(strings.Join(bad, "; "))
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		q.consume(stop, apply)
	}()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < each; i++ {
				q.put(record{kind: recCompleted, node: int32(p + 1), id: i, t: float64(i), t0: float64(p)})
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-done
	if len(bad) > 0 {
		t.Fatalf("%d bad records, first: %s", len(bad), bad[0])
	}
	if applied != producers*each {
		t.Fatalf("applied %d records, published %d", applied, producers*each)
	}
	for p, n := range next {
		if n != each {
			t.Fatalf("producer %d: %d of %d records applied", p, n, each)
		}
	}
	waits := q.fullWaits.Load()
	t.Logf("%d full-ring waits, backlog max %d", waits, q.backlogMax)
	if waits == 0 {
		t.Fatal("no producer waited on a full ring: the test exercised no wrap")
	}
	if q.backlogMax > size+producers {
		t.Fatalf("backlog max %d on a ring of %d with %d producers", q.backlogMax, size, producers)
	}
	if b := q.backlog(); b != 0 {
		t.Fatalf("backlog %d after the consumer drained", b)
	}
}

// TestTelemetryOfAnUnadmittedTaskPanics: the ring's order puts every
// task's arrival before its completion, interrupt or loss, so a record
// about an ID the window never registered is an ordering bug. It must
// panic, never pass for a task declared lost, which would leave the run
// waiting for a settlement that never comes until MaxWall.
func TestTelemetryOfAnUnadmittedTaskPanics(t *testing.T) {
	c, err := newRun(Options{Params: stableParams(2), Transport: cluster.NewChanTransport(3)})
	if err != nil {
		t.Fatal(err)
	}
	c.apply(&record{kind: recArrived, node: 0, n: 3, id: 1, t: 0.5}) // tasks 1, 2, 3
	c.apply(&record{kind: recLost, id: 2, t: 0.6})
	c.apply(&record{kind: recCompleted, node: 1, id: 2, t0: 0.6, t: 0.7}) // lost, then delivered: not counted
	c.apply(&record{kind: recCompleted, node: 1, id: 1, t0: 0.6, t: 0.8})
	for _, r := range []record{
		{kind: recCompleted, node: 1, id: 4, t0: 0.8, t: 0.9},
		{kind: recInterrupted, id: 7, t0: 0.8},
		{kind: recLost, id: 4, t: 0.9},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("record kind %d about never-admitted task %d applied without a panic", r.kind, r.id)
				}
			}()
			c.apply(&r)
		}()
	}
	if got := c.processedTotal.Load(); got != 1 || c.processed[1] != 1 {
		t.Fatalf("processed %d (worker 1: %d), want 1", got, c.processed[1])
	}
	if got := c.lost.Load(); got != 1 {
		t.Fatalf("lost %d, want 1", got)
	}
}
