package cluster

import (
	"math"
	"testing"
	"time"

	"churnlb/internal/workload"
	"churnlb/internal/xrand"
)

func newNetTransportOrSkip(t *testing.T, n int) *NetTransport {
	t.Helper()
	tr, err := NewNetTransport(n)
	if err != nil {
		t.Skipf("loopback sockets unavailable: %v", err)
	}
	return tr
}

func TestNetTransportTaskDelivery(t *testing.T) {
	tr := newNetTransportOrSkip(t, 2)
	defer tr.Close()
	g := workload.NewGenerator(8, 20, xrand.New(1))
	tasks := g.Batch(25)
	if err := tr.SendTasks(0, 1, tasks); err != nil {
		t.Fatal(err)
	}
	select {
	case b := <-tr.Tasks(1):
		if b.From != 0 || len(b.Tasks) != 25 {
			t.Fatalf("bundle from=%d n=%d", b.From, len(b.Tasks))
		}
		for i := range tasks {
			if b.Tasks[i].ID != tasks[i].ID || b.Tasks[i].Precision != tasks[i].Precision {
				t.Fatalf("task %d corrupted in transit", i)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("TCP task bundle never arrived")
	}
}

func TestNetTransportMultipleFrames(t *testing.T) {
	tr := newNetTransportOrSkip(t, 2)
	defer tr.Close()
	g := workload.NewGenerator(4, 10, xrand.New(2))
	for i := 0; i < 5; i++ {
		if err := tr.SendTasks(0, 1, g.Batch(3)); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	deadline := time.After(5 * time.Second)
	for got < 15 {
		select {
		case b := <-tr.Tasks(1):
			got += len(b.Tasks)
		case <-deadline:
			t.Fatalf("received %d of 15 tasks", got)
		}
	}
}

func TestNetTransportStateDelivery(t *testing.T) {
	tr := newNetTransportOrSkip(t, 3)
	defer tr.Close()
	pkt := StatePacket{From: 0, Seq: 7, QueueLen: 55, Up: true, RateMilli: 1080, TimeMs: 99}
	// UDP may drop; retry a few times before declaring failure.
	for attempt := 0; attempt < 20; attempt++ {
		tr.SendState(0, 1, pkt)
		select {
		case got := <-tr.State(1):
			if got != pkt {
				t.Fatalf("packet corrupted: %+v", got)
			}
			if n := len(tr.State(2)); n != 0 {
				t.Fatalf("%d packets addressed to node 1 reached node 2", n)
			}
			return
		case <-time.After(250 * time.Millisecond):
		}
	}
	t.Fatal("no state packet delivered over loopback UDP after 20 attempts")
}

func TestNetTransportInvalidDestination(t *testing.T) {
	tr := newNetTransportOrSkip(t, 2)
	defer tr.Close()
	if err := tr.SendTasks(0, 5, nil); err == nil {
		t.Fatal("invalid destination accepted")
	}
}

func TestNetTransportCloseIdempotent(t *testing.T) {
	tr := newNetTransportOrSkip(t, 2)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSendTasksCallerReuse pins the Transport contract the dispatcher's
// row slabs rest on: once SendTasks returns, the task slice and every row
// in it are the caller's again. Each round fills the caller's memory — one
// slice, rows carved from one slab — sends it, then overwrites every row
// with NaN and every task with junk before reading the receiver's bundle,
// which must still equal what was sent. A transport that kept a reference
// to the caller's memory would deliver the overwrite.
func TestSendTasksCallerReuse(t *testing.T) {
	const tasks, dim = 40, 16
	for _, tc := range []struct {
		name string
		tr   func() Transport
	}{
		{"chan", func() Transport { return NewChanTransport(2) }},
		{"net", func() Transport { return newNetTransportOrSkip(t, 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.tr()
			defer tr.Close()
			g := workload.NewGenerator(dim, 50, xrand.New(15))
			bundle := make([]workload.Task, tasks)
			slab := make([]float64, tasks*dim)
			for round := 0; round < 3; round++ {
				want := g.Batch(tasks) // rows of their own, never overwritten
				for i, w := range want {
					row := slab[i*dim : (i+1)*dim : (i+1)*dim]
					copy(row, w.Row)
					bundle[i] = workload.Task{ID: w.ID, Precision: w.Precision, Row: row}
				}
				if err := tr.SendTasks(0, 1, bundle); err != nil {
					t.Fatal(err)
				}
				for i := range slab {
					slab[i] = math.NaN()
				}
				for i := range bundle {
					bundle[i] = workload.Task{ID: math.MaxUint64, Precision: math.MaxUint32, Row: slab[:dim]}
				}
				var got TaskBundle
				select {
				case got = <-tr.Tasks(1):
				case <-time.After(5 * time.Second):
					t.Fatalf("round %d: bundle never arrived", round)
				}
				if got.From != 0 || len(got.Tasks) != tasks {
					t.Fatalf("round %d: bundle from %d with %d tasks", round, got.From, len(got.Tasks))
				}
				for i, w := range want {
					r := got.Tasks[i]
					if r.ID != w.ID || r.Precision != w.Precision || len(r.Row) != dim {
						t.Fatalf("round %d task %d: got (%d, %d, %d floats), sent (%d, %d, %d)",
							round, i, r.ID, r.Precision, len(r.Row), w.ID, w.Precision, dim)
					}
					for j := range w.Row {
						if math.Float64bits(r.Row[j]) != math.Float64bits(w.Row[j]) {
							t.Fatalf("round %d task %d row[%d] = %v, sent %v", round, i, j, r.Row[j], w.Row[j])
						}
					}
				}
			}
		})
	}
}

// TestReceiveAllocatesNothing pins the recycled receive path: on a warm
// connection whose receiver releases every bundle, a frame costs no
// allocation end to end — the sender's encode and write, the reader's
// read and decode, and the delivery.
func TestReceiveAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	tr := newNetTransportOrSkip(t, 2)
	defer tr.Close()
	sent := workload.NewGenerator(16, 50, xrand.New(16)).Batch(16)
	var bad int
	frame := func() {
		if err := tr.SendTasks(0, 1, sent); err != nil {
			t.Fatal(err)
		}
		b := <-tr.Tasks(1)
		if b.bufs == nil || len(b.Tasks) != len(sent) || b.Tasks[15].ID != sent[15].ID || b.Tasks[15].Row[15] != sent[15].Row[15] {
			bad++
		}
		b.Release()
	}
	for i := 0; i < 2*recycleFrames; i++ {
		frame() // dial, grow the frame buffer, fill the free list
	}
	if a := testing.AllocsPerRun(200, frame); a != 0 {
		t.Fatalf("%v allocations per frame on a warm connection, want 0", a)
	}
	if bad != 0 {
		t.Fatalf("%d frames delivered a wrong or unrecycled bundle", bad)
	}
}

// TestReleaseRecyclesFrames walks one connection's free list: a released
// bundle's memory carries the next frame, whole and correct; a bundle
// nobody releases and a frame above retainFrame get memory of their own;
// and Release is a no-op for a ChanTransport bundle and after Close.
func TestReleaseRecyclesFrames(t *testing.T) {
	tr := newNetTransportOrSkip(t, 2)
	g := workload.NewGenerator(8, 50, xrand.New(17))
	recv := func(tasks []workload.Task) TaskBundle {
		t.Helper()
		if err := tr.SendTasks(0, 1, tasks); err != nil {
			t.Fatal(err)
		}
		var b TaskBundle
		select {
		case b = <-tr.Tasks(1):
		case <-time.After(5 * time.Second):
			t.Fatal("bundle never arrived")
		}
		if !sameTasks(b.Tasks, tasks) {
			t.Fatal("bundle differs from what was sent")
		}
		return b
	}
	first := recv(g.Batch(4))
	kept := recv(g.Batch(4)) // never released: the free list is empty again
	if &kept.Tasks[0] == &first.Tasks[0] {
		t.Fatal("two live bundles share memory")
	}
	first.Release()
	second := recv(g.Batch(3)) // a smaller frame fits the released pair
	if &second.Tasks[0] != &first.Tasks[0] || &second.Tasks[0].Row[0] != &first.Tasks[0].Row[0] {
		t.Fatal("the released pair did not carry the next frame")
	}
	second.Release()
	big := recv(g.Batch(retainFrame/(workload.MinTaskWire+8*8) + 1)) // one frame above retainFrame
	if big.bufs != nil {
		t.Fatal("a frame above retainFrame was decoded into recycled memory")
	}
	big.Release()
	third := recv(g.Batch(4))
	if &third.Tasks[0] != &first.Tasks[0] {
		t.Fatal("the pair released before the big frame was not reused")
	}
	tr.Close()
	third.Release() // after Close: nothing takes it, nothing blocks
	kept.Release()

	ct := NewChanTransport(2)
	defer ct.Close()
	if err := ct.SendTasks(0, 1, g.Batch(2)); err != nil {
		t.Fatal(err)
	}
	cb := <-ct.Tasks(1)
	if cb.bufs != nil {
		t.Fatal("a ChanTransport bundle carries recycled memory")
	}
	cb.Release()
}
