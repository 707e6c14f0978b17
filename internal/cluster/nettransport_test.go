package cluster

import (
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
