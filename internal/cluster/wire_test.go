package cluster

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"churnlb/internal/workload"
	"churnlb/internal/xrand"
)

// TestTaskFrameRoundTrip pins AppendTaskFrame/DecodeTaskFrame as exact
// inverses across task counts, including the empty frame.
func TestTaskFrameRoundTrip(t *testing.T) {
	g := workload.NewGenerator(6, 15, xrand.New(9))
	for _, n := range []int{0, 1, 3, 40} {
		tasks := g.Batch(n)
		frame := AppendTaskFrame(nil, 7, tasks)
		size := binary.BigEndian.Uint32(frame)
		if int(size) != len(frame)-4 {
			t.Fatalf("n=%d: length prefix %d, payload %d", n, size, len(frame)-4)
		}
		from, got, err := DecodeTaskFrame(frame[4:])
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if from != 7 || len(got) != n {
			t.Fatalf("n=%d: from=%d len=%d", n, from, len(got))
		}
		for i := range got {
			if got[i].ID != tasks[i].ID || got[i].Precision != tasks[i].Precision ||
				len(got[i].Row) != len(tasks[i].Row) {
				t.Fatalf("n=%d: task %d corrupted", n, i)
			}
		}
	}
}

// TestDecodeTaskFrameRejects exercises the corruption paths: short
// headers, task counts larger than the payload can hold (the unbounded-
// allocation vector), truncated task records and trailing garbage. All
// must error — never desync or allocate per the advertised count.
func TestDecodeTaskFrameRejects(t *testing.T) {
	g := workload.NewGenerator(4, 10, xrand.New(3))
	good := AppendTaskFrame(nil, 1, g.Batch(2))[4:]
	cases := []struct {
		name    string
		payload []byte
		want    string
	}{
		{"empty", nil, "truncated"},
		{"short-header", []byte{0, 1, 0}, "truncated"},
		{"oversized-count", func() []byte {
			p := append([]byte(nil), good...)
			binary.BigEndian.PutUint32(p[2:], 0xFFFFFFFF)
			return p
		}(), "advertises"},
		{"count-beyond-payload", func() []byte {
			p := append([]byte(nil), good...)
			binary.BigEndian.PutUint32(p[2:], 1000)
			return p
		}(), "advertises"},
		{"truncated-task", good[:len(good)-5], ""},
		{"trailing-bytes", append(append([]byte(nil), good...), 0xAB), "trailing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := DecodeTaskFrame(tc.payload)
			if err == nil {
				t.Fatal("corrupt payload accepted")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// FuzzDecodeTaskFrame throws arbitrary bytes at the frame decoder: it
// must never panic or allocate unboundedly, and everything it accepts
// must re-encode to the identical payload. Each input is also decoded
// into dirty buffers, as a connection's recycled decode reuses them — one
// roomy enough to be reused, one too small for most inputs — and must
// give what the fresh decode gives: the same sender, tasks and row bits,
// or the same error.
func FuzzDecodeTaskFrame(f *testing.F) {
	g := workload.NewGenerator(3, 10, xrand.New(5))
	f.Add(AppendTaskFrame(nil, 2, g.Batch(3))[4:])
	f.Add(AppendTaskFrame(nil, 0, nil)[4:])
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 1, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, payload []byte) {
		from, tasks, err := DecodeTaskFrame(payload)
		for _, room := range []int{len(payload), 1} {
			dirtyTasks, dirtySlab := dirtyBuffers(room)
			rfrom, rtasks, _, rerr := decodeTaskFrameInto(payload, dirtyTasks, dirtySlab)
			if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
				t.Fatalf("room %d: recycled decode error %v, fresh %v", room, rerr, err)
			}
			if err == nil && (rfrom != from || !sameTasks(rtasks, tasks)) {
				t.Fatalf("room %d: recycled decode gives a different bundle", room)
			}
		}
		if err != nil {
			return
		}
		again := AppendTaskFrame(nil, from, tasks)[4:]
		if !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload does not round-trip: %x -> %x", payload, again)
		}
	})
}

// dirtyBuffers returns a used-looking decode target with room for room
// tasks and room floats: junk tasks whose rows point into a NaN slab.
func dirtyBuffers(room int) ([]workload.Task, []float64) {
	slab := make([]float64, room)
	for i := range slab {
		slab[i] = math.NaN()
	}
	tasks := make([]workload.Task, room)
	for i := range tasks {
		tasks[i] = workload.Task{ID: math.MaxUint64, Precision: math.MaxUint32, Row: slab[i:]}
	}
	return tasks[:0], slab[:0]
}

// sameTasks compares two decoded bundles task by task, rows bit by bit.
func sameTasks(a, b []workload.Task) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Precision != b[i].Precision || len(a[i].Row) != len(b[i].Row) {
			return false
		}
		for j := range a[i].Row {
			if math.Float64bits(a[i].Row[j]) != math.Float64bits(b[i].Row[j]) {
				return false
			}
		}
	}
	return true
}

// FuzzDecodeStatePacket is the same property for the 23-byte UDP codec:
// accepted datagrams re-encode to their leading statePacketSize bytes
// (trailing bytes are ignored like real UDP padding), with the Up byte
// canonicalised.
func FuzzDecodeStatePacket(f *testing.F) {
	f.Add(StatePacket{From: 3, Seq: 9, QueueLen: 44, Up: true, RateMilli: 1500, TimeMs: 77}.AppendWire(nil))
	f.Add(make([]byte, statePacketSize-1))
	f.Add(make([]byte, statePacketSize+10))
	f.Fuzz(func(t *testing.T, datagram []byte) {
		p, err := DecodeStatePacket(datagram)
		if err != nil {
			if len(datagram) >= statePacketSize {
				t.Fatalf("full-size datagram rejected: %v", err)
			}
			return
		}
		again := p.AppendWire(nil)
		// The Up byte is canonicalised to 0/1, so compare decoded forms.
		p2, err := DecodeStatePacket(again)
		if err != nil || p2 != p {
			t.Fatalf("state packet does not round-trip: %+v vs %+v (%v)", p, p2, err)
		}
	})
}

// FuzzDecodeTask covers the innermost codec with truncated and oversized
// inputs directly.
func FuzzDecodeTask(f *testing.F) {
	g := workload.NewGenerator(5, 12, xrand.New(8))
	f.Add(g.Next().AppendWire(nil))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, src []byte) {
		task, rest, _, err := workload.DecodeTaskSlab(src, nil)
		if err != nil {
			return
		}
		if task.WireSize()+len(rest) != len(src) {
			t.Fatalf("consumed %d of %d bytes but WireSize says %d",
				len(src)-len(rest), len(src), task.WireSize())
		}
		again := task.AppendWire(nil)
		if !bytes.Equal(again, src[:task.WireSize()]) {
			t.Fatalf("task does not round-trip")
		}
	})
}

// dialRaw opens a raw TCP connection to node i's task listener,
// bypassing SendTasks — the hostile-client vantage point.
func dialRaw(t *testing.T, tr *NetTransport, i int) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", tr.tcpAddrs[i])
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func waitDecodeErrs(t *testing.T, tr *NetTransport, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for tr.DecodeErrors() < want {
		if time.Now().After(deadline) {
			t.Fatalf("DecodeErrors = %d, want >= %d", tr.DecodeErrors(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNetTransportCorruptFrameDropsConn feeds a frame whose count field
// lies: the receiver must drop the connection and count a decode error
// instead of allocating for the advertised count or desyncing, and a
// fresh SendTasks connection must still work.
func TestNetTransportCorruptFrameDropsConn(t *testing.T) {
	tr := newNetTransportOrSkip(t, 2)
	defer tr.Close()

	g := workload.NewGenerator(4, 10, xrand.New(4))
	frame := AppendTaskFrame(nil, 0, g.Batch(2))
	binary.BigEndian.PutUint32(frame[4+2:], 0x7FFFFFFF) // corrupt the count
	c := dialRaw(t, tr, 1)
	if _, err := c.Write(frame); err != nil {
		t.Fatal(err)
	}
	waitDecodeErrs(t, tr, 1)
	c.Close()

	select {
	case b := <-tr.Tasks(1):
		t.Fatalf("corrupt frame delivered: %+v", b)
	default:
	}
	if err := tr.SendTasks(0, 1, g.Batch(3)); err != nil {
		t.Fatal(err)
	}
	select {
	case b := <-tr.Tasks(1):
		if len(b.Tasks) != 3 {
			t.Fatalf("got %d tasks, want 3", len(b.Tasks))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("transport wedged after corrupt frame")
	}
}

// TestNetTransportMidFrameDrop kills the connection halfway through a
// frame: the partial read must surface as a counted decode error, not a
// hang or a zero-length bundle.
func TestNetTransportMidFrameDrop(t *testing.T) {
	tr := newNetTransportOrSkip(t, 2)
	defer tr.Close()

	g := workload.NewGenerator(4, 10, xrand.New(6))
	frame := AppendTaskFrame(nil, 0, g.Batch(4))
	c := dialRaw(t, tr, 1)
	if _, err := c.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	c.Close()
	waitDecodeErrs(t, tr, 1)
	select {
	case b := <-tr.Tasks(1):
		t.Fatalf("truncated frame delivered: %+v", b)
	default:
	}
}

// TestNetTransportCloseWithParkedReader pins the close-race fix: Close
// must terminate a readTasks goroutine parked mid-frame on a raw client
// connection (one not in the dialler cache), and the state/tasks
// channels must end up closed per the Transport contract.
func TestNetTransportCloseWithParkedReader(t *testing.T) {
	tr := newNetTransportOrSkip(t, 2)

	c := dialRaw(t, tr, 1)
	defer c.Close()
	// A valid prefix of a frame: the reader blocks in io.ReadFull.
	if _, err := c.Write([]byte{0, 0, 0, 50, 0, 0}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let readTasks park

	done := make(chan struct{})
	go func() {
		tr.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a parked reader")
	}
	if _, ok := <-tr.State(0); ok {
		t.Fatal("state channel not closed after Close")
	}
	if _, ok := <-tr.Tasks(1); ok {
		t.Fatal("tasks channel not closed after Close")
	}
}

// TestChanTransportCloseContract is the same channel-close contract for
// the in-process transport, including a sender racing Close.
func TestChanTransportCloseContract(t *testing.T) {
	tr := NewChanTransport(3)
	g := workload.NewGenerator(3, 10, xrand.New(2))
	// Fill node 1's task buffer so a sender parks.
	for i := 0; i < 64; i++ {
		if err := tr.SendTasks(0, 1, g.Batch(1)); err != nil {
			t.Fatal(err)
		}
	}
	sent := make(chan error, 1)
	go func() { sent <- tr.SendTasks(0, 1, g.Batch(1)) }()
	time.Sleep(10 * time.Millisecond)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err == nil {
		t.Fatal("send during Close reported success after the transport died")
	}
	if err := tr.SendTasks(0, 2, g.Batch(1)); err == nil {
		t.Fatal("send after Close accepted")
	}
	tr.SendState(0, 2, StatePacket{From: 0}) // must not panic
	// Drain: 64 buffered bundles, then closed.
	n := 0
	for range tr.Tasks(1) {
		n++
	}
	if n != 64 {
		t.Fatalf("drained %d bundles, want 64", n)
	}
	if _, ok := <-tr.State(2); ok {
		t.Fatal("state channel not closed after Close")
	}
}

// TestAppendTaskFrameInPlace pins the one-pass encoder: it appends after
// whatever dst already holds, grows dst at most once, and not at all when
// dst has room — the property the per-connection send buffer relies on.
func TestAppendTaskFrameInPlace(t *testing.T) {
	g := workload.NewGenerator(16, 50, xrand.New(12))
	tasks := g.Batch(16)
	want := AppendTaskFrame(nil, 64, tasks)

	prefix := []byte("already here")
	got := AppendTaskFrame(append([]byte(nil), prefix...), 64, tasks)
	if !bytes.Equal(got[:len(prefix)], prefix) {
		t.Fatalf("prefix clobbered: %q", got[:len(prefix)])
	}
	if !bytes.Equal(got[len(prefix):], want) {
		t.Fatal("frame appended after a prefix differs from the frame appended to nil")
	}

	if raceEnabled {
		return // the race detector's instrumentation allocates on its own
	}
	small := make([]byte, len(prefix), len(prefix)+8) // must grow
	copy(small, prefix)
	if n := testing.AllocsPerRun(100, func() { _ = AppendTaskFrame(small, 64, tasks) }); n > 1 {
		t.Fatalf("%v allocations growing dst, want at most 1", n)
	}
	roomy := make([]byte, 0, len(want))
	if n := testing.AllocsPerRun(100, func() { roomy = AppendTaskFrame(roomy[:0], 64, tasks) }); n != 0 {
		t.Fatalf("%v allocations with room in dst, want 0", n)
	}
	if !bytes.Equal(roomy, want) {
		t.Fatal("reused buffer holds a different frame")
	}
}

// TestDecodedRowsDoNotAlias pins the slab decode's isolation: rows carved
// from one allocation must behave like rows of their own — a write stays
// in its row, an append reallocates instead of running into the next.
func TestDecodedRowsDoNotAlias(t *testing.T) {
	g := workload.NewGenerator(4, 10, xrand.New(13))
	sent := g.Batch(3)
	payload := AppendTaskFrame(nil, 1, sent)[4:]
	_, got, err := DecodeTaskFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		payload[i] = 0xFF // the reader reuses its frame buffer
	}
	for i := range got {
		for j, v := range got[i].Row {
			if v != sent[i].Row[j] {
				t.Fatalf("task %d row[%d] = %v after the payload was overwritten, want %v", i, j, v, sent[i].Row[j])
			}
		}
		if cap(got[i].Row) != len(got[i].Row) {
			t.Fatalf("task %d row has spare capacity %d: an append would reach its neighbour", i, cap(got[i].Row)-len(got[i].Row))
		}
	}
	got[0].Row[3] = 42
	got[1].Row = append(got[1].Row, 99)
	got[1].Row[0] = -1
	for j, v := range got[2].Row {
		if v != sent[2].Row[j] {
			t.Fatalf("task 2 row[%d] changed to %v through a neighbour", j, v)
		}
	}
	if got[1].Row[3] != sent[1].Row[3] || got[0].Row[0] != sent[0].Row[0] {
		t.Fatal("a write leaked across rows")
	}
}

// TestReadTasksStream drives the buffered receive path over a real
// loopback connection at both extremes: 200 frames arriving in one write
// (many frames per read) and one frame arriving a byte per write (many
// reads per frame). Every frame must decode, in order.
func TestReadTasksStream(t *testing.T) {
	tr := newNetTransportOrSkip(t, 2)
	defer tr.Close()
	g := workload.NewGenerator(16, 50, xrand.New(14))

	const frames = 200
	var stream []byte
	var wantIDs []uint64
	for f := 0; f < frames; f++ {
		tasks := g.Batch(1 + f%5)
		for _, task := range tasks {
			wantIDs = append(wantIDs, task.ID)
		}
		stream = AppendTaskFrame(stream, 0, tasks)
	}
	c := dialRaw(t, tr, 1)
	defer c.Close()
	if _, err := c.Write(stream); err != nil {
		t.Fatal(err)
	}
	slow := g.Batch(2)
	for _, task := range slow {
		wantIDs = append(wantIDs, task.ID)
	}
	for _, b := range AppendTaskFrame(nil, 0, slow) {
		if _, err := c.Write([]byte{b}); err != nil {
			t.Fatal(err)
		}
	}

	var gotIDs []uint64
	deadline := time.After(10 * time.Second)
	for bundles := 0; bundles < frames+1; bundles++ {
		select {
		case b := <-tr.Tasks(1):
			for _, task := range b.Tasks {
				gotIDs = append(gotIDs, task.ID)
			}
		case <-deadline:
			t.Fatalf("received %d of %d bundles", bundles, frames+1)
		}
	}
	if len(gotIDs) != len(wantIDs) {
		t.Fatalf("received %d tasks, sent %d", len(gotIDs), len(wantIDs))
	}
	for i := range wantIDs {
		if gotIDs[i] != wantIDs[i] {
			t.Fatalf("task %d: got ID %d, want %d", i, gotIDs[i], wantIDs[i])
		}
	}
	if n := tr.DecodeErrors(); n != 0 {
		t.Fatalf("%d decode errors on a clean stream", n)
	}
}

// TestNetTransportConcurrentSenders has many goroutines share one
// (from, to) pair while others use pairs of their own: the per-pair lock
// must keep frames whole, and nothing may be lost or dropped.
func TestNetTransportConcurrentSenders(t *testing.T) {
	tr := newNetTransportOrSkip(t, 4)
	defer tr.Close()
	const senders, sendsEach, perSend = 6, 50, 3
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			g := workload.NewGenerator(8, 20, xrand.New(uint64(100+s)))
			from := s % 3 // senders 0/3, 1/4, 2/5 share a pair
			for i := 0; i < sendsEach; i++ {
				if err := tr.SendTasks(from, 3, g.Batch(perSend)); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	got := 0
	deadline := time.After(10 * time.Second)
	for got < senders*sendsEach*perSend {
		select {
		case b := <-tr.Tasks(3):
			if len(b.Tasks) != perSend {
				t.Fatalf("bundle of %d tasks, every send carried %d", len(b.Tasks), perSend)
			}
			got += len(b.Tasks)
		case <-deadline:
			t.Fatalf("received %d of %d tasks", got, senders*sendsEach*perSend)
		}
	}
	wg.Wait()
	if n := tr.DecodeErrors(); n != 0 {
		t.Fatalf("%d decode errors: frames interleaved", n)
	}
}

// TestStatePacketWireFormat pins the state packet at the size the paper
// reports for its UDP state-information packets.
func TestStatePacketWireFormat(t *testing.T) {
	p := StatePacket{From: 3, Seq: 42, QueueLen: 117, Up: true, RateMilli: 1860, TimeMs: 123456}
	buf := p.AppendWire(nil)
	if len(buf) != statePacketSize {
		t.Fatalf("packet size %d, want %d", len(buf), statePacketSize)
	}
	if len(buf) < 20 || len(buf) > 34 {
		t.Fatalf("packet size %d outside the paper's 20–34 byte range", len(buf))
	}
	got, err := DecodeStatePacket(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("round trip %+v vs %+v", got, p)
	}
	if _, err := DecodeStatePacket(buf[:10]); err == nil {
		t.Fatal("short packet accepted")
	}
}

func TestChanTransportDropsWhenCongested(t *testing.T) {
	tr := NewChanTransport(2)
	defer tr.Close()
	// Overfill node 1's state buffer; SendState must not block.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			tr.SendState(0, 1, StatePacket{From: 0, Seq: uint32(i)})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("SendState blocked on a congested receiver")
	}
}
