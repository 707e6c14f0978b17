// Package cluster is the communication layer of the paper's Section-3
// architecture: the wire format and the two transports that carry it.
// Small state packets travel best-effort (UDP in the paper, 23 bytes
// here), task payloads reliably in length-prefixed frames (TCP).
// ChanTransport is the in-process transport, NetTransport the same over
// real loopback sockets; both round-trip the codecs on every send.
//
// The engine that runs on top — application loops, failure injection, the
// backup process and its eq.-(8) transfers, for closed and open runs alike
// — is internal/daemon, and its tests, the closed-run suite included, live
// there.
package cluster

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"churnlb/internal/workload"
)

// StatePacket is the periodic node-state broadcast. Its wire encoding is
// 23 bytes, inside the 20–34 byte range the paper reports for its UDP
// state-information packets.
type StatePacket struct {
	From      uint16
	Seq       uint32
	QueueLen  uint32
	Up        bool
	RateMilli uint32 // processing rate in milli-tasks/s
	TimeMs    uint64 // sender's virtual clock in ms
}

// statePacketSize is the encoded size of a StatePacket.
const statePacketSize = 2 + 4 + 4 + 1 + 4 + 8

// AppendWire serialises the packet.
func (s StatePacket) AppendWire(dst []byte) []byte {
	var b [8]byte
	binary.BigEndian.PutUint16(b[:2], s.From)
	dst = append(dst, b[:2]...)
	binary.BigEndian.PutUint32(b[:4], s.Seq)
	dst = append(dst, b[:4]...)
	binary.BigEndian.PutUint32(b[:4], s.QueueLen)
	dst = append(dst, b[:4]...)
	up := byte(0)
	if s.Up {
		up = 1
	}
	dst = append(dst, up)
	binary.BigEndian.PutUint32(b[:4], s.RateMilli)
	dst = append(dst, b[:4]...)
	binary.BigEndian.PutUint64(b[:8], s.TimeMs)
	dst = append(dst, b[:8]...)
	return dst
}

// DecodeStatePacket parses a packet.
func DecodeStatePacket(src []byte) (StatePacket, error) {
	if len(src) < statePacketSize {
		return StatePacket{}, fmt.Errorf("cluster: short state packet (%d bytes)", len(src))
	}
	var s StatePacket
	s.From = binary.BigEndian.Uint16(src)
	s.Seq = binary.BigEndian.Uint32(src[2:])
	s.QueueLen = binary.BigEndian.Uint32(src[6:])
	s.Up = src[10] != 0
	s.RateMilli = binary.BigEndian.Uint32(src[11:])
	s.TimeMs = binary.BigEndian.Uint64(src[15:])
	return s, nil
}

// TaskBundle is a reliable task-payload delivery.
type TaskBundle struct {
	From  int
	Tasks []workload.Task
	// bufs is the recycled memory Tasks and its rows were decoded into,
	// nil for a bundle nobody recycles.
	bufs *frameBufs
}

// Release hands the bundle's memory — its task slice and every row in
// it — back to the connection that decoded it, for a later frame. It
// never blocks. It is a no-op for a bundle that was not decoded into
// recycled memory (every ChanTransport bundle, a frame above
// retainFrame), and after Close, when no reader takes the memory again.
// Call it at most once per bundle; a bundle never released is simply
// collected.
func (b TaskBundle) Release() {
	if b.bufs == nil {
		return
	}
	select {
	case b.bufs.home <- b.bufs:
	default: // the free list is full: let this pair go
	}
}

// frameBufs is one recycled decode target: a task slice and a row slab,
// and the free list of the connection they return to.
type frameBufs struct {
	tasks []workload.Task
	slab  []float64
	home  chan *frameBufs
}

// maxTaskFrame bounds one TCP task frame (length prefix excluded): any
// larger advertised size is treated as stream corruption rather than
// allocated.
const maxTaskFrame = 64 << 20

// taskFrameHeader is the payload header: [2B from][4B count].
const taskFrameHeader = 2 + 4

// AppendTaskFrame serialises one task frame — [4B payload length]
// [2B from][4B count][count serialised tasks] — appending to dst. The
// inverse of DecodeTaskFrame (which takes the payload after the length
// prefix). The frame is sized from WireSize first, so dst grows at most
// once and not at all when it already has room: senders keep one buffer
// per connection and pay no allocation per frame.
//
//churnlb:hotpath
func AppendTaskFrame(dst []byte, from int, tasks []workload.Task) []byte {
	size := taskFrameHeader
	for i := range tasks {
		size += tasks[i].WireSize()
	}
	dst = slices.Grow(dst, 4+size)
	dst = binary.BigEndian.AppendUint32(dst, uint32(size))
	dst = binary.BigEndian.AppendUint16(dst, uint16(from))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(tasks)))
	for i := range tasks {
		dst = tasks[i].AppendWire(dst)
	}
	return dst
}

// DecodeTaskFrame parses one frame payload (the bytes after the 4-byte
// length prefix). It rejects, with an error rather than a desync or an
// unbounded allocation: short headers, task counts that cannot fit the
// remaining bytes (each serialised task is at least workload.MinTaskWire
// bytes), truncated task records, and trailing garbage after the last
// task.
//
// The result shares no memory with payload, so a reader may reuse its
// frame buffer. Every task's Row is carved from one slab allocated per
// frame — in a well-formed frame the bytes left after count task headers
// are exactly the rows, which sizes the slab and bounds it by the payload
// — and each Row is capacity-clipped against its neighbours.
func DecodeTaskFrame(payload []byte) (from int, tasks []workload.Task, err error) {
	from, tasks, _, err = decodeTaskFrameInto(payload, nil, nil)
	return from, tasks, err
}

// decodeTaskFrameInto is DecodeTaskFrame into caller-owned memory: the
// tasks decode into tasks[:count] and their rows into slab, each grown
// (one allocation) only when its capacity is short. It returns both
// buffers at their decoded lengths, to be handed back on the next call.
// Every task and every row float the result holds is written from
// payload, so stale contents of a reused buffer never show through.
//
//churnlb:hotpath
func decodeTaskFrameInto(payload []byte, tasks []workload.Task, slab []float64) (int, []workload.Task, []float64, error) {
	if len(payload) < taskFrameHeader {
		//lint:ignore hotalloc error path: the connection is dropped after it
		return 0, nil, nil, fmt.Errorf("cluster: task frame header truncated (%d bytes)", len(payload))
	}
	from := int(binary.BigEndian.Uint16(payload))
	count := int(binary.BigEndian.Uint32(payload[2:]))
	rest := payload[taskFrameHeader:]
	if count < 0 || count > len(rest)/workload.MinTaskWire {
		//lint:ignore hotalloc error path: the connection is dropped after it
		return 0, nil, nil, fmt.Errorf("cluster: task frame advertises %d tasks in %d payload bytes", count, len(rest))
	}
	floats := (len(rest) - count*workload.MinTaskWire) / 8
	if cap(tasks) < count {
		//lint:ignore hotalloc a cold or outgrown buffer: one task slice, bounded by the payload
		tasks = make([]workload.Task, count)
	}
	if cap(slab) < floats {
		//lint:ignore hotalloc a cold or outgrown buffer: one row slab, bounded by the payload
		slab = make([]float64, floats)
	}
	tasks, slab = tasks[:count], slab[:floats]
	free := slab
	for k := range tasks {
		var err error
		tasks[k], rest, free, err = workload.DecodeTaskSlab(rest, free)
		if err != nil {
			//lint:ignore hotalloc error path: the connection is dropped after it
			return 0, nil, nil, fmt.Errorf("cluster: task %d/%d: %w", k, count, err)
		}
	}
	if len(rest) != 0 {
		//lint:ignore hotalloc error path: the connection is dropped after it
		return 0, nil, nil, fmt.Errorf("cluster: %d trailing bytes after %d tasks", len(rest), count)
	}
	return from, tasks, slab, nil
}

// Transport moves state packets (best-effort, like the paper's UDP
// exchange) and task bundles (reliable, like the paper's TCP transfers)
// between nodes.
type Transport interface {
	// SendState delivers a state packet from node from to node to,
	// best-effort: packets may be dropped.
	SendState(from, to int, p StatePacket)
	// SendTasks reliably delivers tasks to a node as one bundle. It may
	// block briefly but must not lose tasks: a nil error means delivered,
	// an error means the bundle must be presumed lost. tasks and every
	// row in it are the caller's to reuse once the call returns —
	// implementations copy (or encode) what they keep. The reuse is
	// load-bearing: the daemon's dispatcher mints each worker's bundles
	// into one row slab and overwrites it with the next bundle as soon as
	// this returns, so a transport that kept a reference to the caller's
	// rows would deliver later tasks' rows (TestSendTasksCallerReuse).
	//
	// The receiving side runs the other way round: a bundle from Tasks
	// owns its task slice and rows until the receiver calls its Release,
	// which lends that memory back to the transport for a later frame.
	// After Release, neither Tasks nor any Row of the bundle may be read.
	SendTasks(from, to int, tasks []workload.Task) error
	// State returns node i's incoming state-packet channel.
	State(i int) <-chan StatePacket
	// Tasks returns node i's incoming task-bundle channel.
	Tasks(i int) <-chan TaskBundle
	// Close releases resources; channels are closed.
	Close() error
}

// ChanTransport is the in-process transport: buffered channels with
// UDP-like drop semantics for state packets and blocking (reliable)
// delivery for tasks. It exercises identical node logic to the socket
// transport without kernel involvement, so unit tests stay fast.
type ChanTransport struct {
	n     int
	state []chan StatePacket
	tasks []chan TaskBundle
	// closed unblocks senders parked on a full (tasks) channel; mu +
	// down order sends against the channel close in Close — senders hold
	// the read side for the duration of a send, so Close's write lock
	// cannot close a channel mid-send.
	closed chan struct{}
	mu     sync.RWMutex
	down   bool
	once   sync.Once
}

// NewChanTransport builds an in-process transport for n nodes.
func NewChanTransport(n int) *ChanTransport {
	t := &ChanTransport{
		n:      n,
		state:  make([]chan StatePacket, n),
		tasks:  make([]chan TaskBundle, n),
		closed: make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		t.state[i] = make(chan StatePacket, 64)
		t.tasks[i] = make(chan TaskBundle, 64)
	}
	return t
}

// SendState implements Transport. Encoding/decoding is performed even
// in-process so the wire format is exercised on every path.
func (t *ChanTransport) SendState(from, to int, p StatePacket) {
	decoded, err := DecodeStatePacket(p.AppendWire(nil))
	if err != nil || to < 0 || to >= t.n {
		return
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.down {
		return
	}
	select {
	case t.state[to] <- decoded:
	default:
		// Receiver buffer full: drop, like UDP.
	}
}

// SendTasks implements Transport.
func (t *ChanTransport) SendTasks(from, to int, tasks []workload.Task) error {
	if to < 0 || to >= t.n {
		return fmt.Errorf("cluster: invalid destination %d", to)
	}
	// Round-trip the frame codec so in-process runs cover the wire format
	// (and hand the receiver memory of its own, like a socket would).
	_, decoded, err := DecodeTaskFrame(AppendTaskFrame(nil, from, tasks)[4:])
	if err != nil {
		return err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.down {
		return fmt.Errorf("cluster: transport closed")
	}
	select {
	case t.tasks[to] <- TaskBundle{From: from, Tasks: decoded}:
		return nil
	case <-t.closed:
		return fmt.Errorf("cluster: transport closed")
	}
}

// State implements Transport.
func (t *ChanTransport) State(i int) <-chan StatePacket { return t.state[i] }

// Tasks implements Transport.
func (t *ChanTransport) Tasks(i int) <-chan TaskBundle { return t.tasks[i] }

// Close implements Transport. closed is signalled before the write lock
// is taken, so a sender parked on a full tasks channel (holding the read
// lock) wakes via the closed case and releases the lock Close is
// waiting on — then the channels close with no sender in flight.
func (t *ChanTransport) Close() error {
	t.once.Do(func() {
		close(t.closed)
		t.mu.Lock()
		t.down = true
		for _, ch := range t.state {
			close(ch)
		}
		for _, ch := range t.tasks {
			close(ch)
		}
		t.mu.Unlock()
	})
	return nil
}
