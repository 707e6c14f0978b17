package cluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"churnlb/internal/workload"
)

// NetTransport carries node communication over real loopback sockets,
// matching the paper's communication layer: state packets over UDP
// (23-byte datagrams) and task payloads over TCP with length-prefixed
// frames. Every node owns one UDP socket and one TCP listener; task
// connections are dialled lazily and cached per (from, to) pair.
type NetTransport struct {
	n        int
	udpConns []*net.UDPConn
	udpAddrs []*net.UDPAddr
	tcpLns   []net.Listener
	tcpAddrs []string
	state    []chan StatePacket
	tasks    []chan TaskBundle
	// mu guards the two connection tables, never a dial or a write: each
	// sending pair serialises on its own taskConn.
	mu        sync.Mutex
	taskConns map[[2]int]*taskConn
	// accepted tracks the receive side of every task connection so Close
	// can unblock readTasks goroutines parked in io.ReadFull even when the
	// dialling peer (possibly an external client) never closes its end.
	accepted map[net.Conn]struct{}
	closed   chan struct{}
	once     sync.Once
	chOnce   sync.Once
	wg       sync.WaitGroup
	// decodeErrs counts task-frame decode failures. A TCP stream cannot
	// resynchronise after a corrupt frame, so the connection is dropped —
	// the counter is how operators see it happened.
	decodeErrs atomic.Uint64
}

// taskConn is the sending side of one (from, to) pair: the cached
// connection and the buffer its frames are encoded into, both under mu so
// concurrent senders of the pair cannot interleave frames.
type taskConn struct {
	mu   sync.Mutex
	conn net.Conn // nil until first use and after a failed write
	buf  []byte
}

// NewNetTransport binds loopback sockets for n nodes and starts their
// receive loops.
func NewNetTransport(n int) (*NetTransport, error) {
	t := &NetTransport{
		n:         n,
		udpConns:  make([]*net.UDPConn, n),
		udpAddrs:  make([]*net.UDPAddr, n),
		tcpLns:    make([]net.Listener, n),
		tcpAddrs:  make([]string, n),
		state:     make([]chan StatePacket, n),
		tasks:     make([]chan TaskBundle, n),
		taskConns: map[[2]int]*taskConn{},
		accepted:  map[net.Conn]struct{}{},
		closed:    make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		t.state[i] = make(chan StatePacket, 64)
		t.tasks[i] = make(chan TaskBundle, 64)
		uc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("cluster: udp listen: %w", err)
		}
		t.udpConns[i] = uc
		t.udpAddrs[i] = uc.LocalAddr().(*net.UDPAddr)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("cluster: tcp listen: %w", err)
		}
		t.tcpLns[i] = ln
		t.tcpAddrs[i] = ln.Addr().String()
	}
	for i := 0; i < n; i++ {
		t.wg.Add(2)
		go t.udpLoop(i)
		go t.acceptLoop(i)
	}
	return t, nil
}

func (t *NetTransport) udpLoop(i int) {
	defer t.wg.Done()
	buf := make([]byte, 256)
	for {
		n, _, err := t.udpConns[i].ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		p, err := DecodeStatePacket(buf[:n])
		if err != nil {
			continue // malformed datagram: drop, like the real system
		}
		select {
		case t.state[i] <- p:
		case <-t.closed:
			return
		default: // receiver congested: drop
		}
	}
}

func (t *NetTransport) acceptLoop(i int) {
	defer t.wg.Done()
	for {
		conn, err := t.tcpLns[i].Accept()
		if err != nil {
			return
		}
		t.mu.Lock()
		select {
		case <-t.closed:
			// Raced with Close after the final listener sweep: drop the
			// connection here or nobody ever will.
			t.mu.Unlock()
			conn.Close()
			return
		default:
		}
		t.accepted[conn] = struct{}{}
		t.wg.Add(1)
		t.mu.Unlock()
		go t.readTasks(i, conn)
	}
}

// retainFrame bounds the frame buffer a task connection keeps between
// frames; a larger frame gets a buffer of its own, so one giant bundle
// does not pin its size for the connection's lifetime. The same bound
// keeps such a frame out of the recycled decode buffers.
const retainFrame = 64 << 10

// recycleFrames bounds each task connection's free list of decode
// buffers: the (task slice, row slab) pairs its receivers have released
// and its next frames decode into. A receiver holding more bundles than
// this at once makes the connection allocate for the excess, and a
// release that finds the list full drops its pair.
const recycleFrames = 16

// readTasks consumes length-prefixed frames: [4B total length][2B from]
// [4B count][count serialised tasks], through one buffered reader per
// connection — a burst of small frames costs one read, not two per frame
// — and into one frame buffer reused across frames (the decode copies
// everything out). Each frame of at most retainFrame bytes decodes into a
// pair from the connection's free list, which TaskBundle.Release refills,
// so a receiver that releases its bundles costs the connection no
// allocation per frame. io.ReadFull rides out partial reads; a mid-frame
// connection drop or a frame the decoder rejects ends the connection with
// the failure counted in DecodeErrors — a TCP stream cannot resynchronise
// past a corrupt frame, so dropping the connection (the dialler re-dials)
// is the only safe recovery.
func (t *NetTransport) readTasks(i int, conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.accepted, conn)
		t.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	free := make(chan *frameBufs, recycleFrames)
	var hdr [4]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err != io.EOF && !t.closing() {
				// EOF between frames is a clean shutdown; anything else —
				// including ErrUnexpectedEOF from a partial header — is a
				// mid-frame drop. Errors from Close tearing the socket
				// down under us are shutdown, not corruption.
				t.decodeErrs.Add(1)
			}
			return
		}
		size := int(binary.BigEndian.Uint32(hdr[:]))
		if size < taskFrameHeader || size > maxTaskFrame {
			t.decodeErrs.Add(1)
			return // corrupt length prefix
		}
		frame := buf
		if size > cap(frame) {
			frame = make([]byte, size)
			if size <= retainFrame {
				buf = frame
			}
		}
		frame = frame[:size]
		if _, err := io.ReadFull(br, frame); err != nil {
			if !t.closing() {
				t.decodeErrs.Add(1) // connection dropped mid-frame
			}
			return
		}
		b, err := decodeRecycled(frame, free)
		if err != nil {
			t.decodeErrs.Add(1)
			return
		}
		select {
		case t.tasks[i] <- b:
		case <-t.closed:
			return
		}
	}
}

// decodeRecycled decodes one frame into a pair from the free list (a new
// pair when the list is empty), or into memory of its own when the frame
// is above retainFrame.
func decodeRecycled(frame []byte, free chan *frameBufs) (TaskBundle, error) {
	if len(frame) > retainFrame {
		from, tasks, err := DecodeTaskFrame(frame)
		return TaskBundle{From: from, Tasks: tasks}, err
	}
	var fb *frameBufs
	select {
	case fb = <-free:
	default:
		fb = &frameBufs{home: free}
	}
	from, tasks, slab, err := decodeTaskFrameInto(frame, fb.tasks, fb.slab)
	if err != nil {
		return TaskBundle{}, err
	}
	fb.tasks, fb.slab = tasks, slab
	return TaskBundle{From: from, Tasks: tasks, bufs: fb}, nil
}

// closing reports whether Close has begun tearing the transport down.
func (t *NetTransport) closing() bool {
	select {
	case <-t.closed:
		return true
	default:
		return false
	}
}

// DecodeErrors reports how many task connections were dropped on corrupt
// or truncated frames since the transport started.
func (t *NetTransport) DecodeErrors() uint64 { return t.decodeErrs.Load() }

// SendState implements Transport over UDP datagrams.
func (t *NetTransport) SendState(from, to int, p StatePacket) {
	if to < 0 || to >= t.n {
		return
	}
	// Errors are ignored: UDP state exchange is best-effort.
	_, _ = t.udpConns[from].WriteToUDP(p.AppendWire(nil), t.udpAddrs[to])
}

// SendTasks implements Transport over a cached TCP connection: one frame,
// one write, encoded into the pair's own buffer under the pair's own
// lock. A failed write drops the connection (the next send re-dials);
// the frame may or may not have reached the peer.
//
//churnlb:hotpath
func (t *NetTransport) SendTasks(from, to int, tasks []workload.Task) error {
	if to < 0 || to >= t.n {
		//lint:ignore hotalloc error path
		return fmt.Errorf("cluster: invalid destination %d", to)
	}
	tc := t.taskConn(from, to)
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.conn == nil {
		if err := t.dial(tc, to); err != nil {
			return err
		}
	}
	tc.buf = AppendTaskFrame(tc.buf[:0], from, tasks)
	_, err := tc.conn.Write(tc.buf)
	if cap(tc.buf) > retainFrame {
		tc.buf = nil
	}
	if err != nil {
		tc.conn.Close()
		tc.conn = nil
		//lint:ignore hotalloc error path
		return fmt.Errorf("cluster: task send: %w", err)
	}
	return nil
}

// taskConn returns the (from, to) pair's sending side, creating the
// entry — not the connection — on first use.
func (t *NetTransport) taskConn(from, to int) *taskConn {
	key := [2]int{from, to}
	t.mu.Lock()
	defer t.mu.Unlock()
	tc := t.taskConns[key]
	if tc == nil {
		tc = &taskConn{}
		t.taskConns[key] = tc
	}
	return tc
}

// dial connects tc to node to. The caller holds tc.mu, which is what
// lets Close find and close whatever is dialled here: a send that passes
// the closing check holds the lock Close takes next.
func (t *NetTransport) dial(tc *taskConn, to int) error {
	if t.closing() {
		return fmt.Errorf("cluster: transport closed")
	}
	c, err := net.Dial("tcp", t.tcpAddrs[to])
	if err != nil {
		return fmt.Errorf("cluster: task dial: %w", err)
	}
	tc.conn = c
	return nil
}

// State implements Transport.
func (t *NetTransport) State(i int) <-chan StatePacket { return t.state[i] }

// Tasks implements Transport.
func (t *NetTransport) Tasks(i int) <-chan TaskBundle { return t.tasks[i] }

// Close implements Transport: it stops the loops, waits for every
// goroutine that could still send, and only then closes the state and
// task channels — so receivers ranging over them terminate cleanly and
// no send can race the close.
func (t *NetTransport) Close() error {
	t.once.Do(func() {
		close(t.closed)
		for _, c := range t.udpConns {
			if c != nil {
				c.Close()
			}
		}
		for _, ln := range t.tcpLns {
			if ln != nil {
				ln.Close()
			}
		}
		t.mu.Lock()
		conns := make([]*taskConn, 0, len(t.taskConns))
		for _, tc := range t.taskConns {
			conns = append(conns, tc)
		}
		for c := range t.accepted {
			// Unblock readTasks goroutines whose dialling peer is not one
			// of our cached conns (an external client, or a peer that
			// already leaked its end) — and, with them, any sender parked
			// in a write to a receiver that stopped reading.
			c.Close()
		}
		t.mu.Unlock()
		for _, tc := range conns {
			tc.mu.Lock()
			if tc.conn != nil {
				tc.conn.Close()
				tc.conn = nil
			}
			tc.mu.Unlock()
		}
	})
	t.wg.Wait()
	// All senders (udpLoop, readTasks) have exited: the close below cannot
	// race a send. Guard with a second once so concurrent Close calls
	// don't double-close.
	t.chOnce.Do(func() {
		for _, ch := range t.state {
			close(ch)
		}
		for _, ch := range t.tasks {
			close(ch)
		}
	})
	return nil
}
