package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// recordLedger is the Ledger as it was before its queues held 8-byte
// slots, kept verbatim (bar its names, its idle list and its View) as the
// oracle the Ledger is held to: one 16-byte record per queued task, each
// carrying its own first-service stamp wherever it travels.
type recordLedger struct {
	sink TaskSink
	// q mirrors each node's queue and down its state (false: up).
	q    []recordQueue
	down []bool
	// flights holds the records riding each flight id; a row keeps its
	// backing array for the next batch that takes the id. inFlight counts
	// the tasks riding them.
	flights  [][]taskRec
	inFlight int
	armed    bool
}

func newRecordLedger(n int, sink TaskSink) *recordLedger {
	return &recordLedger{sink: sink, q: make([]recordQueue, n), down: make([]bool, n)}
}

func (l *recordLedger) TasksArrived(node, count int, t float64) {
	q := &l.q[node]
	idle := q.len() == 0
	for k := 0; k < count; k++ {
		q.push(taskRec{arrival: t, firstService: -1})
	}
	l.sink.TasksArrived(node, count, t)
	if idle && l.armed {
		l.stamp(node, t)
	}
}

func (l *recordLedger) TaskCompleted(node int, t float64) {
	rec := l.q[node].pop()
	l.sink.TaskCompleted(node, rec.arrival, rec.firstService, t)
	l.stamp(node, t)
}

func (l *recordLedger) NodeStateChanged(node int, up bool, t float64) {
	l.down[node] = !up
	l.sink.NodeStateChanged(node, up, t)
	l.stamp(node, t)
}

func (l *recordLedger) TransferDeparted(from, to, tasks, flight int, t float64) {
	if flight >= len(l.flights) {
		l.growFlights(flight)
	}
	l.flights[flight] = l.q[from].takeTail(l.flights[flight][:0], tasks)
	l.inFlight += tasks
	l.sink.TransferDeparted(from, to, tasks, t)
	l.stamp(from, t)
}

func (l *recordLedger) TransferArrived(to, tasks, flight int, t float64) {
	q := &l.q[to]
	q.recs = append(q.recs, l.flights[flight]...)
	l.inFlight -= tasks
	l.sink.TransferArrived(to, tasks, t)
	l.stamp(to, t)
}

func (l *recordLedger) Armed(t float64) {
	l.armed = true
	for i := range l.q {
		l.stamp(i, t)
	}
}

func (l *recordLedger) stamp(i int, t float64) {
	q := &l.q[i]
	if l.down[i] || q.len() == 0 {
		return
	}
	if f := q.front(); f.firstService < 0 {
		f.firstService = t
	}
}

func (l *recordLedger) growFlights(f int) {
	l.flights = append(l.flights, make([][]taskRec, f+1-len(l.flights))...)
}

type recordQueue struct {
	recs []taskRec
	head int
}

func (q *recordQueue) len() int { return len(q.recs) - q.head }

func (q *recordQueue) push(r taskRec) { q.recs = append(q.recs, r) }

func (q *recordQueue) front() *taskRec { return &q.recs[q.head] }

func (q *recordQueue) pop() taskRec {
	r := q.recs[q.head]
	q.head++
	// Reclaim the dead prefix once it dominates the backing array.
	if q.head > 64 && q.head*2 > len(q.recs) {
		n := copy(q.recs, q.recs[q.head:])
		q.recs = q.recs[:n]
		q.head = 0
	}
	return r
}

func (q *recordQueue) takeTail(dst []taskRec, k int) []taskRec {
	n := len(q.recs)
	dst = append(dst, q.recs[n-k:]...)
	q.recs = q.recs[:n-k]
	return dst
}

// obsCall is one TaskObserver call: kind is a, c, u, d, s, l or A for
// TasksArrived, TaskCompleted, NodeStateChanged up and down,
// TransferDeparted, TransferArrived and Armed; node is its first node, peer
// a departure's destination, n its task count.
type obsCall struct {
	kind             byte
	node, peer, n, f int
	t                float64
}

func arrive(node, n int, t float64) obsCall { return obsCall{kind: 'a', node: node, n: n, t: t} }
func complete(node int, t float64) obsCall  { return obsCall{kind: 'c', node: node, t: t} }
func up(node int, t float64) obsCall        { return obsCall{kind: 'u', node: node, t: t} }
func down(node int, t float64) obsCall      { return obsCall{kind: 'd', node: node, t: t} }
func armed(t float64) obsCall               { return obsCall{kind: 'A', t: t} }
func ship(from, to, n, f int, t float64) obsCall {
	return obsCall{kind: 's', node: from, peer: to, n: n, f: f, t: t}
}
func land(to, n, f int, t float64) obsCall { return obsCall{kind: 'l', node: to, n: n, f: f, t: t} }

func (c obsCall) String() string {
	return fmt.Sprintf("%c(node %d, peer %d, n %d, flight %d, t %v)", c.kind, c.node, c.peer, c.n, c.f, c.t)
}

func (c obsCall) to(o TaskObserver) {
	switch c.kind {
	case 'a':
		o.TasksArrived(c.node, c.n, c.t)
	case 'c':
		o.TaskCompleted(c.node, c.t)
	case 'u', 'd':
		o.NodeStateChanged(c.node, c.kind == 'u', c.t)
	case 's':
		o.TransferDeparted(c.node, c.peer, c.n, c.f, c.t)
	case 'l':
		o.TransferArrived(c.node, c.n, c.f, c.t)
	case 'A':
		o.Armed(c.t)
	}
}

// sinkCall is one TaskSink call with its times as bits.
type sinkCall struct {
	kind  byte
	ints  [3]int
	times [3]uint64
}

// sinkLog is a TaskSink logging every call.
type sinkLog struct{ calls []sinkCall }

func (s *sinkLog) log(kind byte, ints [3]int, times ...float64) {
	c := sinkCall{kind: kind, ints: ints}
	for i, t := range times {
		c.times[i] = math.Float64bits(t)
	}
	s.calls = append(s.calls, c)
}

func (s *sinkLog) TasksArrived(node, count int, t float64) { s.log('a', [3]int{node, count}, t) }
func (s *sinkLog) TaskCompleted(node int, arrival, firstService, completion float64) {
	s.log('c', [3]int{node}, arrival, firstService, completion)
}
func (s *sinkLog) NodeStateChanged(node int, up bool, t float64) {
	b := 0
	if up {
		b = 1
	}
	s.log('u', [3]int{node, b}, t)
}
func (s *sinkLog) TransferDeparted(from, to, tasks int, t float64) {
	s.log('s', [3]int{from, to, tasks}, t)
}
func (s *sinkLog) TransferArrived(to, tasks int, t float64) { s.log('l', [3]int{to, tasks}, t) }

// agreeWithOracle plays calls into a Ledger and a recordLedger of n nodes
// and fails at the first call after which their sink calls, queue lengths
// or tasks in flight differ. It returns the number of boxes the Ledger
// made room for.
func agreeWithOracle(t *testing.T, n int, calls []obsCall) int {
	t.Helper()
	got, want := &sinkLog{}, &sinkLog{}
	l, o := NewLedger(n, got), newRecordLedger(n, want)
	defer l.Release()
	for k, c := range calls {
		from := len(want.calls)
		c.to(l)
		c.to(o)
		if !slices.Equal(got.calls[from:], want.calls[from:]) {
			t.Fatalf("call %d, %v: the ledger sent %+v, the record ledger %+v", k, c, got.calls[from:], want.calls[from:])
		}
		for i := range o.q {
			if l.q[i].len() != o.q[i].len() || l.inFlight != o.inFlight {
				t.Fatalf("call %d, %v: node %d queues %d tasks (%d in flight), the record ledger's %d (%d)",
					k, c, i, l.q[i].len(), l.inFlight, o.q[i].len(), o.inFlight)
			}
		}
	}
	return len(l.boxes)
}

// TestLedgerMatchesRecordOracle holds the Ledger's sink calls bit for bit
// to the record ledger's on scripted streams, one per way a stamp can
// travel or be found, each of which must box as many tasks as it says.
func TestLedgerMatchesRecordOracle(t *testing.T) {
	for _, c := range []struct {
		name  string
		n     int
		boxes int
		calls []obsCall
	}{
		{
			// Node 0's second task, stamped at 1, leaves with its whole
			// queue and lands on an idle node.
			name: "whole-queue ship of a stamped front", n: 2, boxes: 1,
			calls: []obsCall{arrive(0, 3, 0), armed(0), complete(0, 1), ship(0, 1, 2, 0, 1.5),
				land(1, 2, 0, 2), complete(1, 3), complete(1, 4)},
		},
		{
			// A partial ship keeps the stamped front; only the whole queue
			// takes it along.
			name: "partial ship keeps the front", n: 3, boxes: 1,
			calls: []obsCall{arrive(0, 4, 0), armed(0), ship(0, 1, 2, 0, 0.5), ship(0, 2, 2, 1, 0.5),
				land(1, 2, 0, 1), land(2, 2, 1, 1), complete(2, 2), complete(1, 2), complete(1, 3), complete(2, 3)},
		},
		{
			// The box lands on a down node, which sets the node's front
			// without serving it, is shipped whole again as the one box,
			// lands behind a busy front, travels from the middle of that
			// queue in a partial ship and at last reaches a front behind a
			// completion.
			name: "a boxed front shipped again", n: 4, boxes: 1,
			calls: []obsCall{arrive(0, 2, 0), down(1, 0), armed(0), ship(0, 1, 2, 0, 0.5),
				land(1, 2, 0, 1), ship(1, 2, 2, 0, 1.5), land(2, 2, 0, 2), up(1, 2),
				arrive(3, 1, 2.5), ship(2, 3, 2, 1, 3), land(3, 2, 1, 3.5), arrive(0, 1, 3.8), arrive(3, 1, 4),
				ship(3, 0, 3, 0, 4), land(0, 3, 0, 5), complete(3, 5), complete(0, 6), complete(0, 7), complete(0, 8), complete(0, 9)},
		},
		{
			// Plain and boxed landings into an empty up queue, a busy one
			// and an empty down one, which stamps its front at recovery.
			name: "landings into empty, busy and down queues", n: 4, boxes: 2,
			calls: []obsCall{arrive(0, 2, 0), arrive(1, 3, 0), down(3, 0), armed(0),
				ship(0, 2, 2, 0, 0.2), ship(1, 3, 1, 1, 0.2), ship(1, 2, 2, 2, 0.3),
				land(2, 2, 2, 0.6), land(3, 1, 1, 0.7), land(2, 2, 0, 0.8),
				complete(2, 1), up(3, 1.5), complete(2, 2), complete(3, 2), complete(2, 3), complete(2, 4)},
		},
		{
			// Two boxes in flight at once; once both have completed, a
			// third takes one of their entries.
			name: "box reuse after a completion", n: 3, boxes: 2,
			calls: []obsCall{arrive(0, 1, 0), arrive(1, 1, 0), armed(0), ship(0, 2, 1, 0, 0.1), ship(1, 2, 1, 1, 0.1),
				land(2, 1, 1, 0.3), land(2, 1, 0, 0.4), complete(2, 1), complete(2, 2),
				arrive(0, 2, 2), ship(0, 1, 2, 0, 2.5), land(1, 2, 0, 3), complete(1, 4), complete(1, 5)},
		},
		{
			// Start's t = 0 balance: a ship before Armed stamps the front
			// its sender keeps, so a second ship taking the rest boxes it,
			// while a sender emptied by its first ship sends it unstamped.
			name: "t = 0 ships before Armed", n: 4, boxes: 1,
			calls: []obsCall{arrive(0, 4, 0), arrive(1, 2, 0), arrive(2, 1, 0), down(2, 0),
				ship(0, 1, 2, 0, 0), ship(0, 3, 2, 1, 0), ship(1, 3, 2, 2, 0), ship(2, 0, 1, 3, 0), armed(0),
				land(3, 2, 1, 0.1), land(3, 2, 2, 0.2), land(0, 1, 3, 0.3), land(1, 2, 0, 0.35), up(2, 0.4),
				complete(3, 1), complete(3, 2), complete(0, 2), complete(3, 3), complete(3, 4), complete(1, 5), complete(1, 6)},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := agreeWithOracle(t, c.n, c.calls); got != c.boxes {
				t.Errorf("the stream boxed %d tasks, want %d", got, c.boxes)
			}
		})
	}
}

// FuzzLedger holds the Ledger to the record ledger on streams built from
// raw bytes: two bytes a call, every stream keeping the observer contract
// (completions and ships only from queues holding tasks, landings of
// batches in flight in any order, one Armed, times that never fall).
func FuzzLedger(f *testing.F) {
	f.Add([]byte{2, 0, 0x21, 5, 0, 3, 0x80, 6, 4, 4, 0, 1, 0, 1, 0})
	f.Add([]byte{3, 0, 0x30, 0, 0x31, 3, 0x80, 5, 0, 3, 0x81, 6, 2, 4, 0, 2, 0x02, 3, 0x82, 4, 0, 1, 0, 1, 1})
	f.Add([]byte{1, 0, 0x10, 2, 1, 5, 0, 6, 3, 2, 1, 1, 0, 3, 0x80, 4, 0, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 2 + int(data[0])%4
		queue := make([]int, n)
		isDown := make([]bool, n)
		var flights []obsCall // the departure holding each id; n 0: free
		tNow, isArmed := 0.0, false
		var calls []obsCall
		for k := 1; k+1 < len(data); k += 2 {
			op, arg := data[k], int(data[k+1])
			node := arg % n
			busy := -1 // the first node from node on holding tasks
			for j := 0; j < n && busy < 0; j++ {
				if queue[(node+j)%n] > 0 {
					busy = (node + j) % n
				}
			}
			switch op % 7 {
			case 0:
				c := arrive(node, arg>>4%4, tNow)
				queue[node] += c.n
				calls = append(calls, c)
			case 1:
				if busy >= 0 {
					queue[busy]--
					calls = append(calls, complete(busy, tNow))
				}
			case 2:
				isDown[node] = !isDown[node]
				c := up(node, tNow)
				if isDown[node] {
					c = down(node, tNow)
				}
				calls = append(calls, c)
			case 3:
				if busy < 0 {
					break
				}
				tasks := queue[busy]
				if op&0x80 == 0 {
					tasks = 1 + arg>>3%tasks
				}
				id := slices.IndexFunc(flights, func(c obsCall) bool { return c.n == 0 })
				if id < 0 {
					id = len(flights)
					flights = append(flights, obsCall{})
				}
				c := ship(busy, (busy+1+arg>>4%(n-1))%n, tasks, id, tNow)
				queue[busy] -= tasks
				flights[id] = c
				calls = append(calls, c)
			case 4:
				var live []int
				for id, c := range flights {
					if c.n > 0 {
						live = append(live, id)
					}
				}
				if len(live) > 0 {
					d := flights[live[arg%len(live)]]
					queue[d.peer] += d.n
					flights[d.f] = obsCall{}
					calls = append(calls, land(d.peer, d.n, d.f, tNow))
				}
			case 5:
				if !isArmed {
					isArmed = true
					calls = append(calls, armed(tNow))
				}
			case 6:
				tNow += float64(arg%8) / 8
			}
		}
		agreeWithOracle(t, n, calls)
	})
}
