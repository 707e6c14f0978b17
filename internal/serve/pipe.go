package serve

import (
	"runtime"

	"churnlb/internal/metrics"
	"churnlb/internal/obs"
	"churnlb/internal/sim"
)

// A serving run's telemetry runs beside its realisation, not inside it.
// The simulator's observer hooks append one fixed-size record each to a
// chunk; a full chunk crosses a channel to one consumer goroutine, which
// replays the records in order into a sim.Ledger that rebuilds every
// task's arrival and first service and feeds the metrics.Collector. A
// decision tracer, when one rides the run, reads the same replay: each
// arrival after Armed is one routing decision, priced over the ledger's
// view before the ledger applies it, and every completion the ledger
// rebuilds goes to the tracer as well as the collector. All of it is a
// function of the ordered hook stream alone — the collector's P² sketches
// depend on the order of the observations, never on when they are made —
// so the output is bit-identical to a ledger, collector and tracer
// installed as the observer itself, while the per-task records, the
// sketches, the windows and the decision log run on another core when
// there is one.

const (
	// chunkLen is the number of records one channel hand-off carries, about
	// two hundred tasks' worth, so the hand-offs and consumer wake-ups cost
	// a few ns per task.
	chunkLen = 512
	// chunks is the number of chunks a run owns. The producer stalls only
	// when the consumer is chunks-1 chunks behind; four of 512 records are
	// 64 KB per run, taken from the last joined pipe's (see idleChunks).
	chunks = 4
)

// idleChunks holds the chunk memory of joined pipes for the next openPipe:
// like the simulator's arenas and ledgers, the memory of a run comes from
// the last finished one's. It holds at most GOMAXPROCS blocks of
// chunks*chunkLen records, one for each run that can be going at once
// (RunManyPooled's workers); a block beyond that is dropped.
var idleChunks = make(chan []record, runtime.GOMAXPROCS(0))

type recKind uint8

const (
	recArrived recKind = iota
	recCompleted
	recUp
	recDown
	recDeparted
	recLanded
	recArmed
)

// record is one observer call: node is the hook's first node argument,
// peer TransferDeparted's destination, n the task count, flight the
// transfer's flight id and t the time. Node ids, counts and flight ids fit
// int32, the width of the simulator's queues and flight table.
type record struct {
	t                     float64
	node, peer, n, flight int32
	kind                  recKind
}

// pipe is the sim.TaskObserver serve.Run installs: a single-producer,
// single-consumer queue from the simulation goroutine to the goroutine
// that replays into the ledger. Every method but consume runs on the
// simulation goroutine.
type pipe struct {
	mem  []record // every chunk's memory
	buf  []record // the chunk being filled
	used int      // records of buf filled
	// full carries filled chunks to the consumer, which sends each back on
	// free once replayed. Each holds at most all chunks, so no send blocks
	// on a full buffer.
	full, free chan []record
	done       chan struct{} // closed when the consumer has replayed everything
}

// openPipe starts the consumer that replays a realisation of n nodes into
// a ledger feeding col and, when tr is not nil, tr, whose decisions each
// consulted considered nodes. The caller must join the pipe on every path,
// or the consumer outlives the run.
func openPipe(n int, col *metrics.Collector, tr *obs.DecisionTracer, considered int) *pipe {
	var mem []record
	select {
	case mem = <-idleChunks:
	default:
		mem = make([]record, chunks*chunkLen)
	}
	p := &pipe{
		mem:  mem,
		buf:  mem[:chunkLen:chunkLen],
		full: make(chan []record, chunks),
		free: make(chan []record, chunks),
		done: make(chan struct{}),
	}
	for i := 1; i < chunks; i++ {
		p.free <- mem[i*chunkLen : (i+1)*chunkLen : (i+1)*chunkLen]
	}
	var sink sim.TaskSink = col
	if tr != nil {
		sink = tracedSink{col, tr}
	}
	go p.consume(sim.NewLedger(n, sink), tr, considered)
	return p
}

// tracedSink is the ledger's sink when a decision tracer rides the run:
// the collector's, with every completion told to the tracer too.
type tracedSink struct {
	*metrics.Collector
	tr *obs.DecisionTracer
}

// TaskCompleted implements sim.TaskSink.
//
//churnlb:hotpath
func (s tracedSink) TaskCompleted(node int, arrival, firstService, completion float64) {
	s.Collector.TaskCompleted(node, arrival, firstService, completion)
	s.tr.TaskCompleted(node, arrival, firstService, completion)
}

// join hands over the last partial chunk and returns once the consumer has
// replayed every record and exited; only then may the caller read col.
// The chunks go back to idleChunks.
func (p *pipe) join() {
	if p.used > 0 {
		p.full <- p.buf[:p.used]
	}
	close(p.full)
	<-p.done
	select {
	case idleChunks <- p.mem:
	default:
	}
}

// consume replays every chunk into l, telling tr each decision, and
// releases l once the producer has closed the pipe.
//
//churnlb:hotpath
func (p *pipe) consume(l *sim.Ledger, tr *obs.DecisionTracer, considered int) {
	defer close(p.done)
	armed := false
	for c := range p.full {
		for i := range c {
			r := &c[i]
			switch r.kind {
			case recArrived:
				if tr != nil && armed {
					tr.Decision(l.View(r.t), int(r.node), int(r.n), considered)
				}
				l.TasksArrived(int(r.node), int(r.n), r.t)
			case recCompleted:
				l.TaskCompleted(int(r.node), r.t)
			case recUp, recDown:
				l.NodeStateChanged(int(r.node), r.kind == recUp, r.t)
			case recDeparted:
				l.TransferDeparted(int(r.node), int(r.peer), int(r.n), int(r.flight), r.t)
			case recLanded:
				l.TransferArrived(int(r.node), int(r.n), int(r.flight), r.t)
			case recArmed:
				armed = true
				l.Armed(r.t)
			}
		}
		p.free <- c
	}
	l.Release()
}

// slot returns the next record to fill, handing the chunk over first when
// it is full.
//
//churnlb:hotpath
func (p *pipe) slot() *record {
	if p.used == len(p.buf) {
		p.handOff()
	}
	r := &p.buf[p.used]
	p.used++
	return r
}

// handOff sends the full chunk to the consumer and takes a drained one,
// waiting only when the consumer holds every other chunk.
//
//churnlb:hotpath
func (p *pipe) handOff() {
	p.full <- p.buf
	p.buf = <-p.free
	p.used = 0
}

// TasksArrived implements sim.TaskObserver.
//
//churnlb:hotpath
func (p *pipe) TasksArrived(node, count int, t float64) {
	r := p.slot()
	r.kind, r.node, r.n, r.t = recArrived, int32(node), int32(count), t
}

// TaskCompleted implements sim.TaskObserver.
//
//churnlb:hotpath
func (p *pipe) TaskCompleted(node int, t float64) {
	r := p.slot()
	r.kind, r.node, r.t = recCompleted, int32(node), t
}

// NodeStateChanged implements sim.TaskObserver.
//
//churnlb:hotpath
func (p *pipe) NodeStateChanged(node int, up bool, t float64) {
	r := p.slot()
	r.kind, r.node, r.t = recDown, int32(node), t
	if up {
		r.kind = recUp
	}
}

// TransferDeparted implements sim.TaskObserver.
//
//churnlb:hotpath
func (p *pipe) TransferDeparted(from, to, tasks, flight int, t float64) {
	r := p.slot()
	r.kind, r.node, r.peer, r.n, r.flight, r.t = recDeparted, int32(from), int32(to), int32(tasks), int32(flight), t
}

// TransferArrived implements sim.TaskObserver.
//
//churnlb:hotpath
func (p *pipe) TransferArrived(to, tasks, flight int, t float64) {
	r := p.slot()
	r.kind, r.node, r.n, r.flight, r.t = recLanded, int32(to), int32(tasks), int32(flight), t
}

// Armed implements sim.TaskObserver.
func (p *pipe) Armed(t float64) {
	r := p.slot()
	r.kind, r.t = recArmed, t
}
