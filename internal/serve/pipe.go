package serve

import "churnlb/internal/metrics"

// A serving run's telemetry runs beside its realisation, not inside it.
// The simulator's observer hooks append one fixed-size record each to a
// chunk; a full chunk crosses a channel to one consumer goroutine, which
// replays the records in order into the metrics.Collector. The collector
// is a function of the ordered hook stream alone — its P² sketches depend
// on the order of the observations, never on when they are made — so its
// output is bit-identical to a collector installed as the observer itself,
// while its sketch and window work runs on another core when there is one.

const (
	// chunkLen is the number of records one channel hand-off carries, about
	// two hundred tasks' worth, so the hand-offs and consumer wake-ups cost
	// a few ns per task.
	chunkLen = 512
	// chunks is the number of chunks a run owns. The producer stalls only
	// when the consumer is chunks-1 chunks behind; four of 512 records are
	// 80 KB per run, allocated once.
	chunks = 4
)

type recKind uint8

const (
	recArrived recKind = iota
	recCompleted
	recUp
	recDown
	recDeparted
	recLanded
)

// record is one observer call: node is the hook's first node argument,
// peer TransferDeparted's destination, n the task count, x the float
// arguments in hook order. Node ids and counts fit int32, the width of the
// simulator's queues.
type record struct {
	x             [3]float64
	node, peer, n int32
	kind          recKind
}

// pipe is the sim.TaskObserver serve.Run installs: a single-producer,
// single-consumer queue from the simulation goroutine to the goroutine
// that replays into the collector. Every method but consume runs on the
// simulation goroutine.
type pipe struct {
	buf  []record // the chunk being filled
	used int      // records of buf filled
	// full carries filled chunks to the consumer, which sends each back on
	// free once replayed. Each holds at most all chunks, so no send blocks
	// on a full buffer.
	full, free chan []record
	done       chan struct{} // closed when the consumer has replayed everything
}

// openPipe starts the consumer that replays into col. The caller must
// join the pipe on every path, or the consumer outlives the run.
func openPipe(col *metrics.Collector) *pipe {
	mem := make([]record, chunks*chunkLen)
	p := &pipe{
		buf:  mem[:chunkLen:chunkLen],
		full: make(chan []record, chunks),
		free: make(chan []record, chunks),
		done: make(chan struct{}),
	}
	for i := 1; i < chunks; i++ {
		p.free <- mem[i*chunkLen : (i+1)*chunkLen : (i+1)*chunkLen]
	}
	go p.consume(col)
	return p
}

// join hands over the last partial chunk and returns once the consumer has
// replayed every record and exited; only then may the caller read col.
func (p *pipe) join() {
	if p.used > 0 {
		p.full <- p.buf[:p.used]
	}
	close(p.full)
	<-p.done
}

func (p *pipe) consume(col *metrics.Collector) {
	defer close(p.done)
	for c := range p.full {
		for i := range c {
			r := &c[i]
			switch r.kind {
			case recArrived:
				col.TasksArrived(int(r.node), int(r.n), r.x[0])
			case recCompleted:
				col.TaskCompleted(int(r.node), r.x[0], r.x[1], r.x[2])
			case recUp, recDown:
				col.NodeStateChanged(int(r.node), r.kind == recUp, r.x[0])
			case recDeparted:
				col.TransferDeparted(int(r.node), int(r.peer), int(r.n), r.x[0])
			case recLanded:
				col.TransferArrived(int(r.node), int(r.n), r.x[0])
			}
		}
		p.free <- c
	}
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
	r.kind, r.node, r.n, r.x[0] = recArrived, int32(node), int32(count), t
}

// TaskCompleted implements sim.TaskObserver.
//
//churnlb:hotpath
func (p *pipe) TaskCompleted(node int, arrival, firstService, completion float64) {
	r := p.slot()
	r.kind, r.node, r.x = recCompleted, int32(node), [3]float64{arrival, firstService, completion}
}

// NodeStateChanged implements sim.TaskObserver.
//
//churnlb:hotpath
func (p *pipe) NodeStateChanged(node int, up bool, t float64) {
	r := p.slot()
	r.kind, r.node, r.x[0] = recDown, int32(node), t
	if up {
		r.kind = recUp
	}
}

// TransferDeparted implements sim.TaskObserver.
//
//churnlb:hotpath
func (p *pipe) TransferDeparted(from, to, tasks int, t float64) {
	r := p.slot()
	r.kind, r.node, r.peer, r.n, r.x[0] = recDeparted, int32(from), int32(to), int32(tasks), t
}

// TransferArrived implements sim.TaskObserver.
//
//churnlb:hotpath
func (p *pipe) TransferArrived(to, tasks int, t float64) {
	r := p.slot()
	r.kind, r.node, r.n, r.x[0] = recLanded, int32(to), int32(tasks), t
}
