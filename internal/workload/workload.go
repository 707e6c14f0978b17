// Package workload implements the tasks of the paper's application layer,
// where one task is the multiplication of one row by a static matrix
// duplicated on every node (Section 3). A task carries its row over the
// wire; the live engine draws its service time rather than doing the
// arithmetic. The arithmetic precision of each task — how many multiply
// passes it requires — is drawn from an exponential distribution, which is
// exactly the mechanism that made the paper's empirical per-task service
// times exponential (Fig. 1, through VirtualSeconds).
package workload

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"churnlb/internal/xrand"
)

// Task is one unit of workload: a row vector to be multiplied by the
// static matrix, Precision times over.
type Task struct {
	// ID is unique within a run and used for conservation accounting.
	ID uint64
	// Precision is the exponentially distributed work multiplier (≥ 1),
	// the paper's "arithmetic precision" of the row elements.
	Precision uint32
	// Row is the row vector, of the static matrix's dimension.
	Row []float64
}

// MinTaskWire is the smallest possible encoded task (empty row): the
// 8-byte ID, 4-byte precision and 4-byte row length. Frame decoders use
// it to bound task counts before allocating.
const MinTaskWire = 8 + 4 + 4

// WireSize returns the encoded size of the task in bytes.
func (t Task) WireSize() int { return MinTaskWire + 8*len(t.Row) }

// AppendWire serialises the task in the testbed's binary frame format:
// dst grows at most once, by exactly WireSize bytes.
//
//churnlb:hotpath
func (t Task) AppendWire(dst []byte) []byte {
	n, size := len(dst), t.WireSize()
	dst = slices.Grow(dst, size)[:n+size]
	b := dst[n:]
	binary.BigEndian.PutUint64(b, t.ID)
	binary.BigEndian.PutUint32(b[8:], t.Precision)
	binary.BigEndian.PutUint32(b[12:], uint32(len(t.Row)))
	b = b[MinTaskWire:]
	for i, v := range t.Row {
		binary.BigEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return dst
}

// DecodeTaskSlab parses one task from src, returning the remainder. A
// frame decoder owns one row slab for the whole frame: the task's Row is
// carved from the front of slab (and the remaining slab returned) when
// slab has room, and allocated otherwise. A carved Row is capacity-clipped, so an append to
// it reallocates instead of writing into the next task's row.
//
//churnlb:hotpath
func DecodeTaskSlab(src []byte, slab []float64) (Task, []byte, []float64, error) {
	if len(src) < MinTaskWire {
		//lint:ignore hotalloc error path: the connection is dropped after it
		return Task{}, nil, slab, fmt.Errorf("workload: short task header (%d bytes)", len(src))
	}
	var t Task
	t.ID = binary.BigEndian.Uint64(src)
	t.Precision = binary.BigEndian.Uint32(src[8:])
	n := int(binary.BigEndian.Uint32(src[12:]))
	src = src[MinTaskWire:]
	if n < 0 || len(src)/8 < n {
		//lint:ignore hotalloc error path: the connection is dropped after it
		return Task{}, nil, slab, fmt.Errorf("workload: truncated row (%d of %d floats)", len(src)/8, n)
	}
	if n <= len(slab) {
		t.Row, slab = slab[:n:n], slab[n:]
	} else {
		//lint:ignore hotalloc fallback for a nil or short slab: one row per task
		t.Row = make([]float64, n)
	}
	for i := range t.Row {
		t.Row[i] = math.Float64frombits(binary.BigEndian.Uint64(src[8*i:]))
	}
	return t, src[8*n:], slab, nil
}

// Generator produces tasks with exponentially distributed precision.
type Generator struct {
	dim           int
	meanPrecision float64
	rng           *xrand.Rand
	nextID        uint64
}

// NewGenerator returns a generator of tasks for a dim-dimensional matrix
// with the given mean precision (mean work per task).
func NewGenerator(dim int, meanPrecision float64, rng *xrand.Rand) *Generator {
	if dim <= 0 || meanPrecision <= 0 {
		panic("workload: invalid generator parameters")
	}
	return &Generator{dim: dim, meanPrecision: meanPrecision, rng: rng}
}

// MeanPrecision returns the configured mean work per task.
func (g *Generator) MeanPrecision() float64 { return g.meanPrecision }

// Next draws one task into a row of its own.
func (g *Generator) Next() Task { return g.NextInto(make([]float64, g.dim)) }

// NextInto draws one task, with the draws of Next in the same order, into
// row, which the caller owns: it must hold exactly the generator's dim
// floats, and the task's Row is row itself, so a caller that carves rows
// from a slab of its own mints tasks without allocating.
//
//churnlb:hotpath
func (g *Generator) NextInto(row []float64) Task {
	if len(row) != g.dim {
		panic("workload: NextInto row does not match the generator's dimension")
	}
	g.nextID++
	p := uint32(math.Ceil(g.rng.ExpMean(g.meanPrecision)))
	if p == 0 {
		p = 1
	}
	for i := range row {
		row[i] = g.rng.Float64()*2 - 1
	}
	return Task{ID: g.nextID, Precision: p, Row: row}
}

// Batch draws n tasks.
func (g *Generator) Batch(n int) []Task {
	ts := make([]Task, n)
	for i := range ts {
		ts[i] = g.Next()
	}
	return ts
}

// VirtualSeconds maps a task's precision to simulated processing seconds
// on a node with the given rate (tasks/second): time = precision /
// (meanPrecision·rate). Because precision is exponential with the
// generator's mean, the induced service time is exponential with mean
// 1/rate — Fig. 1's service-time law, tied to a real payload.
func VirtualSeconds(t Task, meanPrecision, rate float64) float64 {
	return float64(t.Precision) / (meanPrecision * rate)
}
