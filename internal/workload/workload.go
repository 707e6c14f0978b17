// Package workload implements the paper's application layer: matrix
// multiplication, where one task is the multiplication of one row by a
// static matrix duplicated on every node (Section 3). The arithmetic
// precision of each task — how many multiply passes it requires — is drawn
// from an exponential distribution, which is exactly the mechanism that
// made the paper's empirical per-task service times exponential (Fig. 1).
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

// DecodeTask parses one task from src, returning the remainder.
func DecodeTask(src []byte) (Task, []byte, error) {
	t, rest, _, err := DecodeTaskSlab(src, nil)
	return t, rest, err
}

// DecodeTaskSlab is DecodeTask for a frame decoder that owns one row
// slab for the whole frame: the task's Row is carved from the front of
// slab (and the remaining slab returned) when slab has room, and
// allocated otherwise. A carved Row is capacity-clipped, so an append to
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
		//lint:ignore hotalloc fallback for callers without a slab (DecodeTask): one row per task
		t.Row = make([]float64, n)
	}
	for i := range t.Row {
		t.Row[i] = math.Float64frombits(binary.BigEndian.Uint64(src[8*i:]))
	}
	return t, src[8*n:], slab, nil
}

// Matrix is the static matrix replicated on every node.
type Matrix struct {
	Dim  int
	data []float64 // row-major Dim×Dim
}

// NewMatrix builds a deterministic pseudo-random Dim×Dim matrix.
func NewMatrix(dim int, seed uint64) *Matrix {
	if dim <= 0 {
		panic("workload: non-positive matrix dimension")
	}
	rng := xrand.New(seed)
	m := &Matrix{Dim: dim, data: make([]float64, dim*dim)}
	for i := range m.data {
		m.data[i] = rng.Float64()*2 - 1
	}
	return m
}

// MultiplyTask executes the task against the matrix: Precision passes of
// row·M, returning a checksum so the arithmetic cannot be optimised away.
// The FLOP count is Precision·Dim², so wall time is proportional to the
// exponentially distributed Precision — the paper's randomisation.
func (m *Matrix) MultiplyTask(t Task) float64 {
	if len(t.Row) != m.Dim {
		panic(fmt.Sprintf("workload: row length %d vs matrix dim %d", len(t.Row), m.Dim))
	}
	sum := 0.0
	for pass := uint32(0); pass < t.Precision; pass++ {
		for j := 0; j < m.Dim; j++ {
			acc := 0.0
			col := m.data[j*m.Dim : (j+1)*m.Dim]
			for i, v := range t.Row {
				acc += v * col[i]
			}
			sum += acc
		}
	}
	return sum
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

// Next draws one task.
func (g *Generator) Next() Task {
	g.nextID++
	p := uint32(math.Ceil(g.rng.ExpMean(g.meanPrecision)))
	if p == 0 {
		p = 1
	}
	row := make([]float64, g.dim)
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
// 1/rate — the testbed's synthetic-compute law, tied to a real payload.
func VirtualSeconds(t Task, meanPrecision, rate float64) float64 {
	return float64(t.Precision) / (meanPrecision * rate)
}
