package xrand

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"strings"
	"testing"
)

// TestStreamTableHasNoCollisions holds the table in streams.go to its
// claims: every fixed index is listed here, no two fixed spans share an
// index, none enters the per-worker range for any worker up to the int32
// node cap, and the only fixed indices inside a Monte-Carlo study's
// replication range [0, 2³¹) are the five whose values recorded output
// depends on — at exactly those values.
func TestStreamTableHasNoCollisions(t *testing.T) {
	fixed := []struct {
		name  string
		lo, n uint64
	}{
		{"StreamScenario", StreamScenario, 1},
		{"StreamCalibTrace", StreamCalibTrace, 1},
		{"StreamFig1", StreamFig1, 2}, // + node, two nodes
		{"StreamFig2", StreamFig2, 1},
		{"StreamFig4", StreamFig4, 64}, // + len(policy name)
		{"StreamDispatcher", StreamDispatcher, 1},
		{"StreamTaskGen", StreamTaskGen, 1},
	}
	listed := map[string]bool{}
	for _, s := range fixed {
		listed[s.name] = true
	}
	pinned := map[string]uint64{
		"StreamScenario": 0x5ce0, "StreamCalibTrace": 0xCA11B,
		"StreamFig1": 1, "StreamFig2": 77, "StreamFig4": 0xF16,
	}

	f, err := parser.ParseFile(token.NewFileSet(), "streams.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if vs, ok := n.(*ast.ValueSpec); ok {
			for _, id := range vs.Names {
				if strings.HasPrefix(id.Name, "Stream") && !listed[id.Name] {
					t.Errorf("streams.go declares %s; add it to this test's table", id.Name)
				}
			}
		}
		return true
	})

	workersLo := WorkerStream(0, 0)
	workersHi := WorkerStream(math.MaxInt32, workerRoles-1)
	if lo := WorkerStream(1, 0); lo != WorkerStream(0, workerRoles-1)+1 {
		t.Errorf("worker 1's streams start at %#x, worker 0's end at %#x: ranges must tile", lo, lo-1)
	}
	for i, sa := range fixed {
		a := sa.name
		for _, sb := range fixed[:i] {
			if sa.lo < sb.lo+sb.n && sb.lo < sa.lo+sa.n {
				t.Errorf("%s [%#x, +%d) overlaps %s [%#x, +%d)", a, sa.lo, sa.n, sb.name, sb.lo, sb.n)
			}
		}
		if sa.lo <= workersHi && workersLo < sa.lo+sa.n {
			id := (sa.lo - workersLo) / uint64(workerRoles)
			t.Errorf("%s = %#x is a stream of live worker %d", a, sa.lo, id)
		}
		if want, ok := pinned[a]; ok && sa.lo != want {
			t.Errorf("%s = %#x, recorded output needs %#x", a, sa.lo, want)
		} else if !ok && sa.lo < 1<<31 {
			t.Errorf("%s = %#x is replication %d's stream of a Monte-Carlo study under the same seed; choose an index ≥ 2³¹", a, sa.lo, sa.lo)
		}
	}
}
