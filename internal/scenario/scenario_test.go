package scenario

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"

	"churnlb/internal/policy"
	"churnlb/internal/sim"
	"churnlb/internal/xrand"
)

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if got != k {
			t.Fatalf("ParseKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// badSpecs are TestGenerateValidation's rows, which also seed
// FuzzSpecBuild: each spec is an error naming field. Every float field is
// checked after the defaults in a form NaN fails. The last two specs pass
// those checks and used to generate a scenario the simulator refuses: a
// tiny MTBF or MTTR overflows its rate to +Inf.
func badSpecs() []struct {
	field string
	spec  Spec
} {
	nan, inf := math.NaN(), math.Inf(1)
	rows := []struct {
		field string
		spec  Spec
	}{
		{"N", Spec{Kind: Uniform, N: 0, TotalLoad: 10}},
		{"N", Spec{Kind: Uniform, N: sim.MaxNodes + 1, TotalLoad: 10}},
		{"TotalLoad", Spec{Kind: Uniform, N: 4, TotalLoad: -1}},
		{"HotspotNodes", Spec{Kind: Hotspot, N: 4, TotalLoad: 10, HotspotNodes: 9}},
		{"unknown kind", Spec{Kind: Kind(42), N: 4, TotalLoad: 10}},
		{"MTBF", Spec{Kind: Uniform, MTBF: nan}},
		{"MTBF", Spec{Kind: Uniform, MTBF: -5}},
		{"MTTR", Spec{Kind: Uniform, MTTR: -inf}},
		{"DelayPerTask", Spec{Kind: Uniform, DelayPerTask: nan}},
		{"DelayPerTask", Spec{Kind: Uniform, DelayPerTask: -0.5}},
		{"FailRate", Spec{Kind: CorrelatedFailure, N: 10, TotalLoad: 10, MTBF: 1e-308}},
		{"RecRate", Spec{Kind: Uniform, N: 10, TotalLoad: 10, MTTR: 5e-309}},
	}
	for i := range rows {
		if sp := &rows[i].spec; sp.N == 0 && sp.TotalLoad == 0 {
			sp.N, sp.TotalLoad = 10, 100
		}
	}
	return rows
}

func TestGenerateValidation(t *testing.T) {
	for _, tc := range badSpecs() {
		if _, err := Generate(tc.spec); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%v spec with %s bad: got %v, want an error naming it", tc.spec.Kind, tc.field, err)
		}
	}
}

// TestGenerateGolden pins what valid specs generate, bit for bit: one
// hash per family over every rate, load, state, group and arrival
// setting, recorded before the float checks were added.
func TestGenerateGolden(t *testing.T) {
	want := map[Kind]string{
		Uniform:           "9de35777f3e42951",
		Hotspot:           "061e7df1e1260ef1",
		CorrelatedFailure: "2ed191eca001724e",
		FlashCrowd:        "ec9be3a0ebbe93fd",
		Diurnal:           "32fd70430bd9ed8e",
	}
	for _, k := range Kinds() {
		sc, err := Generate(Spec{Kind: k, N: 40, TotalLoad: 2001, Seed: 9})
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		h := fnv.New64a()
		put := func(v uint64) { binary.Write(h, binary.LittleEndian, v) }
		for _, xs := range [][]float64{sc.Params.ProcRate, sc.Params.FailRate, sc.Params.RecRate,
			{sc.Params.DelayPerTask, sc.ArrivalRate, sc.ArrivalHorizon, sc.WaveAmplitude, sc.WavePeriod}} {
			for _, x := range xs {
				put(math.Float64bits(x))
			}
		}
		for i := range sc.InitialLoad {
			put(uint64(sc.InitialLoad[i]))
			if sc.InitialUp[i] {
				put(1)
			}
		}
		for _, g := range sc.Group {
			put(uint64(g))
		}
		put(uint64(sc.ArrivalBatch))
		if got := fmt.Sprintf("%016x", h.Sum64()); got != want[k] {
			t.Errorf("%v: hash %s, want %s", k, got, want[k])
		}
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	sp := Spec{Kind: Hotspot, N: 60, TotalLoad: 3000, Seed: 7}
	a, err := Generate(sp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(sp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal specs generated different scenarios")
	}
	c, err := Generate(Spec{Kind: Hotspot, N: 60, TotalLoad: 3000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Params.ProcRate, c.Params.ProcRate) {
		t.Fatal("different seeds generated identical rates")
	}
}

func TestGeneratedParamsValidate(t *testing.T) {
	for _, k := range Kinds() {
		sc, err := Generate(Spec{Kind: k, N: 50, TotalLoad: 2000, Seed: 3})
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if err := sc.Params.Validate(); err != nil {
			t.Fatalf("%v: generated params invalid: %v", k, err)
		}
		if len(sc.InitialLoad) != 50 || len(sc.InitialUp) != 50 {
			t.Fatalf("%v: wrong slice lengths", k)
		}
	}
}

func TestUniformSpreadsLoadEvenly(t *testing.T) {
	sc, err := Generate(Spec{Kind: Uniform, N: 7, TotalLoad: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sc.TotalQueued() != 100 {
		t.Fatalf("queued %d, want 100", sc.TotalQueued())
	}
	for i, q := range sc.InitialLoad {
		if q < 100/7 || q > 100/7+1 {
			t.Fatalf("node %d got %d tasks, want near-even split", i, q)
		}
	}
}

func TestHotspotSkewsLoad(t *testing.T) {
	sc, err := Generate(Spec{Kind: Hotspot, N: 100, TotalLoad: 10000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sc.TotalQueued() != 10000 {
		t.Fatalf("queued %d, want 10000", sc.TotalQueued())
	}
	// Default: 5 hot nodes hold 80% of the load.
	hot := 0
	for _, q := range sc.InitialLoad[:5] {
		hot += q
	}
	if hot != 8000 {
		t.Fatalf("hot nodes hold %d tasks, want 8000", hot)
	}
}

// With every node hot (including the degenerate N=1 default) there are no
// cold nodes to take the remainder — nothing may be dropped.
func TestHotspotAllNodesHotConservesLoad(t *testing.T) {
	for _, sp := range []Spec{
		{Kind: Hotspot, N: 1, TotalLoad: 1000, Seed: 1},
		{Kind: Hotspot, N: 4, TotalLoad: 1000, Seed: 1, HotspotNodes: 4},
	} {
		sc, err := Generate(sp)
		if err != nil {
			t.Fatal(err)
		}
		if sc.TotalQueued() != sp.TotalLoad {
			t.Fatalf("N=%d HotspotNodes=%d: queued %d, want %d",
				sp.N, sp.HotspotNodes, sc.TotalQueued(), sp.TotalLoad)
		}
	}
}

func TestCorrelatedFailureMarksDomainDown(t *testing.T) {
	sc, err := Generate(Spec{Kind: CorrelatedFailure, N: 40, TotalLoad: 1000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Group == nil {
		t.Fatal("no group assignment")
	}
	down := 0
	for i := range sc.InitialUp {
		if !sc.InitialUp[i] {
			down++
			if sc.Group[i] != 0 {
				t.Fatalf("node %d down but in group %d", i, sc.Group[i])
			}
		}
	}
	if down == 0 {
		t.Fatal("no nodes start down")
	}
	if sc.TotalQueued() != 1000 {
		t.Fatalf("queued %d, want 1000", sc.TotalQueued())
	}
}

func TestFlashCrowdSplitsLoad(t *testing.T) {
	sc, err := Generate(Spec{Kind: FlashCrowd, N: 20, TotalLoad: 5000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sc.TotalQueued() != 1000 {
		t.Fatalf("queued %d, want 20%% of 5000", sc.TotalQueued())
	}
	if sc.ArrivalRate <= 0 || sc.ArrivalBatch <= 0 || sc.ArrivalHorizon != 30 {
		t.Fatalf("burst not configured: %+v", sc)
	}
	// Expected arrivals over the window must equal the remaining 80%.
	expected := sc.ArrivalRate * sc.ArrivalHorizon * float64(sc.ArrivalBatch)
	if expected < 3800 || expected > 4200 {
		t.Fatalf("expected burst %v tasks, want ≈4000", expected)
	}
}

func TestDiurnalConfiguresWave(t *testing.T) {
	sc, err := Generate(Spec{Kind: Diurnal, N: 20, TotalLoad: 5000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sc.TotalQueued() != 1000 {
		t.Fatalf("queued %d, want 20%% of 5000", sc.TotalQueued())
	}
	if sc.WavePeriod != 60 || sc.WaveAmplitude != 0.8 {
		t.Fatalf("wave not configured: %+v", sc)
	}
	if sc.ArrivalHorizon != 120 { // 2 cycles of 60 s
		t.Fatalf("horizon %v, want 120", sc.ArrivalHorizon)
	}
	// Expected arrivals over full cycles equal the remaining 80% (the
	// sine integrates to zero).
	expected := sc.ArrivalRate * sc.ArrivalHorizon * float64(sc.ArrivalBatch)
	if expected < 3800 || expected > 4200 {
		t.Fatalf("expected wave arrivals %v, want ≈4000", expected)
	}
}

// Every scenario family must produce a runnable simulation that conserves
// tasks end to end.
func TestScenariosSimulateAndConserve(t *testing.T) {
	for _, k := range Kinds() {
		sc, err := Generate(Spec{Kind: k, N: 30, TotalLoad: 600, Seed: 11})
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		res, err := sim.Run(sc.Options(policy.LBP2{K: 1}, xrand.NewStream(11, 1)))
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		processed := 0
		for _, c := range res.Processed {
			processed += c
		}
		want := sc.TotalQueued() + res.ExternalArrivals
		if processed != want {
			t.Fatalf("%v: processed %d, want %d", k, processed, want)
		}
	}
}
