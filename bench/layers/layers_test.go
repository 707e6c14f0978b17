package layers

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"churnlb/bench/e2e"
	"churnlb/internal/xrand"
)

func TestLayerOf(t *testing.T) {
	cases := []struct{ function, file, want string }{
		{"churnlb/internal/des.(*Scheduler).ProcessNext", "/r/internal/des/des.go", "des"},
		{"churnlb/internal/sim.(*simState).complete", "/r/internal/sim/sim.go", "sim"},
		{"churnlb/internal/sim.(*taskQueue).pop", "/r/internal/sim/observer.go", "metrics"},
		{"churnlb/internal/metrics.(*P2).Add", "", "metrics"},
		{"churnlb/internal/xrand.(*Rand).Exp", "", "xrand"},
		{"churnlb/internal/policy.PowerOfD.Route", "", "policy"},
		{"churnlb/internal/serve.Run", "", "serve"},
		{"churnlb.Serve", "", "serve"},
		{"churnlb/internal/daemon.(*run).Inject", "", "daemon"},
		{"churnlb/internal/cluster.(*NetTransport).SendTasks", "", "cluster"},
		{"runtime.mallocgc", "", "runtime"},
		{"internal/runtime/maps.(*Map).Get", "", "runtime"},
		{"sync.(*Mutex).Lock", "", "runtime"},
		{"internal/runtime/syscall.Syscall6", "", "os"},
		{"internal/poll.(*FD).Write", "", "os"},
		{"net.(*conn).Write", "", "os"},
		{"syscall.write", "", "os"},
		{"churnlb/internal/workload.(*Generator).Next", "", "other"},
		{"churnlb/bench/e2e.(*closedBlock).Run", "", "other"},
		{"slices.pdqsortCmpFunc[go.shape.struct { churnlb/internal/model.x int }]", "", "other"},
		{"math.Log", "", "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.function, c.file); got != c.want {
			t.Errorf("layerOf(%q, %q) = %q, want %q", c.function, c.file, got, c.want)
		}
	}
}

// A real profile of a loop inside xrand must decode, sum to one and land
// mostly in that layer.
func TestFoldRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	rng := xrand.New(1)
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 100_000; i++ {
			sink += rng.Exp(2)
		}
	}
	pprof.StopCPUProfile()
	shares, symbols, err := Fold(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(symbols) == 0 {
		t.Skip("the profiler took no samples on this machine")
	}
	total := 0.0
	for _, name := range Names {
		total += shares[name]
	}
	if math.Abs(total-1) > 0.01 {
		t.Errorf("layer shares sum to %v, want 1", total)
	}
	if shares["xrand"]+shares["other"] < 0.5 { // math.Log is "other"
		t.Errorf("xrand loop folded to %+v", shares)
	}
}

func TestFoldRejectsGarbage(t *testing.T) {
	if _, _, err := Fold([]byte("not a profile")); err == nil {
		t.Error("no error for a non-gzip profile")
	}
}

func TestProbesCoverTheMetricTable(t *testing.T) {
	probes, err := Probes(e2e.Sizes(true), 1, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, v := range probes {
		got[v.Name] = v.Unit
	}
	for _, v := range RunMetrics(e2e.Samples{NsPerTask: []float64{1, 2}, Tasks: 1}, e2e.Samples{NsPerTask: []float64{2}}) {
		got[v.Name] = v.Unit
	}
	for _, layer := range Names {
		got[layer+".cpu_share"] = "share"
	}
	for _, m := range Metrics() {
		if unit, ok := got[m.Name]; !ok || unit != m.Unit {
			t.Errorf("metric %s: measured unit %q (present %v), table says %q", m.Name, unit, ok, m.Unit)
		}
		delete(got, m.Name)
	}
	for name := range got {
		t.Errorf("value %s is measured but not in the metric table", name)
	}
}
