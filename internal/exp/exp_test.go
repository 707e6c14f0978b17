package exp

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"churnlb/internal/scenario"
)

func quickCfg(t *testing.T) Config {
	t.Helper()
	return Config{Seed: 7, Quick: true, OutDir: t.TempDir()}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "fig2", "fig3", "fig4", "fig5", "table1", "table2", "table3",
		"ablate", "churnlaw", "multinode", "dynamic", "scale", "serve"}
	ids := IDs()
	for _, id := range want {
		found := false
		for _, got := range ids {
			if got == id {
				found = true
			}
		}
		if !found {
			t.Errorf("experiment %q not registered (have %v)", id, ids)
		}
	}
	if _, ok := ByID("fig3"); !ok {
		t.Fatal("ByID(fig3) failed")
	}
	if _, ok := ByID("nonsense"); ok {
		t.Fatal("ByID(nonsense) succeeded")
	}
}

// TestTable2AndChurnLawRun covers the two registered experiments no test
// below asserts on, so that this package runs every one in quick mode.
func TestTable2AndChurnLawRun(t *testing.T) {
	for _, id := range []string{"table2", "churnlaw"} {
		e, _ := ByID(id)
		res, err := e.Run(quickCfg(t))
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Tables) == 0 || len(res.Tables[0].Rows) == 0 {
			t.Errorf("%s produced no table rows", id)
		}
	}
}

func findTableCell(res *Result, tableIdx, row, col int) string {
	return res.Tables[tableIdx].Rows[row][col]
}

func TestFig1ReproducesExponentialRates(t *testing.T) {
	res, err := runFig1(quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	for row, wantRate := range []float64{1.08, 1.86} {
		got, err := strconv.ParseFloat(findTableCell(res, 0, row, 3), 64)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-wantRate) > 0.1*wantRate {
			t.Errorf("node %d fitted rate %v, want ≈%v", row+1, got, wantRate)
		}
		ks, _ := strconv.ParseFloat(findTableCell(res, 0, row, 4), 64)
		if ks > 0.05 {
			t.Errorf("node %d KS %v: service times not exponential", row+1, ks)
		}
	}
	if len(res.Series) != 4 {
		t.Fatalf("fig1 series %d, want 4", len(res.Series))
	}
}

func TestFig2LinearDelay(t *testing.T) {
	res, err := runFig2(quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	slope, err := strconv.ParseFloat(res.Tables[0].Rows[2][2], 64)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slope-0.02) > 0.004 {
		t.Errorf("mean-delay slope %v, want ≈0.02", slope)
	}
}

func TestFig3OptimaAndShape(t *testing.T) {
	res, err := runFig3(quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	kFail, _ := strconv.ParseFloat(res.Tables[0].Rows[0][2], 64)
	kNoFail, _ := strconv.ParseFloat(res.Tables[0].Rows[1][2], 64)
	if !(kFail < kNoFail) {
		t.Errorf("K* failure %v must be below no-failure %v", kFail, kNoFail)
	}
	minFail, _ := strconv.ParseFloat(res.Tables[0].Rows[0][4], 64)
	if math.Abs(minFail-117) > 4 {
		t.Errorf("min mean %v, paper ≈117", minFail)
	}
	// The MC curve must track theory pointwise within a loose band.
	var theory, mcs []float64
	for _, s := range res.Series {
		switch s.Name {
		case "theory-failure":
			theory = s.Y
		case "mc-failure":
			mcs = s.Y
		}
	}
	if len(theory) == 0 || len(mcs) != len(theory) {
		t.Fatal("fig3 series missing")
	}
	for i := range theory {
		if math.Abs(theory[i]-mcs[i]) > 0.12*theory[i] {
			t.Errorf("K index %d: MC %v vs theory %v", i, mcs[i], theory[i])
		}
	}
}

func TestFig4TraceSeries(t *testing.T) {
	res, err := runFig4(quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 4 {
		t.Fatalf("fig4 series %d, want 4 (2 policies × 2 nodes)", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.X) < 100 {
			t.Errorf("series %s has only %d points", s.Name, len(s.X))
		}
		// Queues start at the initial loads and end at zero.
		if s.Y[len(s.Y)-1] != 0 {
			t.Errorf("series %s does not drain to zero", s.Name)
		}
	}
}

func TestFig5Dominance(t *testing.T) {
	res, err := runFig5(quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	// For each workload the failure mean exceeds the no-failure mean.
	for _, row := range res.Tables[0].Rows {
		fail, _ := strconv.ParseFloat(row[2], 64)
		noFail, _ := strconv.ParseFloat(row[3], 64)
		if fail <= noFail {
			t.Errorf("workload %s: failure mean %v not above no-failure %v", row[0], fail, noFail)
		}
	}
}

func TestTable1SymmetricPairs(t *testing.T) {
	if testing.Short() {
		t.Skip("full optimisation sweep")
	}
	res, err := runTable1(quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	get := func(row int) float64 {
		v, _ := strconv.ParseFloat(findTableCell(res, 0, row, 4), 64)
		return v
	}
	// Rows: (200,200), (200,100), (100,200), (200,50), (50,200).
	if d := math.Abs(get(1) - get(2)); d > 1.5 {
		t.Errorf("(200,100) vs (100,200) theory differ by %v", d)
	}
	if d := math.Abs(get(3) - get(4)); d > 1.5 {
		t.Errorf("(200,50) vs (50,200) theory differ by %v", d)
	}
	// Against the paper's published theory column (within 1.5%).
	paper := []float64{274.95, 210.13, 210.13, 177.09, 177.09}
	for i, want := range paper {
		if got := get(i); math.Abs(got-want)/want > 0.015 {
			t.Errorf("row %d: theory %v vs paper %v", i, got, want)
		}
	}
}

func TestTable3CrossoverReproduces(t *testing.T) {
	res, err := runTable3(quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	if len(rows) != 5 {
		t.Fatalf("table3 rows %d", len(rows))
	}
	// Paper winner column must match ours for the extremes.
	if rows[0][6] != "LBP-2" {
		t.Errorf("δ=0.01: winner %s, want LBP-2", rows[0][6])
	}
	for _, i := range []int{3, 4} {
		if rows[i][6] != "LBP-1" {
			t.Errorf("δ=%s: winner %s, want LBP-1", rows[i][0], rows[i][6])
		}
	}
}

func TestArtifactsWritten(t *testing.T) {
	cfg := quickCfg(t)
	res, err := runFig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) == 0 {
		t.Fatal("no artifacts written")
	}
	for _, f := range res.Files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 {
			t.Fatalf("empty artifact %s", f)
		}
		if filepath.Ext(f) != ".csv" {
			t.Fatalf("unexpected artifact type %s", f)
		}
	}
}

func TestRenderProducesReadableOutput(t *testing.T) {
	res, err := runFig2(Config{Seed: 3, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := res.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"fig2", "Per-task transfer delay", "slope"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}

func TestAblationOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("MC heavy")
	}
	res, err := runAblate(quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	parse := func(cell string) float64 {
		v, _ := strconv.ParseFloat(strings.Fields(cell)[0], 64)
		return v
	}
	rows := res.Tables[0].Rows
	full := parse(rows[0][1])
	none := parse(rows[3][1])
	if !(full < none) {
		t.Errorf("full LBP-2 (%v) must beat no balancing (%v)", full, none)
	}
}

func TestMultiNodeBalancingHelps(t *testing.T) {
	if testing.Short() {
		t.Skip("MC heavy")
	}
	res, err := runMultiNode(quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	parse := func(cell string) float64 {
		v, _ := strconv.ParseFloat(strings.Fields(cell)[0], 64)
		return v
	}
	rows := res.Tables[0].Rows
	none := parse(rows[0][1])
	multi := parse(rows[2][1])
	if !(multi < none) {
		t.Errorf("multi-node balancing (%v) must beat none (%v)", multi, none)
	}
	// General solver vs MC cross-check within 5%.
	check := res.Tables[1].Rows
	want, _ := strconv.ParseFloat(check[0][1], 64)
	got := parse(check[1][1])
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("general solver %v vs MC %v", want, got)
	}
}

func TestDynamicArrivalsExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("MC heavy")
	}
	res, err := runDynamic(quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables[0].Rows) != 3 {
		t.Fatalf("dynamic rows %d", len(res.Tables[0].Rows))
	}
}

func TestServeCrossover(t *testing.T) {
	if testing.Short() {
		t.Skip("MC heavy")
	}
	res, err := runServe(quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	if len(rows) != 8 {
		t.Fatalf("serve rows %d, want 2 deltas x 4 policies", len(rows))
	}
	parse := func(cell string) float64 {
		v, _ := strconv.ParseFloat(strings.Fields(cell)[0], 64)
		return v
	}
	p99 := make(map[string]map[string]float64)    // delta -> policy -> p99
	flight := make(map[string]map[string]float64) // delta -> policy -> mean in-flight
	for _, row := range rows {
		if p99[row[0]] == nil {
			p99[row[0]] = make(map[string]float64)
			flight[row[0]] = make(map[string]float64)
		}
		p99[row[0]][row[1]] = parse(row[3])
		flight[row[0]][row[1]] = parse(row[5])
	}
	// The acceptance claim: churn-aware routing beats churn-blind JSQ on
	// p99 when the transfer delay is large relative to the recovery time.
	large := p99["30.00"]
	if large == nil {
		t.Fatalf("no delta=30 rows in %v", p99)
	}
	if !(large["lew"] < large["jsq"]) {
		t.Errorf("churn-aware lew p99 %v must beat churn-blind jsq %v at large delta", large["lew"], large["jsq"])
	}
	// The cost of balancing aggressively grows with delta: the dynamic
	// rebalancer's average in-flight work must blow up at the large delay
	// while the pure routers keep nothing in the air.
	if !(flight["30.00"]["dynlbp2"] > 10*flight["0.02"]["dynlbp2"]) {
		t.Errorf("dynlbp2 in-flight %v at delta=30 must dwarf %v at delta=0.02",
			flight["30.00"]["dynlbp2"], flight["0.02"]["dynlbp2"])
	}
	if f := flight["30.00"]["lew"]; f != 0 {
		t.Errorf("lew keeps %v tasks in flight, want 0 (routers never transfer)", f)
	}
	// The comparison table must land in results/ (the OutDir).
	if len(res.Files) == 0 {
		t.Error("serve experiment wrote no artifacts")
	}
}

func TestScaleScenarioSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("MC heavy")
	}
	res, err := runScale(quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	if len(rows) != len(scenario.Kinds()) {
		t.Fatalf("scale rows %d, want one per scenario family", len(rows))
	}
	parse := func(cell string) float64 {
		v, _ := strconv.ParseFloat(strings.Fields(cell)[0], 64)
		return v
	}
	// Hotspot is the regime where balancing matters: both policies must
	// beat no balancing.
	hotspot := rows[1]
	none, lbp1m, lbp2 := parse(hotspot[1]), parse(hotspot[2]), parse(hotspot[3])
	if !(lbp1m < none && lbp2 < none) {
		t.Errorf("hotspot: balancing (%v, %v) must beat none (%v)", lbp1m, lbp2, none)
	}
}
