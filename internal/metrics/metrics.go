// Package metrics provides fixed-memory streaming telemetry for the
// open-system serving layer: P² quantile sketches for sojourn-time
// percentiles and a time-windowed Collector that turns the simulator's
// TaskObserver callbacks into throughput, queue-depth, in-flight and
// availability time series.
//
// Everything here does O(1) work per observed task and holds O(windows)
// memory no matter how many tasks flow through. When a run outlives the
// configured window budget, adjacent windows are merged pairwise and the
// window width doubles, so arbitrarily long runs stay within the budget.
package metrics

import (
	"math"
	"sort"

	"churnlb/internal/report"
)

// P2 is the Jain–Chlamtac P² streaming quantile estimator: five markers
// tracking a single quantile p in O(1) time and memory per observation.
// The zero value is not ready; use NewP2.
type P2 struct {
	p    float64
	n    int
	q    [5]float64 // marker heights
	pos  [5]float64 // actual marker positions (1-based)
	want [5]float64 // desired marker positions
	inc  [5]float64 // desired-position increments per observation
}

// NewP2 returns an estimator for the p-th quantile, p in (0, 1).
func NewP2(p float64) *P2 {
	if !(p > 0 && p < 1) {
		panic("metrics: P2 quantile must be in (0,1)")
	}
	e := &P2{p: p}
	e.Reset()
	return e
}

// Reset discards all observations, keeping the target quantile.
func (e *P2) Reset() {
	p := e.p
	*e = P2{p: p}
	e.want = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
	e.inc = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
}

// N returns the number of observations folded in.
func (e *P2) N() int { return e.n }

// Add folds one observation into the sketch.
func (e *P2) Add(x float64) {
	if e.n < 5 {
		e.q[e.n] = x
		e.n++
		if e.n == 5 {
			sort.Float64s(e.q[:])
			for i := range e.pos {
				e.pos[i] = float64(i + 1)
			}
		}
		return
	}
	// Locate the cell containing x, clamping the extremes.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		k = 0
		for x >= e.q[k+1] {
			k++
		}
	}
	e.n++
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := range e.want {
		e.want[i] += e.inc[i]
	}
	// Adjust the interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := e.want[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			q := e.parabolic(i, sign)
			if !(e.q[i-1] < q && q < e.q[i+1]) {
				q = e.linear(i, sign)
			}
			e.q[i] = q
			e.pos[i] += sign
		}
	}
}

// parabolic is the P² piecewise-parabolic marker update.
func (e *P2) parabolic(i int, d float64) float64 {
	num1 := e.pos[i] - e.pos[i-1] + d
	num2 := e.pos[i+1] - e.pos[i] - d
	den := e.pos[i+1] - e.pos[i-1]
	return e.q[i] + d/den*(num1*(e.q[i+1]-e.q[i])/(e.pos[i+1]-e.pos[i])+
		num2*(e.q[i]-e.q[i-1])/(e.pos[i]-e.pos[i-1]))
}

// linear is the fallback when the parabolic prediction leaves the bracket.
func (e *P2) linear(i int, d float64) float64 {
	j := i + int(d)
	return e.q[i] + d*(e.q[j]-e.q[i])/(e.pos[j]-e.pos[i])
}

// Clone returns an independent copy of the sketch.
func (e *P2) Clone() *P2 {
	c := *e // the marker arrays are values, so this is a deep copy
	return &c
}

// Merge folds o's observations into e, so e approximates the sketch of
// the pooled stream — the primitive behind cross-replication latency
// percentiles. While either side holds fewer than five raw observations
// the merge is exact (the raw values are replayed); beyond that the
// mixture CDF of the two marker sets is inverted at e's desired marker
// quantiles, the standard approximate P² combination. Merging is
// deterministic: the same (e, o) pair always produces the same result,
// so a fixed merge order yields worker-count-independent aggregates.
// Both sketches must target the same quantile. o is not modified.
func (e *P2) Merge(o *P2) {
	if o == nil || o.n == 0 {
		return
	}
	if e.p != o.p {
		panic("metrics: cannot merge P2 sketches with different quantiles")
	}
	if o.n < 5 {
		for _, x := range o.q[:o.n] {
			e.Add(x)
		}
		return
	}
	if e.n < 5 {
		raw := e.q
		rawN := e.n
		*e = *o
		for _, x := range raw[:rawN] {
			e.Add(x)
		}
		return
	}
	n1, n2 := float64(e.n), float64(o.n)
	total := n1 + n2
	// Breakpoints of the mixture CDF: every marker height of either side,
	// with its pooled cumulative fraction.
	var xs [10]float64
	copy(xs[:5], e.q[:])
	copy(xs[5:], o.q[:])
	sort.Float64s(xs[:])
	var fs [10]float64
	for i, x := range xs {
		fs[i] = (n1*e.cdfAt(x) + n2*o.cdfAt(x)) / total
	}
	// Invert at the five desired fractions {0, p/2, p, (1+p)/2, 1}.
	fractions := [5]float64{0, e.p / 2, e.p, (1 + e.p) / 2, 1}
	var q [5]float64
	q[0] = math.Min(e.q[0], o.q[0])
	q[4] = math.Max(e.q[4], o.q[4])
	for j := 1; j <= 3; j++ {
		q[j] = invertCDF(xs[:], fs[:], fractions[j])
		if q[j] < q[0] {
			q[j] = q[0]
		}
		if q[j] > q[4] {
			q[j] = q[4]
		}
	}
	// Markers must stay strictly ordered for future parabolic updates;
	// collapse any inversion introduced by interpolation.
	for j := 1; j < 5; j++ {
		if q[j] < q[j-1] {
			q[j] = q[j-1]
		}
	}
	e.n = int(total)
	e.q = q
	// Desired positions continue the P² schedule at the pooled count; the
	// actual positions restart there, the best available estimate.
	e.want = [5]float64{1, 1 + 2*e.p, 1 + 4*e.p, 3 + 2*e.p, 5}
	for i := range e.want {
		e.want[i] += e.inc[i] * (total - 5)
	}
	e.pos = e.want
	e.pos[0] = 1
	e.pos[4] = total
}

// cdfAt evaluates the sketch's piecewise-linear CDF estimate at x, with
// markers q[i] at cumulative fractions pos[i]/n.
func (e *P2) cdfAt(x float64) float64 {
	n := float64(e.n)
	switch {
	case x <= e.q[0]:
		if x < e.q[0] {
			return 0
		}
		return e.pos[0] / n
	case x >= e.q[4]:
		return 1
	}
	for i := 1; i < 5; i++ {
		if x < e.q[i] {
			f0, f1 := e.pos[i-1]/n, e.pos[i]/n
			if e.q[i] == e.q[i-1] {
				return f1
			}
			return f0 + (f1-f0)*(x-e.q[i-1])/(e.q[i]-e.q[i-1])
		}
	}
	return 1
}

// invertCDF returns the x with mixture CDF ≈ f by linear interpolation
// over the sorted breakpoints.
func invertCDF(xs, fs []float64, f float64) float64 {
	if f <= fs[0] {
		return xs[0]
	}
	for i := 1; i < len(xs); i++ {
		if f <= fs[i] {
			if fs[i] == fs[i-1] {
				return xs[i]
			}
			return xs[i-1] + (xs[i]-xs[i-1])*(f-fs[i-1])/(fs[i]-fs[i-1])
		}
	}
	return xs[len(xs)-1]
}

// Value returns the current quantile estimate. With fewer than five
// observations it falls back to the exact small-sample quantile; with
// none it returns NaN.
func (e *P2) Value() float64 {
	if e.n == 0 {
		return math.NaN()
	}
	if e.n < 5 {
		s := append([]float64(nil), e.q[:e.n]...)
		sort.Float64s(s)
		i := int(e.p * float64(e.n))
		if i >= e.n {
			i = e.n - 1
		}
		return s[i]
	}
	return e.q[2]
}

// Fairness is the per-node completed-work tally behind the Jain fairness
// index: Counts[i] is the number of tasks node i has completed. Tallies
// from independent realisations merge by elementwise addition, so pooled
// cross-replication fairness is exact (unlike percentile sketches) and
// independent of merge order.
type Fairness struct {
	Counts []int
}

// Clone returns an independent copy of the tally.
func (f Fairness) Clone() Fairness {
	return Fairness{Counts: append([]int(nil), f.Counts...)}
}

// Merge folds o's per-node counts into f. An empty f adopts o's size;
// otherwise the sizes must match.
func (f *Fairness) Merge(o Fairness) {
	if len(o.Counts) == 0 {
		return
	}
	if len(f.Counts) == 0 {
		f.Counts = append([]int(nil), o.Counts...)
		return
	}
	if len(f.Counts) != len(o.Counts) {
		panic("metrics: cannot merge Fairness tallies of different cluster sizes")
	}
	for i, c := range o.Counts {
		f.Counts[i] += c
	}
}

// Jain returns the Jain fairness index J = (Σx)²/(n·Σx²) over the
// per-node shares: 1 when every node completed the same amount, 1/n when
// one node did everything, NaN when nothing completed. The index is scale
// free, so shares and raw counts give the same value.
func (f Fairness) Jain() float64 {
	var sum, sumSq float64
	for _, c := range f.Counts {
		x := float64(c)
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return math.NaN()
	}
	return sum * sum / (float64(len(f.Counts)) * sumSq)
}

// jain computes the index over a raw counts slice without copying.
func jain(counts []int) float64 { return Fairness{Counts: counts}.Jain() }

// WindowStats summarises one time window of a serving run.
type WindowStats struct {
	// Start and Width bound the window [Start, Start+Width).
	Start, Width float64
	// Completions counts tasks finished inside the window; Throughput is
	// Completions/Width.
	Completions int
	Throughput  float64
	// P99 is the window-local sojourn-time 99th percentile (NaN when no
	// task completed in the window). After a merge it is the max of the
	// merged windows' values — an upper bound, not a recombined sketch.
	P99 float64
	// QueueDepth, InFlight and Availability are time-weighted averages
	// over the window: total queued tasks, tasks in transfer flight, and
	// the fraction of nodes up.
	QueueDepth, InFlight, Availability float64
	// Fairness is the cumulative Jain index over per-node completed work
	// at the window's close (NaN until anything completes) — cumulative
	// rather than window-local so the series shows convergence toward the
	// steady-state share split. Merged windows keep the later value.
	Fairness float64
}

// winAcc is the internal accumulator behind a WindowStats.
type winAcc struct {
	start, width                  float64
	completions                   int
	queuedInt, inFlightInt, upInt float64 // time integrals within the window
	p99                           float64
	fairness                      float64 // cumulative Jain index at close
}

// DefaultMaxWindows bounds the windowed series; beyond it adjacent
// windows merge and the width doubles.
const DefaultMaxWindows = 4096

// WindowFor returns the telemetry window width for a run observed over
// span simulated seconds: the requested width when positive, else
// span/100 and at least 0.1 s. The simulator's serving layer, the live
// daemon and lbd's twin all derive it here, so their series share a grid.
func WindowFor(requested, span float64) float64 {
	if requested > 0 {
		return requested
	}
	return math.Max(span/100, 0.1)
}

// Collector implements the simulator's TaskObserver, accumulating
// fixed-memory percentile sketches plus windowed time series. It is not
// safe for concurrent use; give each realisation its own Collector.
type Collector struct {
	n          int
	window     float64
	maxWindows int

	// continuous state, integrated between events
	lastT    float64
	upCount  int
	queued   int
	inFlight int

	// whole-run aggregates
	completed, arrived     int
	perNode                []int // completed-task counts per node (Jain fairness)
	sojournSum, waitSum    float64
	waited                 int
	p50, p90, p99          *P2
	totQueued, totInFlight float64 // time integrals over the whole run
	totUp                  float64

	windows []winAcc
	cur     winAcc
	curP99  *P2
}

// NewCollector returns a collector for n nodes (all initially up; the
// simulator reports initially-down nodes at t = 0) with the given window
// width in simulated seconds.
func NewCollector(n int, window float64) *Collector {
	if n <= 0 || window <= 0 {
		panic("metrics: NewCollector needs positive n and window")
	}
	return &Collector{
		n:          n,
		window:     window,
		maxWindows: DefaultMaxWindows,
		upCount:    n,
		perNode:    make([]int, n),
		p50:        NewP2(0.50),
		p90:        NewP2(0.90),
		p99:        NewP2(0.99),
		cur:        winAcc{start: 0, width: window},
		curP99:     NewP2(0.99),
	}
}

// advance integrates the continuous state from lastT to t, rolling
// completed windows into the series.
func (c *Collector) advance(t float64) {
	for t >= c.cur.start+c.cur.width {
		end := c.cur.start + c.cur.width
		c.integrate(end)
		c.closeWindow()
	}
	c.integrate(t)
}

func (c *Collector) integrate(t float64) {
	dt := t - c.lastT
	if dt <= 0 {
		return
	}
	c.cur.queuedInt += dt * float64(c.queued)
	c.cur.inFlightInt += dt * float64(c.inFlight)
	c.cur.upInt += dt * float64(c.upCount)
	c.totQueued += dt * float64(c.queued)
	c.totInFlight += dt * float64(c.inFlight)
	c.totUp += dt * float64(c.upCount)
	c.lastT = t
}

func (c *Collector) closeWindow() {
	c.cur.p99 = c.curP99.Value()
	c.cur.fairness = jain(c.perNode)
	c.windows = append(c.windows, c.cur)
	c.cur = winAcc{start: c.cur.start + c.cur.width, width: c.window}
	c.curP99.Reset()
	if len(c.windows) >= c.maxWindows {
		c.mergeWindows()
	}
}

// mergeWindows halves the series by combining adjacent pairs and doubles
// the width of all future windows, keeping memory bounded on runs of any
// length.
func (c *Collector) mergeWindows() {
	half := len(c.windows) / 2
	for i := 0; i < half; i++ {
		a, b := c.windows[2*i], c.windows[2*i+1]
		m := winAcc{
			start:       a.start,
			width:       a.width + b.width,
			completions: a.completions + b.completions,
			queuedInt:   a.queuedInt + b.queuedInt,
			inFlightInt: a.inFlightInt + b.inFlightInt,
			upInt:       a.upInt + b.upInt,
			p99:         math.Max(a.p99, b.p99),
			fairness:    b.fairness, // cumulative: the later close wins
		}
		if math.IsNaN(a.p99) {
			m.p99 = b.p99
		} else if math.IsNaN(b.p99) {
			m.p99 = a.p99
		}
		c.windows[i] = m
	}
	if len(c.windows)%2 == 1 {
		c.windows[half] = c.windows[len(c.windows)-1]
		half++
	}
	c.windows = c.windows[:half]
	c.window *= 2
	c.cur.width = c.window
}

// --- sim.TaskObserver implementation ---

// TasksArrived implements the observer hook.
func (c *Collector) TasksArrived(_, count int, t float64) {
	c.advance(t)
	c.queued += count
	c.arrived += count
}

// TaskCompleted implements the observer hook.
func (c *Collector) TaskCompleted(node int, arrival, firstService, completion float64) {
	c.advance(completion)
	c.queued--
	c.completed++
	c.perNode[node]++
	s := completion - arrival
	c.sojournSum += s
	c.p50.Add(s)
	c.p90.Add(s)
	c.p99.Add(s)
	c.curP99.Add(s)
	c.cur.completions++
	if firstService >= 0 {
		c.waitSum += firstService - arrival
		c.waited++
	}
}

// NodeStateChanged implements the observer hook.
func (c *Collector) NodeStateChanged(_ int, up bool, t float64) {
	c.advance(t)
	if up {
		c.upCount++
	} else {
		c.upCount--
	}
}

// TransferDeparted implements the observer hook.
func (c *Collector) TransferDeparted(_, _, tasks int, t float64) {
	c.advance(t)
	c.queued -= tasks
	c.inFlight += tasks
}

// TransferArrived implements the observer hook.
func (c *Collector) TransferArrived(_, tasks int, t float64) {
	c.advance(t)
	c.inFlight -= tasks
	c.queued += tasks
}

// LatencySketch bundles the whole-run sojourn-time percentile sketches of
// one realisation, so replication aggregators can pool latency across
// runs instead of averaging per-run percentiles.
type LatencySketch struct {
	P50, P90, P99 *P2
}

// Clone returns an independent copy of the sketch bundle.
func (s LatencySketch) Clone() LatencySketch {
	c := LatencySketch{}
	if s.P50 != nil {
		c.P50 = s.P50.Clone()
	}
	if s.P90 != nil {
		c.P90 = s.P90.Clone()
	}
	if s.P99 != nil {
		c.P99 = s.P99.Clone()
	}
	return c
}

// Merge folds o into s pairwise per percentile; nil sketches are treated
// as empty.
func (s *LatencySketch) Merge(o LatencySketch) {
	if s.P50 == nil {
		s.P50, s.P90, s.P99 = NewP2(0.50), NewP2(0.90), NewP2(0.99)
	}
	s.P50.Merge(o.P50)
	s.P90.Merge(o.P90)
	s.P99.Merge(o.P99)
}

// Sketches returns independent copies of the collector's whole-run
// percentile sketches, safe to retain and merge after the run.
func (c *Collector) Sketches() LatencySketch {
	return LatencySketch{P50: c.p50.Clone(), P90: c.p90.Clone(), P99: c.p99.Clone()}
}

// FairnessCounts returns an independent copy of the per-node completed
// tally, safe to retain and merge across replications.
func (c *Collector) FairnessCounts() Fairness {
	return Fairness{Counts: c.perNode}.Clone()
}

// --- results ---

// Summary is the whole-run aggregate view of a serving realisation.
type Summary struct {
	// Arrived and Completed count tasks entering and leaving the system.
	Arrived, Completed int
	// Elapsed is the observation span in simulated seconds.
	Elapsed float64
	// P50, P90, P99 are streaming sojourn-time percentile estimates.
	P50, P90, P99 float64
	// MeanSojourn and MeanWait average completion-arrival and
	// firstService-arrival over completed tasks.
	MeanSojourn, MeanWait float64
	// Throughput is Completed/Elapsed.
	Throughput float64
	// QueueDepth, InFlight and Availability are time-weighted averages
	// over the whole run.
	QueueDepth, InFlight, Availability float64
	// Fairness is the Jain index over per-node completed-work shares:
	// 1 when every node completed the same amount, 1/n when one node did
	// everything, NaN when nothing completed.
	Fairness float64
}

// Finalize integrates up to t (the end of the run) and returns the
// whole-run summary. The collector can keep accumulating afterwards.
func (c *Collector) Finalize(t float64) Summary {
	c.advance(t)
	s := Summary{
		Arrived:   c.arrived,
		Completed: c.completed,
		Elapsed:   c.lastT,
		P50:       c.p50.Value(),
		P90:       c.p90.Value(),
		P99:       c.p99.Value(),
		Fairness:  jain(c.perNode),
	}
	if c.completed > 0 {
		s.MeanSojourn = c.sojournSum / float64(c.completed)
	}
	if c.waited > 0 {
		s.MeanWait = c.waitSum / float64(c.waited)
	}
	if c.lastT > 0 {
		s.Throughput = float64(c.completed) / c.lastT
		s.QueueDepth = c.totQueued / c.lastT
		s.InFlight = c.totInFlight / c.lastT
		s.Availability = c.totUp / (c.lastT * float64(c.n))
	} else {
		s.Availability = float64(c.upCount) / float64(c.n)
	}
	return s
}

// Windows returns the closed windows plus the in-progress one (trimmed to
// the last integrated instant), as exportable WindowStats.
func (c *Collector) Windows() []WindowStats {
	out := make([]WindowStats, 0, len(c.windows)+1)
	for _, w := range c.windows {
		out = append(out, c.export(w, w.width))
	}
	if span := c.lastT - c.cur.start; span > 0 {
		last := c.cur
		last.p99 = c.curP99.Value()
		last.fairness = jain(c.perNode)
		out = append(out, c.export(last, span))
	}
	return out
}

func (c *Collector) export(w winAcc, span float64) WindowStats {
	ws := WindowStats{
		Start:       w.start,
		Width:       span,
		Completions: w.completions,
		P99:         w.p99,
		Fairness:    w.fairness,
	}
	if span > 0 {
		ws.Throughput = float64(w.completions) / span
		ws.QueueDepth = w.queuedInt / span
		ws.InFlight = w.inFlightInt / span
		ws.Availability = w.upInt / (span * float64(c.n))
	}
	return ws
}

// ToTimeSeries flattens telemetry windows into the report CSV shape —
// the single definition of the serving time-series columns, shared by
// cmd/lbserve and the serve experiment.
func ToTimeSeries(ws []WindowStats) report.TimeSeries {
	ts := report.TimeSeries{}
	var thr, p99, depth, flight, avail, fair []float64
	for _, w := range ws {
		ts.Time = append(ts.Time, w.Start)
		thr = append(thr, w.Throughput)
		p99 = append(p99, w.P99)
		depth = append(depth, w.QueueDepth)
		flight = append(flight, w.InFlight)
		avail = append(avail, w.Availability)
		fair = append(fair, w.Fairness)
	}
	ts.AddColumn("throughput", thr)
	ts.AddColumn("p99", p99)
	ts.AddColumn("queue_depth", depth)
	ts.AddColumn("in_flight", flight)
	ts.AddColumn("availability", avail)
	ts.AddColumn("fairness", fair)
	return ts
}
