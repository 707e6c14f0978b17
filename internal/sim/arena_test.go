package sim

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"testing"

	"churnlb/internal/mc"
	"churnlb/internal/policy"
)

// The tests in this file pin the one property the realisation arena has to
// have: which memory a run starts on — none, or what any earlier run left
// — shows in no output.

// arenaStep is one realisation of a sequence run through a single arena.
type arenaStep struct {
	name string
	// opt builds the step's options from nothing: its own stream, router,
	// observer and sink, so a step can be built twice and run twice.
	opt func() Options
	// abandon starts the realisation, fires a few events and walks away
	// without Finish; its outputs are not compared.
	abandon bool
}

// outcomeBits runs opt to the end and flattens every output of the run:
// the Result with its trace, the task-observer call stream, the decision
// stream, and the next word of the random stream. A run that ends in an
// error contributes the error's text instead.
func outcomeBits(opt Options) []uint64 {
	res, err := Run(opt)
	if err != nil {
		return []uint64{streamHashOf(err.Error())}
	}
	bits := resultBits(res)
	if o, ok := opt.TaskObserver.(*streamHash); ok {
		bits = append(bits, o.h.Sum64())
	}
	if d, ok := opt.DecisionSink.(*decisionHash); ok {
		bits = append(bits, uint64(d.decisions), d.fold.h.Sum64())
	}
	return append(bits, opt.Rand.Uint64())
}

func streamHashOf(s string) uint64 {
	h := newStreamHash()
	h.h.Write([]byte(s))
	return h.h.Sum64()
}

// checkThroughOneArena runs every step on a fresh arena (the idle list
// emptied first) and then the whole sequence back to back — step k on the
// arena k runs have used — and requires each step's outputs to agree bit
// for bit.
func checkThroughOneArena(t *testing.T, steps []arenaStep) {
	t.Helper()
	fresh := make([][]uint64, len(steps))
	for k, st := range steps {
		if !st.abandon {
			dropIdleArenas()
			fresh[k] = outcomeBits(st.opt())
		}
	}
	dropIdleArenas()
	defer dropIdleArenas()
	for k, st := range steps {
		if st.abandon {
			r, err := Start(st.opt())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50 && !r.Done() && r.ProcessNext(); i++ {
			}
			continue
		}
		if got := outcomeBits(st.opt()); !slices.Equal(got, fresh[k]) {
			t.Errorf("step %d (%s): outputs on the arena %d runs used differ from a fresh arena's", k, st.name, k)
		}
	}
}

// arenaCases lists the run shapes the reuse property is checked over; each
// builds realisation k of its shape. Every shape comes in two sizes, named
// by the event queue the simulator picks for each: the calendar-sized one
// as written, and a heap-sized one with a tenth of the nodes, the load and
// the arrival rate.
func arenaCases() map[string]func(k uint64) Options {
	cases := map[string]func(k uint64) Options{}
	for _, shrink := range []int{1, 10} {
		queue := queueFor(120 / shrink).String()
		closed := func(pol policy.Policy, lazy bool) func(k uint64) Options {
			return func(k uint64) Options {
				o := churnHeavyOptions(120/shrink, 2400/shrink, pol, 100+k)
				o.LazyChurn = lazy
				return o
			}
		}
		for _, lazy := range []bool{false, true} {
			label := fmt.Sprintf("%v/lazy=%v", queue, lazy)
			cases["lbp2/"+label] = closed(policy.LBP2{K: 1}, lazy)
			cases["none/"+label] = closed(policy.NoBalance{}, lazy)
		}
		// No capability at all: Initial and OnFailure through their slices.
		cases["lbp2-scan/"+queue] = closed(hidePlanner(policy.LBP2{K: 1}), false)
		cases["traced/"+queue] = func(k uint64) Options {
			o := churnHeavyOptions(40/shrink, 400/shrink, policy.LBP2{K: 1}, 200+k)
			o.Trace = true
			return o
		}
		cases["serve-jsq-observed/"+queue] = func(k uint64) Options {
			o := churnHeavyOptions(80/shrink, 400/shrink, policy.LBP2{K: 1}, 300+k)
			o.Router = policy.JSQ{}
			o.ArrivalRate, o.ArrivalBatch, o.ArrivalHorizon = 120/float64(shrink), 2, 8
			o.TaskObserver, o.DecisionSink = newStreamHash(), newDecisionHash()
			return o
		}
		cases["dynamic-arrivals/"+queue] = func(k uint64) Options {
			o := churnHeavyOptions(30/shrink, 300/shrink, policy.Dynamic{Base: policy.LBP2{K: 0.5}}, 400+k)
			o.ArrivalRate, o.ArrivalBatch, o.ArrivalHorizon = 20/float64(shrink), 3, 6
			o.TaskObserver = newStreamHash()
			return o
		}
	}
	return cases
}

// TestArenaReuseIsInvisible replays realisation k of every shape on a
// fresh arena and on the arena realisations 0..k-1 of the same shape have
// used, and compares every output bit.
func TestArenaReuseIsInvisible(t *testing.T) {
	cases := arenaCases()
	for _, name := range slices.Sorted(maps.Keys(cases)) {
		opt := cases[name]
		t.Run(name, func(t *testing.T) {
			var steps []arenaStep
			for k := uint64(0); k < 4; k++ {
				steps = append(steps, arenaStep{name: fmt.Sprint("realisation ", k), opt: func() Options { return opt(k) }})
			}
			checkThroughOneArena(t, steps)
		})
	}
}

// TestArenaSurvivesAwkwardNeighbours runs the sequences that break a
// naive reuse through one arena: a cluster far smaller than the one before
// it and far larger than the one after, a run aborted at MaxTime with its
// events still pending, a Start nobody finishes, and serving runs (task
// deques in use) alternating with closed ones (deques carried along).
func TestArenaSurvivesAwkwardNeighbours(t *testing.T) {
	cases := arenaCases()
	sized := func(n, load int, observed bool) func() Options {
		return func() Options {
			o := churnHeavyOptions(n, load, policy.LBP2{K: 1}, uint64(n))
			o.LazyChurn = !observed
			if observed {
				o.TaskObserver = newStreamHash()
			}
			return o
		}
	}
	at := func(name string, k uint64) func() Options {
		return func() Options { return cases[name](k) }
	}
	aborted := func(name string) func() Options {
		return func() Options {
			o := cases[name](9)
			o.MaxTime = 0.5
			return o
		}
	}
	for _, name := range []string{"lbp2/calendar/lazy=false", "lbp2/heap/lazy=false"} {
		if _, err := Run(aborted(name)()); err == nil {
			t.Fatalf("the MaxTime step on %s completed; it must abort with events pending", name)
		}
	}
	for _, seq := range []struct {
		name  string
		steps []arenaStep
	}{
		{"2000-50-2000 nodes", []arenaStep{
			{name: "2000", opt: sized(2000, 8000, false)}, {name: "50", opt: sized(50, 500, false)}, {name: "2000 again", opt: sized(2000, 8000, false)},
		}},
		{"2000-50-2000 nodes observed", []arenaStep{
			{name: "2000", opt: sized(2000, 8000, true)}, {name: "50", opt: sized(50, 500, true)}, {name: "2000 again", opt: sized(2000, 8000, true)},
		}},
		{"aborted at MaxTime", []arenaStep{
			{name: "aborted", opt: aborted("lbp2/calendar/lazy=false")}, {name: "normal", opt: at("lbp2/calendar/lazy=false", 1)},
			{name: "aborted on the heap", opt: aborted("lbp2/heap/lazy=false")},
			{name: "normal on the heap", opt: at("lbp2/heap/lazy=true", 2)},
		}},
		{"never finished", []arenaStep{
			{name: "abandoned", opt: at("serve-jsq-observed/calendar", 0), abandon: true}, {name: "normal", opt: at("lbp2/calendar/lazy=true", 3)},
			{name: "abandoned after use", opt: at("lbp2/calendar/lazy=true", 4), abandon: true}, {name: "normal again", opt: at("serve-jsq-observed/calendar", 5)},
		}},
		{"serving and closed alternate", []arenaStep{
			{name: "serve", opt: at("serve-jsq-observed/calendar", 1)}, {name: "closed", opt: at("lbp2/calendar/lazy=true", 1)},
			{name: "serve again", opt: at("serve-jsq-observed/calendar", 2)}, {name: "closed on the heap", opt: at("none/heap/lazy=false", 2)},
			{name: "dynamic", opt: at("dynamic-arrivals/heap", 3)},
		}},
	} {
		t.Run(seq.name, func(t *testing.T) { checkThroughOneArena(t, seq.steps) })
	}
}

// TestArenaUseAfterFinishPanics: Finish gives the realisation's memory
// away, so a stale Realisation must fail loudly rather than read the next
// run's state.
func TestArenaUseAfterFinishPanics(t *testing.T) {
	r, err := Start(arenaCases()["none/heap/lazy=false"](0))
	if err != nil {
		t.Fatal(err)
	}
	for !r.Done() && r.ProcessNext() {
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Done after Finish did not panic")
		}
	}()
	r.Done()
}

// TestArenaParallelStudyMatchesSerial: mc.ForEach with 4 workers over 64
// replications — arenas taken and parked concurrently, clusters of four
// sizes (the smallest on the heap, the rest on the calendar queue) passing
// through them in whatever order the workers claim — equals the serial
// loop element by element. Meaningful under -race.
func TestArenaParallelStudyMatchesSerial(t *testing.T) {
	const reps = 64
	replication := func(rep int) []uint64 {
		o := churnHeavyOptions(10+30*(rep%4), 600, policy.LBP2{K: 1}, uint64(rep))
		o.LazyChurn = rep%2 == 0
		if rep%8 == 3 {
			o.TaskObserver = newStreamHash()
		}
		return outcomeBits(o)
	}
	serial := make([][]uint64, reps)
	for rep := range serial {
		serial[rep] = replication(rep)
	}
	parallel := make([][]uint64, reps)
	err := mc.ForEach(mc.Options{Reps: reps, Workers: 4}, func(rep int) error {
		parallel[rep] = replication(rep)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rep := range serial {
		if !slices.Equal(parallel[rep], serial[rep]) {
			t.Errorf("replication %d differs between 4 workers and the serial loop", rep)
		}
	}
	idle.Lock()
	n := len(idle.arenas)
	idle.Unlock()
	if limit := runtime.GOMAXPROCS(0); n > limit {
		t.Errorf("%d idle arenas after the study, the cap is GOMAXPROCS = %d", n, limit)
	}
}
