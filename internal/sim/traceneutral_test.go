package sim

import (
	"testing"
	"testing/quick"

	"churnlb/internal/policy"
	"churnlb/internal/xrand"
)

// TestTraceNeverPerturbs is the contract of Options.Trace: it installs a
// recorder and selects nothing. Over randomized systems — policy × router
// × arrival process × cluster size on either side of the event-queue
// threshold — the traced and the untraced run of the same seed must agree
// on the whole Result (Trace apart), on every TaskObserver callback and
// every routing decision in order (with the view it was made on), and on
// the next word left in the stream.
func TestTraceNeverPerturbs(t *testing.T) {
	t.Parallel()
	traced := 0
	f := func(seed uint16, nRaw, polRaw, routerRaw, arrivalRaw, queueRaw uint8) bool {
		gen := xrand.NewStream(uint64(seed), 41)
		n := 2 + int(nRaw)%6
		if queueRaw%2 == 1 {
			n += calendarNodes
		}
		p, load := randomParams(gen, n)
		if polRaw%2 == 0 {
			p, load = churnHeavyParams(gen, n)
		}
		var pol policy.Policy
		switch polRaw % 5 {
		case 0:
			pol = policy.NoBalance{}
		case 1:
			pol = policy.LBP1Multi{K: 0.8}
		default:
			pol = planPolicy(polRaw)
		}
		base := Options{Params: p, Policy: pol, InitialLoad: load}
		switch arrivalRaw % 4 {
		case 0: // closed system
		case 1:
			base.ArrivalRate, base.ArrivalBatch, base.ArrivalHorizon = 0.8, 1+int(nRaw)%3, 25
		case 2:
			base.ArrivalRate, base.ArrivalHorizon = 1.2, 25
			base.ArrivalWave = Wave{Amplitude: 0.7, Period: 8}
		default:
			base.ArrivalBatch, base.ArrivalTrace = 2, t0Schedule()
		}
		run := func(trace bool) (*Result, *decisionHash, uint64) {
			opt := base
			opt.Rand = xrand.NewStream(uint64(seed), 42)
			switch routerRaw % 4 {
			case 0: // uniform default
			case 1:
				opt.Router = policy.JSQ{}
			case 2:
				opt.Router = policy.LeastExpectedWork{}
			default:
				opt.Router = policy.PowerOfD{D: 2}
			}
			obs := newDecisionHash(n, opt.Router)
			opt.TaskObserver = obs
			opt.Trace = trace
			res, err := Run(opt)
			if err != nil {
				t.Fatal(err)
			}
			return res, obs, opt.Rand.Uint64()
		}
		off, offObs, offNext := run(false)
		on, onObs, onNext := run(true)
		if len(off.Trace) != 0 || len(on.Trace) < 2 {
			t.Errorf("trace lengths: off %d, on %d", len(off.Trace), len(on.Trace))
			return false
		}
		traced += len(on.Trace)
		on.Trace = nil
		offStream, _ := hashOf(offObs)
		onStream, _ := hashOf(onObs)
		return sameResult(off, on) &&
			offStream.calls == onStream.calls && offStream.h.Sum64() == onStream.h.Sum64() &&
			offObs.decisions == onObs.decisions && offObs.fold.h.Sum64() == onObs.fold.h.Sum64() &&
			offNext == onNext
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
	if traced == 0 {
		t.Fatal("no traced run recorded an event")
	}
}
