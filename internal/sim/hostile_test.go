package sim

import (
	"math"
	"strings"
	"testing"

	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/xrand"
)

// TestHostileArrivalParametersRejected: every arrival or termination
// parameter that used to wedge the event loop — a NaN fails every
// comparison it meets, an infinite rate never advances the clock, a batch
// beyond the int32 queue wraps negative and never drains — is refused by
// both engines with an error naming the field. The cases go through Start
// and StartSharded, which validate without firing an event, so a value
// that slips through fails its case instead of hanging the suite.
func TestHostileArrivalParametersRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name, field string
		mod         func(*Options)
		// sequential marks options only the sequential engine accepts.
		sequential bool
	}{
		{"rate-nan", "ArrivalRate", func(o *Options) { o.ArrivalRate = nan }, false},
		{"rate-inf", "ArrivalRate", func(o *Options) { o.ArrivalRate = inf }, false},
		{"rate-neg-inf", "ArrivalRate", func(o *Options) { o.ArrivalRate = -inf }, false},
		{"horizon-nan", "ArrivalHorizon", func(o *Options) { o.ArrivalHorizon = nan }, false},
		{"horizon-inf", "ArrivalHorizon", func(o *Options) { o.ArrivalHorizon = inf }, false},
		{"wave-amplitude-nan", "ArrivalWave.Amplitude", func(o *Options) { o.ArrivalWave = Wave{Amplitude: nan, Period: 10} }, false},
		{"wave-amplitude-inf", "ArrivalWave.Amplitude", func(o *Options) { o.ArrivalWave = Wave{Amplitude: inf, Period: 10} }, false},
		{"wave-period-nan", "ArrivalWave.Period", func(o *Options) { o.ArrivalWave = Wave{Amplitude: 0.5, Period: nan} }, false},
		{"wave-period-inf", "ArrivalWave.Period", func(o *Options) { o.ArrivalWave = Wave{Amplitude: 0.5, Period: inf} }, false},
		{"maxtime-nan", "MaxTime", func(o *Options) { o.MaxTime = nan }, false},
		{"maxtime-negative", "MaxTime", func(o *Options) { o.MaxTime = -1 }, false},
		{"batch-over-int32", "ArrivalBatch", func(o *Options) { o.ArrivalBatch = math.MaxInt32 + 1 }, false},
		{"trace-batch-over-int32", "ArrivalTrace[1].Batch", func(o *Options) {
			o.ArrivalRate, o.ArrivalHorizon = 0, 0
			o.ArrivalTrace = []ArrivalAt{{Time: 0, Batch: 1}, {Time: 1, Batch: 3_000_000_000}}
		}, true},
	}
	for _, c := range cases {
		for _, shards := range []int{0, 2} {
			if shards > 0 && c.sequential {
				continue
			}
			opt := Options{
				Params:         model.PaperBaseline(),
				Policy:         policy.LBP2{K: 1},
				InitialLoad:    []int{5, 5},
				Rand:           xrand.New(1),
				ArrivalRate:    2,
				ArrivalBatch:   1,
				ArrivalHorizon: 5,
				Shards:         shards,
			}
			c.mod(&opt)
			var err error
			if shards > 0 {
				_, err = StartSharded(opt)
			} else {
				_, err = Start(opt)
			}
			if err == nil {
				t.Errorf("%s (shards %d): accepted", c.name, shards)
			} else if !strings.Contains(err.Error(), c.field) {
				t.Errorf("%s (shards %d): error %q does not name %s", c.name, shards, err, c.field)
			}
		}
	}
	// The boundary values stay legal: the cap itself, and MaxTime = +Inf
	// (a limit that never binds).
	ok := Options{
		Params: model.PaperBaseline(), InitialLoad: []int{1, 0}, Rand: xrand.New(1),
		ArrivalBatch: math.MaxInt32, MaxTime: inf,
	}
	if _, err := Run(ok); err != nil {
		t.Errorf("boundary values rejected: %v", err)
	}
}
