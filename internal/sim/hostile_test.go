package sim

import (
	"math"
	"strings"
	"testing"

	"churnlb/internal/model"
	"churnlb/internal/policy"
	"churnlb/internal/xrand"
)

// TestHostileArrivalParametersRejected: every arrival parameter that used to wedge the event loop — a NaN fails every
// comparison it meets, an infinite rate never advances the clock, a batch
// beyond the int32 queue wraps negative and never drains — is refused
// with an error naming the field. The cases go through start, which
// validates without firing an event, so a value that slips through fails
// its case instead of hanging the suite.
func TestHostileArrivalParametersRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name, field string
		mod         func(*Options)
	}{
		{"rate-nan", "ArrivalRate", func(o *Options) { o.ArrivalRate = nan }},
		{"rate-inf", "ArrivalRate", func(o *Options) { o.ArrivalRate = inf }},
		{"rate-neg-inf", "ArrivalRate", func(o *Options) { o.ArrivalRate = -inf }},
		{"horizon-nan", "ArrivalHorizon", func(o *Options) { o.ArrivalHorizon = nan }},
		{"horizon-inf", "ArrivalHorizon", func(o *Options) { o.ArrivalHorizon = inf }},
		{"wave-amplitude-nan", "ArrivalWave.Amplitude", func(o *Options) { o.ArrivalWave = Wave{Amplitude: nan, Period: 10} }},
		{"wave-amplitude-inf", "ArrivalWave.Amplitude", func(o *Options) { o.ArrivalWave = Wave{Amplitude: inf, Period: 10} }},
		{"wave-period-nan", "ArrivalWave.Period", func(o *Options) { o.ArrivalWave = Wave{Amplitude: 0.5, Period: nan} }},
		{"wave-period-inf", "ArrivalWave.Period", func(o *Options) { o.ArrivalWave = Wave{Amplitude: 0.5, Period: inf} }},
		{"batch-over-int32", "ArrivalBatch", func(o *Options) { o.ArrivalBatch = math.MaxInt32 + 1 }},
		{"trace-batch-over-int32", "ArrivalTrace[1].Batch", func(o *Options) {
			o.ArrivalRate, o.ArrivalHorizon = 0, 0
			o.ArrivalTrace = []ArrivalAt{{Time: 0, Batch: 1}, {Time: 1, Batch: 3_000_000_000}}
		}},
	}
	for _, c := range cases {
		opt := Options{
			Params:         model.PaperBaseline(),
			Policy:         policy.LBP2{K: 1},
			InitialLoad:    []int{5, 5},
			Rand:           xrand.New(1),
			ArrivalRate:    2,
			ArrivalBatch:   1,
			ArrivalHorizon: 5,
		}
		c.mod(&opt)
		if _, err := start(opt); err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: error %q does not name %s", c.name, err, c.field)
		}
	}
	// The boundary value stays legal: the cap itself.
	ok := Options{
		Params: model.PaperBaseline(), InitialLoad: []int{1, 0}, Rand: xrand.New(1),
		ArrivalBatch: math.MaxInt32,
	}
	if _, err := Run(ok); err != nil {
		t.Errorf("boundary values rejected: %v", err)
	}
}

// TestNodeCap: a cluster above MaxNodes is refused, naming the cap, before
// the run validates or allocates anything per node.
func TestNodeCap(t *testing.T) {
	r := make([]float64, MaxNodes+1) // one untouched vector shared by the three rates
	_, err := Run(Options{Params: model.Params{ProcRate: r, FailRate: r, RecRate: r}, Rand: xrand.New(1)})
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("Run = %v, want an error naming the node cap", err)
	}
}
