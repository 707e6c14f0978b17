package model

import (
	"math"
	"strings"
	"testing"
)

// TestValidate: every ill-posed system is refused with an error naming
// what is wrong. An infinite rate or delay is an event that can never be
// drawn or a transfer that never lands.
func TestValidate(t *testing.T) {
	if err := PaperBaseline().Validate(); err != nil {
		t.Fatalf("baseline invalid: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name, names string
		mod         func(*Params)
	}{
		{"empty", "no nodes", func(p *Params) { *p = Params{} }},
		{"ragged", "disagree", func(p *Params) { p.FailRate = p.FailRate[:1] }},
		{"proc-inf", "ProcRate", func(p *Params) { p.ProcRate[0] = inf }},
		{"proc-zero", "ProcRate", func(p *Params) { p.ProcRate[1] = 0 }},
		{"fail-inf", "FailRate", func(p *Params) { p.FailRate[0] = inf }},
		{"fail-nan", "FailRate", func(p *Params) { p.FailRate[1] = nan }},
		{"fail-negative", "FailRate", func(p *Params) { p.FailRate[0] = -1 }},
		{"rec-inf", "RecRate", func(p *Params) { p.RecRate[1] = inf }},
		{"rec-nan", "RecRate", func(p *Params) { p.RecRate[0] = nan }},
		{"delay-inf", "DelayPerTask", func(p *Params) { p.DelayPerTask = inf }},
		{"delay-nan", "DelayPerTask", func(p *Params) { p.DelayPerTask = nan }},
		{"delay-negative", "DelayPerTask", func(p *Params) { p.DelayPerTask = -inf }},
		{"never-recovers", "never recovers", func(p *Params) { p.FailRate[0], p.RecRate[0] = 0.1, 0 }},
	} {
		p := PaperBaseline()
		c.mod(&p)
		if err := p.Validate(); err == nil || !strings.Contains(err.Error(), c.names) {
			t.Errorf("%s: Validate = %v, want an error naming %q", c.name, err, c.names)
		}
	}
}

func TestAvailabilityAndEffectiveRate(t *testing.T) {
	p := PaperBaseline()
	if a := p.Availability(0); math.Abs(a-2.0/3.0) > 1e-12 {
		t.Fatalf("availability(0) = %v", a)
	}
	if a := p.Availability(1); math.Abs(a-0.5) > 1e-12 {
		t.Fatalf("availability(1) = %v", a)
	}
	if e := p.EffectiveRate(1); math.Abs(e-0.93) > 1e-12 {
		t.Fatalf("effective(1) = %v", e)
	}
	if p.NoFailure().Availability(0) != 1 {
		t.Fatal("no-failure availability")
	}
}

func TestTotalProcRate(t *testing.T) {
	if r := PaperBaseline().TotalProcRate(); math.Abs(r-2.94) > 1e-12 {
		t.Fatalf("total rate = %v", r)
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := PaperBaseline()
	c := p.Clone()
	c.ProcRate[0] = 99
	c.DelayPerTask = 99
	if p.ProcRate[0] == 99 || p.DelayPerTask == 99 {
		t.Fatal("Clone shares storage")
	}
}

func TestNoFailureAndWithDelayAreCopies(t *testing.T) {
	p := PaperBaseline()
	nf := p.NoFailure()
	if p.FailRate[0] == 0 {
		t.Fatal("NoFailure mutated the original")
	}
	if nf.FailRate[0] != 0 || nf.FailRate[1] != 0 {
		t.Fatal("NoFailure did not zero rates")
	}
	d := p.WithDelay(3)
	if p.DelayPerTask == 3 || d.DelayPerTask != 3 {
		t.Fatal("WithDelay wrong")
	}
}

func TestStateHelpers(t *testing.T) {
	s := State{Queues: []int{3, 4}, Up: []bool{true, false}, InFlightTasks: 5}
	c := s.Clone()
	c.Queues[0] = 100
	c.Up[1] = true
	if s.Queues[0] == 100 || s.Up[1] {
		t.Fatal("State.Clone shares storage")
	}
}
