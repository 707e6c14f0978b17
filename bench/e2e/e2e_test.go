package e2e

import (
	"testing"
	"time"
)

// Two replays of one block must agree to the bit: that is what lets a
// run's samples differ by host noise only.
func TestReplaysShareFingerprint(t *testing.T) {
	for _, w := range Sizes(true).Workloads() {
		prep, err := Setup(w, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		s, err := prep.Sample(2, time.Minute, nil)
		if err != nil {
			t.Fatal(err)
		}
		if s.Mismatches != 0 || s.Failed != 0 || s.Tasks != 2*prep.Warm.Tasks {
			t.Errorf("%s: %d mismatches, %d of %d tasks failed (warm-up did %d)", w.Name, s.Mismatches, s.Failed, s.Tasks, prep.Warm.Tasks)
		}
		if prep.SetupSeconds <= 0 || len(s.NsPerTask) != 2 {
			t.Errorf("%s: set-up took %g s, %d samples", w.Name, prep.SetupSeconds, len(s.NsPerTask))
		}
	}
}

func TestSeedChangesInputs(t *testing.T) {
	w := Sizes(true).Workloads()[1]
	var fps [2]uint64
	for i, seed := range []uint64{1, 2} {
		prep, err := Setup(w, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		fps[i] = prep.Warm.Fingerprint
	}
	if fps[0] == fps[1] {
		t.Errorf("seeds 1 and 2 gave the same fingerprint %016x", fps[0])
	}
}

// A conservation check that does not hold must fail every task of the
// realisation rather than pass silently.
func TestBrokenConservationFailsTasks(t *testing.T) {
	b, err := Sizes(true).Churn.New(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cb := b.(*closedBlock)
	cb.total++ // the block now expects a task the scenario never queued
	out, err := cb.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed != out.Tasks || out.Failed == 0 {
		t.Errorf("broken check failed %d of %d tasks, want all", out.Failed, out.Tasks)
	}
}

// driftBlock returns a different fingerprint on every replay.
type driftBlock struct{ n uint64 }

func (b *driftBlock) Run(*Spans) (Outcome, error) {
	b.n++
	return Outcome{Tasks: 10, Fingerprint: b.n}, nil
}

func TestFingerprintDriftFailsTheSample(t *testing.T) {
	prep := &Prepared{Block: &driftBlock{}, Warm: Outcome{Tasks: 10, Fingerprint: 1}}
	s, err := prep.Sample(3, time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Mismatches != 2 || s.Failed != 20 {
		t.Errorf("got %d mismatches and %d failed tasks, want 2 and 20", s.Mismatches, s.Failed)
	}
}

func TestSpansNest(t *testing.T) {
	sp := NewSpans()
	endRun := sp.Begin("run")
	endA := sp.Begin("a")
	endA()
	endB := sp.Begin("b")
	endB()
	endRun()
	all := sp.All()
	if len(all) != 3 || all[0].Parent != -1 || all[1].Parent != 0 || all[2].Parent != 0 {
		t.Fatalf("unexpected span tree: %+v", all)
	}
	for _, s := range all {
		if s.EndNs < s.StartNs {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	var none *Spans
	none.Begin("x")() // a nil recorder records nothing
	if none.All() != nil {
		t.Error("nil recorder returned spans")
	}
}
