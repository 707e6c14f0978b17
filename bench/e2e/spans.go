package e2e

import (
	"encoding/json"
	"os"
	"time"
)

// Span is one traced interval: Parent is the index of the enclosing span
// in the recorder (-1 for the root), times are nanoseconds since the
// recorder was made.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// Spans records nested spans in memory from one goroutine (the
// benchmark's load-generating goroutine); a nil *Spans records nothing,
// which is how the untraced run is made.
type Spans struct {
	t0    time.Time
	spans []Span
	open  []int
}

// NewSpans starts a recorder.
func NewSpans() *Spans { return &Spans{t0: time.Now()} }

func noop() {}

// Begin opens a span under the innermost open one and returns the call
// that closes it.
func (s *Spans) Begin(name string) (end func()) {
	if s == nil {
		return noop
	}
	parent := -1
	if len(s.open) > 0 {
		parent = s.open[len(s.open)-1]
	}
	id := len(s.spans)
	s.spans = append(s.spans, Span{ID: id, Parent: parent, Name: name, StartNs: time.Since(s.t0).Nanoseconds()})
	s.open = append(s.open, id)
	return func() {
		s.spans[id].EndNs = time.Since(s.t0).Nanoseconds()
		s.open = s.open[:len(s.open)-1]
	}
}

// All returns the recorded spans in start order.
func (s *Spans) All() []Span {
	if s == nil {
		return nil
	}
	return s.spans
}

// WriteFile writes the spans as one JSON document.
func (s *Spans) WriteFile(path string) error {
	data, err := json.Marshal(struct {
		Spans []Span `json:"spans"`
	}{s.All()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
