package metrics

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"churnlb/internal/report"
)

func TestWriteTimeSeriesCSV(t *testing.T) {
	ws := []WindowStats{
		{Start: 0, Throughput: 10, P99: math.NaN(), QueueDepth: 3, InFlight: 0, Availability: 1, Fairness: math.NaN()},
		{Start: 1.5, Throughput: 12.5, P99: 2, QueueDepth: 0.25, InFlight: 1, Availability: 0.9, Fairness: 0.75},
		{Start: 3, Throughput: 0, P99: 4, QueueDepth: 0, InFlight: 0, Availability: 0.95, Fairness: 1},
	}
	var b bytes.Buffer
	if err := WriteWindowsCSV(&b, ws); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines %d, want header + 3 rows:\n%s", len(lines), b.String())
	}
	if lines[0] != "time,throughput,p99,queue_depth,in_flight,availability,fairness" {
		t.Fatalf("header %q", lines[0])
	}
	if lines[1] != "0,10,NaN,3,0,1,NaN" {
		t.Fatalf("row 0 = %q", lines[1])
	}
	if lines[2] != "1.5,12.5,2,0.25,1,0.9,0.75" {
		t.Fatalf("row 1 = %q", lines[2])
	}
}

func TestTimeSeriesSaveCSVRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ws := []WindowStats{{Start: 0, Throughput: 5}, {Start: 1, Throughput: 6}}
	p, err := report.SaveCSV(dir, "ts.csv", func(w io.Writer) error {
		return WriteWindowsCSV(w, ws)
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	want := "time,throughput,p99,queue_depth,in_flight,availability,fairness\n0,5,0,0,0,0,0\n1,6,0,0,0,0,0\n"
	if string(b) != want {
		t.Fatalf("unexpected content: %s", b)
	}
	if filepath.Ext(p) != ".csv" {
		t.Fatalf("unexpected path %s", p)
	}
}
