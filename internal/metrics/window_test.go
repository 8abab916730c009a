package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestWindowedRejectsBadWidth(t *testing.T) {
	for _, width := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := NewWindowed(width, 0); err == nil {
			t.Fatalf("NewWindowed(%v) did not error", width)
		}
	}
}

func TestWindowedBuckets(t *testing.T) {
	w, err := NewWindowed(10, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	w.Arrive(0)
	w.Arrive(9.999)
	w.Arrive(10) // next window
	w.Complete(5, 1.5)
	w.Complete(25, 3.0) // window 2, violates the 2s SLO
	w.ObserveQueue(9.999, 4)
	w.ObserveQueue(29, 7)

	stats := w.Stats()
	if len(stats) != 3 {
		t.Fatalf("got %d windows, want 3 (no gaps)", len(stats))
	}
	w0, w1, w2 := stats[0], stats[1], stats[2]
	if w0.Arrived != 2 || w0.Completed != 1 || w0.QueueDepth != 4 || w0.SLOViolations != 0 {
		t.Fatalf("window 0 = %+v", w0)
	}
	if w0.Rate != 0.2 || w0.Tput != 0.1 || w0.P50Lat != 1.5 || w0.P99Lat != 1.5 {
		t.Fatalf("window 0 rates = %+v", w0)
	}
	if w1.Arrived != 1 || w1.Completed != 0 || w1.QueueDepth != -1 {
		t.Fatalf("window 1 = %+v", w1)
	}
	if w1.P99Lat != 0 || w1.MeanLat != 0 {
		t.Fatalf("empty window has non-zero latency: %+v", w1)
	}
	if w2.Completed != 1 || w2.SLOViolations != 1 || w2.QueueDepth != 7 {
		t.Fatalf("window 2 = %+v", w2)
	}
	if w2.Start != 20 || w2.End != 30 || w2.Index != 2 {
		t.Fatalf("window 2 bounds = %+v", w2)
	}
}

// TestWindowedGolden pins the windowed recorder's full output — bucket
// boundaries, percentile math, violation counting, gap filling — as a
// committed JSON golden. A deliberate behavior change regenerates it
// with `UPDATE_GOLDEN=1 go test ./internal/metrics -run Golden`.
func TestWindowedGolden(t *testing.T) {
	w, err := NewWindowed(5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// A deterministic synthetic run: arrivals every 0.7s, each request
	// completing with latency 0.3 + 0.07*i (the tail crosses the 1s SLO).
	for i := 0; i < 30; i++ {
		at := 0.7 * float64(i)
		lat := 0.3 + 0.07*float64(i)
		w.Arrive(at)
		w.Complete(at+lat, lat)
	}
	for t := 0.0; t < 25; t += 5 {
		w.ObserveQueue(t+4.999, int(t/5)+1)
	}

	got, err := json.MarshalIndent(w.Stats(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "windowed_golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("windowed stats diverged from golden %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
