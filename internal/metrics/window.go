package metrics

import (
	"fmt"
	"math"
)

// WindowStats summarizes one fixed-width window of virtual time in an
// online (serving) run. Latency statistics cover the completions whose
// completion time falls inside the window; latency is measured from
// arrival, so it includes queueing delay.
type WindowStats struct {
	Index int     `json:"index"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Arrived and Completed count requests whose arrival/completion
	// time falls in [Start, End).
	Arrived   int `json:"arrived"`
	Completed int `json:"completed"`
	// QueueDepth is the last depth sampled inside the window (queued +
	// in-flight requests), or -1 when never sampled.
	QueueDepth int `json:"queueDepth"`
	// Rate and Tput are Arrived and Completed per second of window.
	Rate float64 `json:"rate"`
	Tput float64 `json:"tput"`
	// Latency percentiles of the window's completions (0 when none).
	MeanLat float64 `json:"meanLat"`
	P50Lat  float64 `json:"p50Lat"`
	P99Lat  float64 `json:"p99Lat"`
	MaxLat  float64 `json:"maxLat"`
	// SLOViolations counts completions with latency > the recorder's
	// bound (always 0 when the bound is unset).
	SLOViolations int `json:"sloViolations"`
}

// windowAcc is one window's accumulator.
type windowAcc struct {
	arrived    int
	rec        Recorder
	queueDepth int
	sampled    bool
	violations int
}

// Windowed buckets arrivals, completions, and queue-depth samples of an
// online run into fixed-width windows of virtual time starting at 0.
// Windows materialize lazily as times are observed; Stats returns every
// window up to the latest observation, including empty ones, so the
// emitted time series has no gaps. All methods are single-goroutine,
// matching the deterministic virtual-time loops that drive it.
type Windowed struct {
	width float64
	// bound is the latency SLO used for violation counting; <= 0 or
	// +Inf disables it.
	bound float64
	wins  []windowAcc
}

// NewWindowed returns a windowed recorder with the given window width
// in seconds and latency SLO bound (<= 0 or +Inf disables violation
// counting).
func NewWindowed(width, sloBound float64) (*Windowed, error) {
	if width <= 0 || math.IsInf(width, 0) || math.IsNaN(width) {
		return nil, fmt.Errorf("metrics: window width %v must be positive and finite", width)
	}
	return &Windowed{width: width, bound: sloBound}, nil
}

// WindowOf returns the index of the window containing time t.
func (w *Windowed) WindowOf(t float64) int {
	if t <= 0 {
		return 0
	}
	return int(t / w.width)
}

// at grows the window list through index i and returns its accumulator.
func (w *Windowed) at(t float64) *windowAcc {
	i := w.WindowOf(t)
	for len(w.wins) <= i {
		w.wins = append(w.wins, windowAcc{queueDepth: -1})
	}
	return &w.wins[i]
}

// Arrive records one request arrival at time t.
func (w *Windowed) Arrive(t float64) { w.at(t).arrived++ }

// Complete records one request completing at time t with the given
// arrival-to-completion latency.
func (w *Windowed) Complete(t, latency float64) {
	acc := w.at(t)
	acc.rec.Add(latency)
	if w.bound > 0 && !math.IsInf(w.bound, 1) && latency > w.bound {
		acc.violations++
	}
}

// ObserveQueue records a queue-depth sample at time t; the last sample
// inside a window wins (serve loops sample at window boundaries).
func (w *Windowed) ObserveQueue(t float64, depth int) {
	acc := w.at(t)
	acc.queueDepth = depth
	acc.sampled = true
}

// Stats finalizes every materialized window in order.
func (w *Windowed) Stats() []WindowStats {
	out := make([]WindowStats, len(w.wins))
	for i := range w.wins {
		acc := &w.wins[i]
		s := WindowStats{
			Index:         i,
			Start:         float64(i) * w.width,
			End:           float64(i+1) * w.width,
			Arrived:       acc.arrived,
			Completed:     acc.rec.Count(),
			QueueDepth:    acc.queueDepth,
			Rate:          float64(acc.arrived) / w.width,
			Tput:          float64(acc.rec.Count()) / w.width,
			MeanLat:       acc.rec.Mean(),
			P50Lat:        acc.rec.Percentile(0.50),
			P99Lat:        acc.rec.Percentile(0.99),
			MaxLat:        acc.rec.Max(),
			SLOViolations: acc.violations,
		}
		out[i] = s
	}
	return out
}
