// Package metrics provides the measurement utilities used across the
// evaluation: latency recorders with percentile queries, throughput
// computation, and simple online statistics.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Recorder accumulates per-query latency samples (seconds).
type Recorder struct {
	samples []float64
	sorted  bool
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Add records one latency sample.
func (r *Recorder) Add(v float64) {
	r.samples = append(r.samples, v)
	r.sorted = false
}

// Count returns the number of samples.
func (r *Recorder) Count() int { return len(r.samples) }

// Mean returns the sample mean, or 0 if empty.
func (r *Recorder) Mean() float64 {
	if len(r.samples) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range r.samples {
		s += v
	}
	return s / float64(len(r.samples))
}

// Max returns the largest sample, or 0 if empty.
func (r *Recorder) Max() float64 {
	m := 0.0
	for _, v := range r.samples {
		if v > m {
			m = v
		}
	}
	return m
}

// Percentile returns the q-quantile (q in [0,1]) using the
// nearest-rank method, or 0 if empty.
func (r *Recorder) Percentile(q float64) float64 {
	if len(r.samples) == 0 {
		return 0
	}
	if !r.sorted {
		sort.Float64s(r.samples)
		r.sorted = true
	}
	if q <= 0 {
		return r.samples[0]
	}
	if q >= 1 {
		return r.samples[len(r.samples)-1]
	}
	return r.samples[nearestRank(q, len(r.samples))]
}

// nearestRank returns the 0-based index of the q-quantile (0 < q < 1)
// of n ascending samples by the nearest-rank method.
func nearestRank(q float64, n int) int {
	return max(int(math.Ceil(q*float64(n)))-1, 0)
}

// Std returns the sample standard deviation, or 0 for <2 samples.
func (r *Recorder) Std() float64 {
	n := len(r.samples)
	if n < 2 {
		return 0
	}
	m := r.Mean()
	v := 0.0
	for _, x := range r.samples {
		v += (x - m) * (x - m)
	}
	return math.Sqrt(v / float64(n-1))
}

// PctlRange returns the half-width of the symmetric [1-q, q] percentile
// interval around the mean (used in Table 7 to report "99th pctl Range"
// of stage execution times).
func (r *Recorder) PctlRange(q float64) float64 {
	hi := r.Percentile(q)
	lo := r.Percentile(1 - q)
	return (hi - lo) / 2
}

// Throughput converts completed queries over elapsed seconds to
// sequences per second.
func Throughput(completed int, elapsed float64) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(completed) / elapsed
}

// RunStats summarizes an execution for reporting.
type RunStats struct {
	Completed  int
	Elapsed    float64 // seconds of (virtual) wall time
	Throughput float64 // sequences/second over the full run
	// SteadyTput is the completion rate over the middle half of the
	// completion timeline, excluding warmup and drain; zero when there
	// are too few completions to window.
	SteadyTput float64
	MeanLat    float64
	P99Lat     float64
	MaxLat     float64
}

// SteadyThroughput computes the completion rate between the 25th and
// 75th percentile completion times, which excludes the pipeline warmup
// and the drain tail of a finite request stream. A series already in
// nondecreasing order — the completions of one run, as the engines emit
// them — is read in place; any other is sorted in a copy.
func SteadyThroughput(completionTimes []float64) float64 {
	n := len(completionTimes)
	if n < 8 {
		return 0
	}
	sorted := completionTimes
	if !sort.Float64sAreSorted(sorted) {
		sorted = append([]float64(nil), completionTimes...)
		sort.Float64s(sorted)
	}
	lo, hi := n/4, (3*n)/4
	dt := sorted[hi] - sorted[lo]
	if dt <= 0 {
		return 0
	}
	return float64(hi-lo) / dt
}

// EffectiveTput returns SteadyTput when available, else Throughput.
func (s RunStats) EffectiveTput() float64 {
	if s.SteadyTput > 0 {
		return s.SteadyTput
	}
	return s.Throughput
}

// Summarize builds RunStats from one run's latencies and completion
// times, both in completion order, and its elapsed time. Taking the
// completions here (rather than leaving SteadyTput for the caller to
// fill in) guarantees the field is always populated, so EffectiveTput
// never silently falls back to whole-run throughput because a caller
// forgot the second step. A nil or too-short series yields SteadyTput 0.
//
// lat is read in place and left as it is: MeanLat sums it in order, and
// P99Lat is selected without a sort, equal bit for bit to what a
// Recorder holding the same samples returns from Mean and
// Percentile(0.99).
func Summarize(lat []float64, elapsed float64, completionTimes []float64) RunStats {
	s := RunStats{
		Completed:  len(lat),
		Elapsed:    elapsed,
		Throughput: Throughput(len(lat), elapsed),
		SteadyTput: SteadyThroughput(completionTimes),
	}
	if len(lat) == 0 {
		return s
	}
	for _, v := range lat {
		s.MeanLat += v
		if v > s.MaxLat {
			s.MaxLat = v
		}
	}
	s.MeanLat /= float64(len(lat))
	s.P99Lat = kthLargest(lat, len(lat)-nearestRank(0.99, len(lat)))
	return s
}

// kthLargest returns the k-th largest of xs (1 <= k <= len(xs)) in
// sort.Float64s order, which puts NaN below every number. A min-heap
// holds the k largest samples seen so far; its root is the answer. A
// p99 needs k of about len(xs)/100.
func kthLargest(xs []float64, k int) float64 {
	h := make([]float64, 0, k)
	for _, x := range xs {
		if len(h) < k {
			h = append(h, x)
			for i := len(h) - 1; i > 0; {
				parent := (i - 1) / 2
				if !sortsBefore(h[i], h[parent]) {
					break
				}
				h[i], h[parent] = h[parent], h[i]
				i = parent
			}
			continue
		}
		if !sortsBefore(h[0], x) {
			continue
		}
		h[0] = x
		for i := 0; ; {
			least, l := i, 2*i+1
			if l < k && sortsBefore(h[l], h[least]) {
				least = l
			}
			if r := l + 1; r < k && sortsBefore(h[r], h[least]) {
				least = r
			}
			if least == i {
				break
			}
			h[i], h[least] = h[least], h[i]
			i = least
		}
	}
	return h[0]
}

// sortsBefore is sort.Float64s' order: NaN sorts first.
func sortsBefore(a, b float64) bool {
	return a < b || (math.IsNaN(a) && !math.IsNaN(b))
}

// String renders the stats compactly.
func (s RunStats) String() string {
	return fmt.Sprintf("completed=%d elapsed=%.2fs tput=%.2f seq/s mean=%.3fs p99=%.3fs max=%.3fs",
		s.Completed, s.Elapsed, s.Throughput, s.MeanLat, s.P99Lat, s.MaxLat)
}
