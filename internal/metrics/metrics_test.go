package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestEmptyRecorder(t *testing.T) {
	r := NewRecorder()
	if r.Count() != 0 || r.Mean() != 0 || r.Max() != 0 || r.Percentile(0.5) != 0 || r.Std() != 0 {
		t.Fatal("empty recorder should return zeros")
	}
}

func TestMeanMax(t *testing.T) {
	r := NewRecorder()
	for _, v := range []float64{1, 2, 3, 4} {
		r.Add(v)
	}
	if r.Mean() != 2.5 || r.Max() != 4 || r.Count() != 4 {
		t.Fatalf("mean=%v max=%v count=%d", r.Mean(), r.Max(), r.Count())
	}
}

func TestPercentileNearestRank(t *testing.T) {
	r := NewRecorder()
	for i := 1; i <= 100; i++ {
		r.Add(float64(i))
	}
	cases := map[float64]float64{0.01: 1, 0.5: 50, 0.99: 99, 1.0: 100, 0: 1}
	for q, want := range cases {
		if got := r.Percentile(q); got != want {
			t.Errorf("P%.2f = %v, want %v", q, got, want)
		}
	}
}

func TestPercentileAfterAdd(t *testing.T) {
	r := NewRecorder()
	r.Add(10)
	if r.Percentile(0.5) != 10 {
		t.Fatal("single sample percentile")
	}
	r.Add(1) // must re-sort
	if r.Percentile(0.01) != 1 {
		t.Fatal("recorder did not re-sort after Add")
	}
}

func TestStd(t *testing.T) {
	r := NewRecorder()
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(v)
	}
	if got := r.Std(); math.Abs(got-2.138) > 0.01 {
		t.Fatalf("std = %v", got)
	}
	single := NewRecorder()
	single.Add(1)
	if single.Std() != 0 {
		t.Fatal("std of one sample should be 0")
	}
}

func TestPctlRange(t *testing.T) {
	r := NewRecorder()
	for i := 1; i <= 1000; i++ {
		r.Add(float64(i))
	}
	// p99=990, p1=10 -> half width 490.
	if got := r.PctlRange(0.99); math.Abs(got-490) > 1 {
		t.Fatalf("pctl range = %v", got)
	}
}

func TestThroughput(t *testing.T) {
	if Throughput(100, 10) != 10 {
		t.Fatal("throughput arithmetic")
	}
	if Throughput(100, 0) != 0 {
		t.Fatal("zero elapsed should not divide by zero")
	}
}

func TestSummarizeAndString(t *testing.T) {
	lat := []float64{1, 3}
	s := Summarize(lat, 2, nil)
	if s.Completed != 2 || s.Throughput != 1 || s.MeanLat != 2 || s.MaxLat != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.SteadyTput != 0 {
		t.Fatalf("SteadyTput = %v, want 0 for a too-short completion series", s.SteadyTput)
	}
	// With a completion series, SteadyTput is always populated (the old
	// API silently left it zero unless the caller remembered a second
	// call, and EffectiveTput quietly fell back to whole-run throughput).
	ends := make([]float64, 16)
	for i := range ends {
		ends[i] = float64(i + 1)
	}
	s = Summarize(lat, 2, ends)
	if want := SteadyThroughput(ends); s.SteadyTput != want || want == 0 {
		t.Fatalf("SteadyTput = %v, want %v (non-zero)", s.SteadyTput, want)
	}
	if s.EffectiveTput() != s.SteadyTput {
		t.Fatalf("EffectiveTput = %v, want steady %v", s.EffectiveTput(), s.SteadyTput)
	}
	if !strings.Contains(s.String(), "tput=1.00") {
		t.Fatalf("String() = %q", s.String())
	}
}

// SteadyThroughput reads a nondecreasing series in place and sorts any
// other in a copy: an unsorted series gives the rate of its sorted form
// (the middle half of the completions over the time they span), and is
// left as it was.
func TestSteadyThroughputUnsorted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ends := make([]float64, 101)
	for i := range ends {
		ends[i] = rng.Float64() * 100
	}
	if sort.Float64sAreSorted(ends) {
		t.Fatal("test series is already sorted")
	}
	orig := append([]float64(nil), ends...)
	sorted := append([]float64(nil), ends...)
	sort.Float64s(sorted)
	want := float64(75-25) / (sorted[75] - sorted[25]) // n/4 = 25, 3n/4 = 75
	if got := SteadyThroughput(sorted); got != want {
		t.Fatalf("sorted series: %v, want %v", got, want)
	}
	if got := SteadyThroughput(ends); got != want {
		t.Fatalf("unsorted series: %v, want %v", got, want)
	}
	if !reflect.DeepEqual(ends, orig) {
		t.Fatal("SteadyThroughput reordered its input")
	}
}

// Property: percentile is monotone in q and bounded by [min, max].
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(vals []float64, q1, q2 float64) bool {
		r := NewRecorder()
		anyFinite := false
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				r.Add(math.Abs(v))
				anyFinite = true
			}
		}
		if !anyFinite {
			return true
		}
		a, b := math.Abs(math.Mod(q1, 1)), math.Abs(math.Mod(q2, 1))
		if a > b {
			a, b = b, a
		}
		pa, pb := r.Percentile(a), r.Percentile(b)
		return pa <= pb && pa >= r.Percentile(0) && pb <= r.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}
