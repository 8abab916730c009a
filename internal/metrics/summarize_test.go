package metrics

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// sameFloat reports whether a and b are the same float64 bit for bit,
// counting any two NaNs as the same.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkSummarize compares Summarize over lat with a Recorder holding the
// same samples: Completed, MeanLat, MaxLat and P99Lat must match bit for
// bit, and lat must come back unchanged. The Recorder's Mean is taken
// before Percentile sorts its samples, so both sum in completion order.
func checkSummarize(t *testing.T, name string, lat []float64) {
	t.Helper()
	r := NewRecorder()
	for _, v := range lat {
		r.Add(v)
	}
	mean, maxLat := r.Mean(), r.Max()
	p99 := r.Percentile(0.99)
	orig := append([]float64(nil), lat...)
	s := Summarize(lat, 1, nil)
	if s.Completed != r.Count() || !sameFloat(s.MeanLat, mean) || !sameFloat(s.MaxLat, maxLat) || !sameFloat(s.P99Lat, p99) {
		t.Fatalf("%s n=%d: Summarize completed=%d mean=%v max=%v p99=%v; Recorder %d, %v, %v, %v",
			name, len(lat), s.Completed, s.MeanLat, s.MaxLat, s.P99Lat, r.Count(), mean, maxLat, p99)
	}
	for i := range lat {
		if math.Float64bits(lat[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("%s n=%d: Summarize reordered its input at %d", name, len(lat), i)
		}
	}
}

// Property: Summarize's sort-free p99 and its mean and max equal a
// Recorder's over random, tied and infinite samples, for every size from
// 1 to 200 and two sizes whose p99 rank is far from the top.
func TestSummarizeMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	gens := map[string]func() float64{
		"random": func() float64 { return rng.ExpFloat64() * 10 },
		"tied":   func() float64 { return float64(rng.Intn(4)) },
		"inf": func() float64 {
			switch rng.Intn(8) {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			}
			return rng.NormFloat64()
		},
	}
	sizes := []int{1200, 5000}
	for n := 1; n <= 200; n++ {
		sizes = append(sizes, n)
	}
	for name, gen := range gens {
		for _, n := range sizes {
			lat := make([]float64, n)
			for i := range lat {
				lat[i] = gen()
			}
			checkSummarize(t, name, lat)
		}
	}
	if s := Summarize(nil, 1, nil); s != (RunStats{Elapsed: 1}) {
		t.Fatalf("empty run: %+v", s)
	}
}

// FuzzSummarizeMatchesPercentile checks Summarize against a Recorder on
// arbitrary samples. A leading 0 byte reads each following byte as a
// small value (255 +Inf, 254 -Inf, 253 NaN), which makes ties common;
// otherwise every 8 bytes are one float64's bits. -0 reads as +0: a sort
// leaves equal zeros in no fixed order, and a latency, a difference of
// two times, is never -0.
func FuzzSummarizeMatchesPercentile(f *testing.F) {
	f.Add([]byte{0, 1, 2, 2, 3, 255, 254, 253, 0, 0})
	f.Add([]byte{0, 7})
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(1.5)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var lat []float64
		if len(data) > 0 && data[0] == 0 {
			for _, b := range data[1:] {
				switch b {
				case 255:
					lat = append(lat, math.Inf(1))
				case 254:
					lat = append(lat, math.Inf(-1))
				case 253:
					lat = append(lat, math.NaN())
				default:
					lat = append(lat, float64(b%16)/4)
				}
			}
		} else {
			for ; len(data) >= 8; data = data[8:] {
				v := math.Float64frombits(binary.LittleEndian.Uint64(data))
				if v == 0 {
					v = 0
				}
				lat = append(lat, v)
			}
		}
		checkSummarize(t, "fuzz", lat)
	})
}
