package serve

import (
	"math"
	"testing"
)

// FuzzNewProcess: NewProcess never panics on any kind, rate, seed,
// -step-at and -step-factor, and either rejects them or returns a
// process whose first 64 arrivals are finite and strictly increasing.
func FuzzNewProcess(f *testing.F) {
	// The README and Makefile spellings.
	f.Add("poisson", 4.0, int64(42), 0.0, 0.0)
	f.Add("mmpp", 2.0, int64(42), 0.0, 0.0)
	f.Add("step", 1.0, int64(42), 300.0, 8.0)
	f.Add("step", 1.0, int64(42), 40.0, 8.0)
	f.Add("diurnal", 2.0, int64(1), 0.0, 0.0)
	// Rates that hung or returned +Inf before the floor and the
	// derived-rate checks, a post-step rate beyond the float spacing at
	// the step, and the floor itself.
	f.Add("mmpp", 1e-300, int64(1), 0.0, 0.0)
	f.Add("diurnal", 1.7e308, int64(1), 0.0, 0.0)
	f.Add("diurnal", 1e-310, int64(1), 0.0, 0.0)
	f.Add("poisson", 1e-310, int64(1), 0.0, 0.0)
	f.Add("step", 1e-310, int64(1), 10.0, 2.0)
	f.Add("step", 1.0, int64(1), 10.0, 1e17)
	f.Add("mmpp", MinRate, int64(1), 0.0, 0.0)
	f.Fuzz(func(t *testing.T, kind string, rate float64, seed int64, stepAt, stepFactor float64) {
		p, err := NewProcess(kind, rate, seed, stepAt, stepFactor)
		if err != nil {
			return
		}
		prev := 0.0
		for i := 0; i < 64; i++ {
			v := p.Next()
			if math.IsInf(v, 0) || math.IsNaN(v) || v <= prev {
				t.Fatalf("%s rate %v step %v x%v: arrival %d at %v after %v", kind, rate, stepAt, stepFactor, i, v, prev)
			}
			prev = v
		}
	})
}
