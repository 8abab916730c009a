package serve

import (
	"math"
	"strings"
	"testing"
)

func drawN(t *testing.T, kind string, rate float64, seed int64, n int) []float64 {
	t.Helper()
	p, err := NewProcess(kind, rate, seed, 30, 4)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = p.Next()
	}
	return out
}

var allKinds = []string{"poisson", "mmpp", "diurnal", "step"}

func TestArrivalsDeterministic(t *testing.T) {
	for _, kind := range allKinds {
		a := drawN(t, kind, 2.0, 7, 500)
		b := drawN(t, kind, 2.0, 7, 500)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: arrival %d differs across identical seeds: %v vs %v", kind, i, a[i], b[i])
			}
		}
		c := drawN(t, kind, 2.0, 8, 500)
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%s: different seeds produced identical sequences", kind)
		}
	}
}

func TestArrivalsStrictlyIncreasing(t *testing.T) {
	for _, kind := range allKinds {
		seq := drawN(t, kind, 5.0, 42, 2000)
		prev := 0.0
		for i, v := range seq {
			if v <= prev {
				t.Fatalf("%s: arrival %d at %v not after %v", kind, i, v, prev)
			}
			prev = v
		}
	}
}

// TestArrivalsMeanRate checks each process realizes its configured mean
// rate over a long horizon (step is excluded: its mean deliberately
// changes at the step).
func TestArrivalsMeanRate(t *testing.T) {
	for _, kind := range []string{"poisson", "mmpp", "diurnal"} {
		const n = 20000
		seq := drawN(t, kind, 4.0, 3, n)
		got := float64(n) / seq[n-1]
		if math.Abs(got-4.0) > 0.4 {
			t.Fatalf("%s: realized rate %.2f, want ~4.0", kind, got)
		}
	}
}

// TestStepChangesRate pins the piecewise process: the realized rate
// after the step is stepFactor times the rate before it.
func TestStepChangesRate(t *testing.T) {
	p, err := NewProcess("step", 2.0, 11, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	before, after := 0, 0
	for {
		v := p.Next()
		if v >= 300 {
			break
		}
		if v < 100 {
			before++
		} else {
			after++
		}
	}
	rBefore := float64(before) / 100
	rAfter := float64(after) / 200
	if math.Abs(rBefore-2.0) > 0.5 {
		t.Fatalf("pre-step rate %.2f, want ~2.0", rBefore)
	}
	if math.Abs(rAfter-10.0) > 1.5 {
		t.Fatalf("post-step rate %.2f, want ~10.0", rAfter)
	}
}

func TestNewProcessRejectsBadInputs(t *testing.T) {
	if _, err := NewProcess("poisson", 0, 1, 0, 0); err == nil {
		t.Fatal("rate 0 accepted")
	}
	if _, err := NewProcess("poisson", math.Inf(1), 1, 0, 0); err == nil {
		t.Fatal("Inf rate accepted")
	}
	if _, err := NewProcess("waves", 1, 1, 0, 0); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := NewProcess("step", 1, 1, 0, 2); err == nil {
		t.Fatal("step without -step-at accepted")
	}
	if _, err := NewProcess("step", 1, 1, 10, 0); err == nil {
		t.Fatal("step without -step-factor accepted")
	}
	if _, err := NewProcess("poisson", math.NaN(), 1, 0, 0); err == nil {
		t.Fatal("NaN rate accepted")
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		name             string
		rate, at, factor float64
	}{
		{"Inf step-at", 1, inf, 2},
		{"NaN step-at", 1, nan, 2},
		{"Inf step-factor", 1, 10, inf},
		{"NaN step-factor", 1, 10, nan},
		{"overflowing post-step rate", 1e300, 10, 1e300},
		{"underflowing post-step rate", 1e-300, 10, 1e-300},
		{"post-step rate below the floor", 1, 10, 1e-7},
	} {
		if _, err := NewProcess("step", c.rate, 1, c.at, c.factor); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	// Rates below the floor, and rates whose state or peak rate
	// overflows. At these rates mmpp walks ~10^299 dwell flips per
	// arrival, diurnal thins against an infinite peak (or, at 1e-310,
	// loops on t=+Inf), and poisson and step return +Inf.
	for _, c := range []struct {
		kind string
		rate float64
		want string
	}{
		{"poisson", 1e-310, "1e-310"},
		{"poisson", MinRate / 2, "5e-07"},
		{"step", 1e-310, "1e-310"},
		{"mmpp", 1e-300, "1e-300"},
		{"mmpp", 1.7e308, "+Inf"},
		{"diurnal", 1e-310, "1e-310"},
		{"diurnal", 1.7e308, "+Inf"},
	} {
		_, err := NewProcess(c.kind, c.rate, 1, 10, 2)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s at rate %v: error %v, want one naming %s", c.kind, c.rate, err, c.want)
		}
	}
	if _, err := NewProcess("mmpp", MinRate, 1, 0, 0); err != nil {
		t.Errorf("rate at the floor rejected: %v", err)
	}
}

// TestArrivalsResolveHighRates: a post-step rate whose gaps are below
// the float spacing at the step time still yields strictly increasing
// arrivals.
func TestArrivalsResolveHighRates(t *testing.T) {
	p, err := NewProcess("step", 1, 1, 10, 1e17)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for i := 0; i < 64; i++ {
		v := p.Next()
		if !(v > prev) || math.IsInf(v, 0) {
			t.Fatalf("arrival %d at %v not after %v", i, v, prev)
		}
		prev = v
	}
}
