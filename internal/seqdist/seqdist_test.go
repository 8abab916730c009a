package seqdist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func truncNorm(t *testing.T, mean, std float64, max int) *Dist {
	t.Helper()
	d, err := NewTruncNormal(mean, std, max)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := New("x", nil); err == nil {
		t.Fatal("nil weights should fail")
	}
	if _, err := New("x", []float64{0, 0}); err == nil {
		t.Fatal("all-zero weights should fail")
	}
	if _, err := New("x", []float64{0, -1}); err == nil {
		t.Fatal("negative weight should fail")
	}
	if _, err := New("x", []float64{0, math.NaN()}); err == nil {
		t.Fatal("NaN weight should fail")
	}
}

func TestPMFNormalized(t *testing.T) {
	d := truncNorm(t, 128, 68, 320)
	sum := 0.0
	for s := 0; s <= d.Max(); s++ {
		sum += d.PMF(s)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("PMF sums to %v", sum)
	}
	if d.PMF(0) != 0 || d.PMF(-3) != 0 || d.PMF(d.Max()+1) != 0 {
		t.Fatal("PMF outside support should be 0")
	}
}

func TestTruncNormalMoments(t *testing.T) {
	// Mild truncation: moments should be near the nominal parameters.
	d := truncNorm(t, 128, 30, 320)
	if math.Abs(d.Mean()-128) > 2 {
		t.Fatalf("mean = %v, want ~128", d.Mean())
	}
	if math.Abs(d.Std()-30) > 2 {
		t.Fatalf("std = %v, want ~30", d.Std())
	}
	if math.Abs(d.skewness()) > 0.05 {
		t.Fatalf("skewness = %v, want ~0", d.skewness())
	}
}

func TestTruncationBelowZero(t *testing.T) {
	// Task S outputs: (32, 13, max 80). All mass within 1..80.
	d := truncNorm(t, 32, 13, 80)
	if d.Percentile(0.001) < 1 {
		t.Fatal("support must start at 1")
	}
	if d.Max() != 80 {
		t.Fatalf("max = %d", d.Max())
	}
}

func TestPercentileMonotone(t *testing.T) {
	d := truncNorm(t, 192, 93, 480)
	prev := 0
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0} {
		p := d.Percentile(q)
		if p < prev {
			t.Fatalf("percentile not monotone at q=%v: %d < %d", q, p, prev)
		}
		prev = p
	}
	if d.Percentile(0) != 1 {
		t.Fatal("q=0 should clamp to 1")
	}
	// Median near mean for symmetric dist.
	if m := d.Percentile(0.5); math.Abs(float64(m)-d.Mean()) > 5 {
		t.Fatalf("median %d far from mean %v", m, d.Mean())
	}
}

func TestSampleWithinSupportAndMoments(t *testing.T) {
	d := truncNorm(t, 64, 30, 160)
	r := rand.New(rand.NewSource(42))
	n := 20000
	sum := 0.0
	for i := 0; i < n; i++ {
		s := d.Sample(r)
		if s < 1 || s > d.Max() {
			t.Fatalf("sample %d out of support", s)
		}
		sum += float64(s)
	}
	if got := sum / float64(n); math.Abs(got-d.Mean()) > 1.0 {
		t.Fatalf("sample mean %v vs dist mean %v", got, d.Mean())
	}
	if got := len(d.sampleN(r, 7)); got != 7 {
		t.Fatalf("SampleN returned %d", got)
	}
}

func TestSkewNormalMoments(t *testing.T) {
	// Use a support wide enough that truncation at 1 and at max does not
	// clip the tails (clipping shrinks attainable skewness).
	for _, skew := range []float64{-0.41, -0.2, 0, 0.2, 0.41} {
		d, err := NewSkewNormalMoments(400, 40, skew, 900)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(d.Mean()-400) > 4 {
			t.Errorf("skew=%v: mean = %v, want ~400", skew, d.Mean())
		}
		if math.Abs(d.Std()-40) > 4 {
			t.Errorf("skew=%v: std = %v, want ~40", skew, d.Std())
		}
		if math.Abs(d.skewness()-skew) > 0.08 {
			t.Errorf("skew=%v: skewness = %v", skew, d.skewness())
		}
	}
	if _, err := NewSkewNormalMoments(100, 10, 1.5, 200); err == nil {
		t.Fatal("skew out of range should fail")
	}
}

func TestLogNormalLongTail(t *testing.T) {
	ln, err := NewLogNormal(64, 64, 1024)
	if err != nil {
		t.Fatal(err)
	}
	tn := truncNorm(t, 64, 64, 1024)
	// Log-normal has a heavier right tail: higher p99 relative to mean.
	if ln.Percentile(0.99) <= tn.Percentile(0.99) {
		t.Fatalf("lognormal p99 %d should exceed truncnorm p99 %d",
			ln.Percentile(0.99), tn.Percentile(0.99))
	}
	if ln.skewness() <= 0.3 {
		t.Fatalf("lognormal skewness = %v, want strongly positive", ln.skewness())
	}
}

func TestEmpirical(t *testing.T) {
	d, err := NewEmpirical("obs", []int{5, 5, 5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.PMF(5)-0.75) > 1e-12 || math.Abs(d.PMF(10)-0.25) > 1e-12 {
		t.Fatalf("pmf = %v %v", d.PMF(5), d.PMF(10))
	}
	if _, err := NewEmpirical("bad", []int{0}); err == nil {
		t.Fatal("zero-length sample should fail")
	}
	if _, err := NewEmpirical("empty", nil); err == nil {
		t.Fatal("no samples should fail")
	}
}

func TestScale(t *testing.T) {
	d := truncNorm(t, 100, 20, 300)
	up, err := d.scale(1.3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(up.Mean()/d.Mean()-1.3) > 0.02 {
		t.Fatalf("scaled mean ratio = %v", up.Mean()/d.Mean())
	}
	down, err := d.scale(0.7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(down.Mean()/d.Mean()-0.7) > 0.02 {
		t.Fatalf("scaled-down mean ratio = %v", down.Mean()/d.Mean())
	}
	if _, err := d.scale(0); err == nil {
		t.Fatal("zero scale should fail")
	}
}

func TestSurvivalMass(t *testing.T) {
	d, err := New("u", []float64{0, 1, 1, 1, 1}) // uniform on 1..4
	if err != nil {
		t.Fatal(err)
	}
	if got := d.SurvivalMass(1); got != 1 {
		t.Fatalf("S(1)=%v", got)
	}
	if got := d.SurvivalMass(3); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("S(3)=%v, want 0.5", got)
	}
	if got := d.SurvivalMass(5); got != 0 {
		t.Fatalf("S(5)=%v", got)
	}
}

func TestMeanActivePosition(t *testing.T) {
	// Deterministic length L: active positions uniform over 0..L-1,
	// mean (L-1)/2.
	w := make([]float64, 11)
	w[10] = 1
	d, err := New("det10", w)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.MeanActivePosition(); math.Abs(got-4.5) > 1e-9 {
		t.Fatalf("mean active position = %v, want 4.5", got)
	}
}

// §6 math: deterministic output length S <= ND completes exactly at U=S.
func TestCompletionDistShortSequences(t *testing.T) {
	w := make([]float64, 6)
	w[5] = 1 // S = 5 always
	d, _ := New("det5", w)
	c, err := NewCompletionDist(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	for u := 1; u <= 8; u++ {
		want := 0.0
		if u == 5 {
			want = 1
		}
		if math.Abs(c.PU[u]-want) > 1e-12 {
			t.Fatalf("PU[%d] = %v, want %v", u, c.PU[u], want)
		}
	}
	if math.Abs(c.PerPhaseCompletion()-1) > 1e-12 {
		t.Fatal("short sequences complete within one phase")
	}
}

// §6 math: S = 10, ND = 4 -> ceil(10/4)=3 phases, completes at
// U = 1+((10-1) mod 4) = 2 with probability 1/3 per phase.
func TestCompletionDistLongSequences(t *testing.T) {
	w := make([]float64, 11)
	w[10] = 1
	d, _ := New("det10", w)
	c, err := NewCompletionDist(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	for u := 1; u <= 4; u++ {
		want := 0.0
		if u == 2 {
			want = 1.0 / 3
		}
		if math.Abs(c.PU[u]-want) > 1e-12 {
			t.Fatalf("PU[%d] = %v, want %v", u, c.PU[u], want)
		}
	}
	if math.Abs(c.PerPhaseCompletion()-1.0/3) > 1e-12 {
		t.Fatalf("per-phase completion = %v, want 1/3", c.PerPhaseCompletion())
	}
	// B_D = B_E / ΣP_D(U): with B_E=10 expect 30.
	if got := c.ConsistentDecodeBatch(10); math.Abs(got-30) > 1e-9 {
		t.Fatalf("B_D = %v, want 30", got)
	}
}

func TestCompletionDistMixture(t *testing.T) {
	// Half S=2, half S=10, ND=4.
	w := make([]float64, 11)
	w[2], w[10] = 1, 1
	d, _ := New("mix", w)
	c, err := NewCompletionDist(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	// S=2 contributes 0.5 at U=2; S=10 contributes 0.5/3 at U=2.
	want2 := 0.5 + 0.5/3
	if math.Abs(c.PU[2]-want2) > 1e-12 {
		t.Fatalf("PU[2] = %v, want %v", c.PU[2], want2)
	}
}

func TestCompletionDistErrors(t *testing.T) {
	d := truncNorm(t, 32, 13, 80)
	if _, err := NewCompletionDist(d, 0); err == nil {
		t.Fatal("ND=0 should fail")
	}
}

func TestExpectedActiveFraction(t *testing.T) {
	w := make([]float64, 5)
	w[1], w[4] = 0.5, 0.5
	d, _ := New("m", w)
	c, _ := NewCompletionDist(d, 4)
	if got := c.expectedActiveFraction(1); got != 1 {
		t.Fatalf("active(1) = %v", got)
	}
	// After iteration 1, the S=1 half completed.
	if got := c.expectedActiveFraction(2); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("active(2) = %v, want 0.5", got)
	}
	if got := c.expectedActiveFraction(0); got != 1 {
		t.Fatalf("active(0) = %v", got)
	}
}

// ActiveFractions must agree bit for bit with the per-u reference
// expectedActiveFraction, which adds PU[v] in the same ascending order.
func TestActiveFractionsMatchPerU(t *testing.T) {
	d := truncNorm(t, 32, 13, 80)
	for _, nd := range []int{1, 2, 7, 13, 32, 100} {
		c, err := NewCompletionDist(d, nd)
		if err != nil {
			t.Fatal(err)
		}
		af := c.ActiveFractions()
		if len(af) != nd+1 {
			t.Fatalf("ND=%d: len = %d, want %d", nd, len(af), nd+1)
		}
		for u := 1; u <= nd; u++ {
			if want := c.expectedActiveFraction(u); af[u] != want {
				t.Fatalf("ND=%d u=%d: %v != %v (bits %x vs %x)",
					nd, u, af[u], want,
					math.Float64bits(af[u]), math.Float64bits(want))
			}
		}
	}
}

// Property: ΣP_D(U) over a full horizon (ND >= Max) is exactly 1, and
// P_D(U) entries are valid probabilities for any ND.
func TestQuickCompletionDistValid(t *testing.T) {
	f := func(seed int64, ndRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		mean := 10 + r.Float64()*100
		std := 5 + r.Float64()*40
		d, err := NewTruncNormal(mean, std, 256)
		if err != nil {
			return false
		}
		nd := int(ndRaw)%64 + 1
		c, err := NewCompletionDist(d, nd)
		if err != nil {
			return false
		}
		sum := 0.0
		for u := 1; u <= nd; u++ {
			if c.PU[u] < -1e-15 || c.PU[u] > 1+1e-12 {
				return false
			}
			sum += c.PU[u]
		}
		if sum > 1+1e-9 {
			return false
		}
		full, err := NewCompletionDist(d, 256)
		if err != nil {
			return false
		}
		return math.Abs(full.PerPhaseCompletion()-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Fatal(err)
	}
}

// Property: batch-consistency identity B_E = B_D * ΣP_D(U) holds by
// construction.
func TestQuickBatchConsistency(t *testing.T) {
	f := func(be uint8, ndRaw uint8) bool {
		d, err := NewTruncNormal(128, 68, 320)
		if err != nil {
			return false
		}
		nd := int(ndRaw)%32 + 1
		c, err := NewCompletionDist(d, nd)
		if err != nil {
			return false
		}
		b := int(be) + 1
		bd := c.ConsistentDecodeBatch(b)
		back := bd * c.PerPhaseCompletion()
		return math.Abs(back-float64(b)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}

func TestBivariateCorrelation(t *testing.T) {
	in := truncNorm(t, 128, 81, 256)
	out := truncNorm(t, 128, 68, 320)
	r := rand.New(rand.NewSource(7))
	high := Bivariate{In: in, Out: out, Rho: 0.9}.corr(rand.New(rand.NewSource(7)), 8000)
	low := Bivariate{In: in, Out: out, Rho: 0.1}.corr(r, 8000)
	if high < 0.7 {
		t.Fatalf("rho=0.9 sample corr = %v, want high", high)
	}
	if math.Abs(low) > 0.25 {
		t.Fatalf("rho=0.1 sample corr = %v, want low", low)
	}
}

func TestBivariateSamplesInSupport(t *testing.T) {
	in := truncNorm(t, 64, 23, 128)
	out := truncNorm(t, 192, 93, 480)
	b := Bivariate{In: in, Out: out, Rho: 0.5}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		x, y := b.Sample(r)
		if x < 1 || x > 128 || y < 1 || y > 480 {
			t.Fatalf("sample (%d,%d) out of support", x, y)
		}
	}
}

// skewness returns the standardized third moment.
func (d *Dist) skewness() float64 {
	m, sd := d.Mean(), d.Std()
	if sd == 0 {
		return 0
	}
	sk := 0.0
	for s := 1; s < len(d.p); s++ {
		z := (float64(s) - m) / sd
		sk += z * z * z * d.p[s]
	}
	return sk
}

// sampleN draws n lengths.
func (d *Dist) sampleN(r *rand.Rand, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = d.Sample(r)
	}
	return out
}

// scale returns a copy with lengths multiplied by factor (rounded,
// clamped to 1..round(Max*factor)).
func (d *Dist) scale(factor float64) (*Dist, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("seqdist: scale factor %v must be positive", factor)
	}
	newMax := int(math.Ceil(float64(d.Max()) * factor))
	if newMax < 1 {
		newMax = 1
	}
	w := make([]float64, newMax+1)
	for s := 1; s <= d.Max(); s++ {
		ns := int(math.Round(float64(s) * factor))
		if ns < 1 {
			ns = 1
		}
		if ns > newMax {
			ns = newMax
		}
		w[ns] += d.p[s]
	}
	return New(fmt.Sprintf("%s*%.2f", d.name, factor), w)
}

// corr estimates the Pearson correlation of n sampled pairs.
func (b Bivariate) corr(r *rand.Rand, n int) float64 {
	var sx, sy, sxx, syy, sxy float64
	for i := 0; i < n; i++ {
		x, y := b.Sample(r)
		fx, fy := float64(x), float64(y)
		sx += fx
		sy += fy
		sxx += fx * fx
		syy += fy * fy
		sxy += fx * fy
	}
	fn := float64(n)
	cov := sxy/fn - sx/fn*sy/fn
	vx := sxx/fn - sx/fn*sx/fn
	vy := syy/fn - sy/fn*sy/fn
	if vx <= 0 || vy <= 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// expectedActiveFraction returns, for iteration u in 1..ND of a decoding
// phase, the expected fraction of the phase-start batch still active
// when iteration u executes (queries completing at U=u are counted as
// active during iteration u and inactive afterwards).
func (c *CompletionDist) expectedActiveFraction(u int) float64 {
	if u < 1 {
		return 1
	}
	done := 0.0
	for v := 1; v < u && v <= c.ND; v++ {
		done += c.PU[v]
	}
	f := 1 - done
	if f < 0 {
		return 0
	}
	return f
}
