// Package seqdist implements the sequence-length distributions and the
// probabilistic analysis of §6 of the ExeGPT paper.
//
// The paper represents NLP-task input/output lengths with truncated
// normal distributions (truncated below zero and above the task maximum,
// §7.1), uses skew-normal variants for the distribution-shift study
// (§7.6, Figure 11), and long-tailed shapes for real datasets (§7.5).
// From an output-length distribution P_D(S) and the RRA encoding
// frequency N_D it derives P_D(U), the probability that a query finishes
// decoding at the U'th iteration after the most recent encoding phase,
// which fixes the consistent encoder/decoder batch-size ratio.
package seqdist

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Dist is a discrete distribution over sequence lengths 1..Max().
type Dist struct {
	name string
	// p[s] is P(S = s); p[0] is always 0.
	p   []float64
	cdf []float64
}

// New builds a Dist from raw nonnegative weights (index = length) by
// normalizing them. Weight at index 0 is discarded: zero-length
// sequences are not meaningful.
func New(name string, weights []float64) (*Dist, error) {
	if len(weights) < 2 {
		return nil, fmt.Errorf("seqdist: need weights up to length >= 1")
	}
	p := make([]float64, len(weights))
	total := 0.0
	for s := 1; s < len(weights); s++ {
		w := weights[s]
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("seqdist: invalid weight %v at length %d", w, s)
		}
		p[s] = w
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("seqdist: all weights zero")
	}
	cdf := make([]float64, len(p))
	acc := 0.0
	for s := range p {
		p[s] /= total
		acc += p[s]
		cdf[s] = acc
	}
	return &Dist{name: name, p: p, cdf: cdf}, nil
}

// Name returns the descriptive name of the distribution.
func (d *Dist) Name() string { return d.name }

// Max returns the largest length with nonzero probability support bound.
func (d *Dist) Max() int { return len(d.p) - 1 }

// PMF returns P(S = s); zero outside 1..Max.
func (d *Dist) PMF(s int) float64 {
	if s < 0 || s >= len(d.p) {
		return 0
	}
	return d.p[s]
}

// Mean returns E[S].
func (d *Dist) Mean() float64 {
	m := 0.0
	for s := 1; s < len(d.p); s++ {
		m += float64(s) * d.p[s]
	}
	return m
}

// Var returns Var[S].
func (d *Dist) Var() float64 {
	m := d.Mean()
	v := 0.0
	for s := 1; s < len(d.p); s++ {
		dx := float64(s) - m
		v += dx * dx * d.p[s]
	}
	return v
}

// Std returns the standard deviation.
func (d *Dist) Std() float64 { return math.Sqrt(d.Var()) }

// Percentile returns the smallest length s with CDF(s) >= q, q in (0,1].
func (d *Dist) Percentile(q float64) int {
	if q <= 0 {
		return 1
	}
	i := sort.SearchFloat64s(d.cdf, q)
	if i >= len(d.cdf) {
		i = len(d.cdf) - 1
	}
	if i == 0 {
		i = 1
	}
	return i
}

// Sample draws one length.
func (d *Dist) Sample(r *rand.Rand) int {
	u := r.Float64()
	i := sort.SearchFloat64s(d.cdf, u)
	if i >= len(d.cdf) {
		i = len(d.cdf) - 1
	}
	if i == 0 {
		i = 1
	}
	return i
}

// SurvivalMass returns Σ_{s>=a} P(S=s) for a >= 1.
func (d *Dist) SurvivalMass(a int) float64 {
	if a <= 1 {
		return 1
	}
	if a >= len(d.cdf) {
		return 0
	}
	return 1 - d.cdf[a-1]
}

// MeanActivePosition returns the steady-state mean 0-based position
// (number of already-generated tokens) of a random in-flight query slot,
// assuming completed queries are immediately replaced. The probability
// that an active slot is at position a is proportional to P(S > a).
func (d *Dist) MeanActivePosition() float64 {
	num, den := 0.0, 0.0
	for a := 0; a < d.Max(); a++ {
		w := d.SurvivalMass(a + 1) // P(S >= a+1) = P(query reaches position a)
		num += float64(a) * w
		den += w
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// stdNormPDF and stdNormCDF are the standard normal density and CDF.
func stdNormPDF(x float64) float64 { return math.Exp(-x*x/2) / math.Sqrt(2*math.Pi) }
func stdNormCDF(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }

// NewTruncNormal returns the paper's workload distribution: a normal with
// the given (pre-truncation) mean and standard deviation, truncated below
// 1 and above max (§7.1).
func NewTruncNormal(mean, std float64, max int) (*Dist, error) {
	if std <= 0 || max < 1 {
		return nil, fmt.Errorf("seqdist: bad truncated normal (mean=%v std=%v max=%d)", mean, std, max)
	}
	w := make([]float64, max+1)
	for s := 1; s <= max; s++ {
		w[s] = stdNormPDF((float64(s) - mean) / std)
	}
	return New(fmt.Sprintf("truncnorm(%.0f,%.0f,%d)", mean, std, max), w)
}

// NewSkewNormal returns a skew-normal distribution with the given
// location, scale and shape alpha, truncated to 1..max (§7.6 uses skew
// normal to vary skewness at fixed mean and std).
func NewSkewNormal(loc, scale, alpha float64, max int) (*Dist, error) {
	if scale <= 0 || max < 1 {
		return nil, fmt.Errorf("seqdist: bad skew normal (scale=%v max=%d)", scale, max)
	}
	w := make([]float64, max+1)
	for s := 1; s <= max; s++ {
		z := (float64(s) - loc) / scale
		w[s] = 2 / scale * stdNormPDF(z) * stdNormCDF(alpha*z)
	}
	return New(fmt.Sprintf("skewnorm(%.1f,%.1f,%.2f,%d)", loc, scale, alpha, max), w)
}

// NewSkewNormalMoments returns a skew-normal with (approximately) the
// requested mean, std and skewness. |skew| must be < 0.995 (the skew
// normal's attainable range is (-0.9953, 0.9953)).
func NewSkewNormalMoments(mean, std, skew float64, max int) (*Dist, error) {
	if math.Abs(skew) >= 0.995 {
		return nil, fmt.Errorf("seqdist: skewness %v out of attainable range", skew)
	}
	// Invert the skewness formula: skew = (4-pi)/2 * (d*sqrt(2/pi))^3 /
	// (1 - 2 d^2/pi)^(3/2) where d = alpha/sqrt(1+alpha^2).
	absSkew := math.Abs(skew)
	k := math.Pow(2*absSkew/(4-math.Pi), 1.0/3)
	delta := k / math.Sqrt(2/math.Pi*(1+k*k))
	if delta > 0.999 {
		delta = 0.999
	}
	alpha := delta / math.Sqrt(1-delta*delta)
	if skew < 0 {
		alpha = -alpha
		delta = -delta
	}
	omega := std / math.Sqrt(1-2*delta*delta/math.Pi)
	xi := mean - omega*delta*math.Sqrt(2/math.Pi)
	return NewSkewNormal(xi, omega, alpha, max)
}

// NewLogNormal returns a log-normal distribution (long-tailed, used to
// emulate real datasets, §7.5) with the given mean and std of the
// resulting length, truncated to 1..max.
func NewLogNormal(mean, std float64, max int) (*Dist, error) {
	if mean <= 0 || std <= 0 || max < 1 {
		return nil, fmt.Errorf("seqdist: bad log normal (mean=%v std=%v)", mean, std)
	}
	sigma2 := math.Log(1 + (std*std)/(mean*mean))
	mu := math.Log(mean) - sigma2/2
	sigma := math.Sqrt(sigma2)
	w := make([]float64, max+1)
	for s := 1; s <= max; s++ {
		x := float64(s)
		w[s] = stdNormPDF((math.Log(x)-mu)/sigma) / (x * sigma)
	}
	return New(fmt.Sprintf("lognorm(%.0f,%.0f,%d)", mean, std, max), w)
}

// NewEmpirical builds a distribution from observed lengths.
func NewEmpirical(name string, samples []int) (*Dist, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("seqdist: no samples")
	}
	max := 0
	for _, s := range samples {
		if s < 1 {
			return nil, fmt.Errorf("seqdist: sample length %d < 1", s)
		}
		if s > max {
			max = s
		}
	}
	w := make([]float64, max+1)
	for _, s := range samples {
		w[s]++
	}
	return New(name, w)
}

// CompletionDist is P_D(U) of §6: entry U (1-based, U <= ND) is the
// probability that a query completes decoding at the U'th iteration
// after the most recent encoding phase.
type CompletionDist struct {
	ND int
	// PU[u] for u in 1..ND; PU[0] unused.
	PU []float64
}

// NewCompletionDist computes P_D(U) from the output-length distribution
// and the RRA decoding-iteration count ND, exactly per §6:
//
//	P_D(U|S) = 1{U=S}                      if S <= ND
//	P_D(U|S) = 1/ceil(S/ND) at U = 1+((S-1) mod ND), else 0, if S > ND
//	P_D(U)   = Σ_S P_D(U|S) P_D(S)
func NewCompletionDist(out *Dist, nd int) (*CompletionDist, error) {
	if nd < 1 {
		return nil, fmt.Errorf("seqdist: ND must be >= 1, got %d", nd)
	}
	pu := make([]float64, nd+1)
	for s := 1; s <= out.Max(); s++ {
		ps := out.PMF(s)
		if ps == 0 {
			continue
		}
		if s <= nd {
			pu[s] += ps
		} else {
			u := 1 + (s-1)%nd
			phases := math.Ceil(float64(s) / float64(nd))
			pu[u] += ps / phases
		}
	}
	return &CompletionDist{ND: nd, PU: pu}, nil
}

// PerPhaseCompletion returns Σ_U P_D(U): the expected fraction of the
// decoding batch that completes during one ND-iteration decoding phase.
func (c *CompletionDist) PerPhaseCompletion() float64 {
	t := 0.0
	for u := 1; u <= c.ND; u++ {
		t += c.PU[u]
	}
	return t
}

// ConsistentDecodeBatch returns the decoding batch size B_D = B_E /
// ΣP_D(U) that keeps batch sizes consistent across repeated
// encode/decode phases (§6).
func (c *CompletionDist) ConsistentDecodeBatch(be int) float64 {
	f := c.PerPhaseCompletion()
	if f <= 0 {
		return math.Inf(1)
	}
	return float64(be) / f
}

// ActiveFractions returns, for every iteration u in 1..ND of a decoding
// phase, the expected fraction of the phase-start batch still active
// when iteration u executes (queries completing at U=u are counted as
// active during iteration u and inactive afterwards), as one slice
// (index u; entry 0 unused). One running sum over PU costs O(ND) in
// total.
func (c *CompletionDist) ActiveFractions() []float64 {
	out := make([]float64, c.ND+1)
	done := 0.0
	for u := 1; u <= c.ND; u++ {
		f := 1 - done
		if f < 0 {
			f = 0
		}
		out[u] = f
		done += c.PU[u]
	}
	return out
}

// Bivariate couples an input-length and output-length distribution with
// a Gaussian-copula correlation coefficient rho (§7.1 reports 0.08-0.21
// for most tasks and 0.57-0.94 for translation).
type Bivariate struct {
	In, Out *Dist
	Rho     float64
}

// Sample draws a correlated (input, output) pair.
func (b Bivariate) Sample(r *rand.Rand) (in, out int) {
	z1 := r.NormFloat64()
	z2 := b.Rho*z1 + math.Sqrt(1-b.Rho*b.Rho)*r.NormFloat64()
	in = b.In.Percentile(clampQ(stdNormCDF(z1)))
	out = b.Out.Percentile(clampQ(stdNormCDF(z2)))
	return in, out
}

func clampQ(q float64) float64 {
	if q < 1e-9 {
		return 1e-9
	}
	if q > 1-1e-9 {
		return 1 - 1e-9
	}
	return q
}
