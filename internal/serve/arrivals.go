// Arrival processes: open-loop request arrival time generators for the
// online serving mode. All processes are seeded and deterministic —
// the same (kind, rate, seed) always yields the same arrival sequence,
// which is what makes serve artifacts byte-identical across runs.
package serve

import (
	"fmt"
	"math"
	"math/rand"
)

// Process generates a strictly increasing sequence of arrival times in
// virtual seconds. Implementations are single-goroutine.
type Process interface {
	// Name identifies the process kind (poisson, mmpp, diurnal, step).
	Name() string
	// Next returns the next arrival time strictly after the previous
	// one (the first call returns the first arrival after time 0).
	Next() float64
}

// MMPP dwell/rate shape and diurnal period/amplitude: fixed process
// parameters derived from the mean rate, chosen so the three kinds are
// comparable at the same -rate flag.
const (
	mmppLowFactor  = 0.4  // low-state rate = 0.4x mean
	mmppHighFactor = 1.6  // high-state rate = 1.6x mean (dwells are equal, so the two states average to the mean)
	mmppMeanDwell  = 20.0 // mean seconds per state
	diurnalPeriod  = 240.0
	diurnalAmp     = 0.8 // rate swings mean*(1 +/- 0.8)
)

// NewProcess builds an arrival process of the given kind around a mean
// rate (arrivals/second). stepAt/stepFactor configure the piecewise
// "step" kind: the rate jumps from rate to rate*stepFactor at stepAt
// seconds (they are ignored by the other kinds).
func NewProcess(kind string, rate float64, seed int64, stepAt, stepFactor float64) (Process, error) {
	if !finitePositive(rate) {
		return nil, fmt.Errorf("serve: arrival rate %v must be positive and finite", rate)
	}
	rng := rand.New(rand.NewSource(seed))
	switch kind {
	case "poisson":
		return &poisson{rate: rate, rng: rng}, nil
	case "mmpp":
		return &mmpp{
			low: rate * mmppLowFactor, high: rate * mmppHighFactor,
			dwell: mmppMeanDwell, rng: rng,
		}, nil
	case "diurnal":
		return &diurnal{
			base: rate, amp: diurnalAmp, period: diurnalPeriod, rng: rng,
		}, nil
	case "step":
		if !finitePositive(stepAt) {
			return nil, fmt.Errorf("serve: step arrivals need a positive, finite -step-at, got %v", stepAt)
		}
		if !finitePositive(stepFactor) {
			return nil, fmt.Errorf("serve: step arrivals need a positive, finite -step-factor, got %v", stepFactor)
		}
		// An infinite post-step rate makes every gap 0 and time never
		// advances; an underflowed one makes every gap infinite.
		if !finitePositive(rate * stepFactor) {
			return nil, fmt.Errorf("serve: post-step rate %v x %v must be positive and finite", rate, stepFactor)
		}
		return &step{r1: rate, r2: rate * stepFactor, at: stepAt, rng: rng}, nil
	}
	return nil, fmt.Errorf("serve: unknown arrival kind %q (want poisson, mmpp, diurnal or step)", kind)
}

// finitePositive reports whether x is a positive, finite number (NaN
// fails every comparison, so it is rejected too).
func finitePositive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// poisson is a homogeneous Poisson process: i.i.d. exponential gaps.
type poisson struct {
	rate float64
	t    float64
	rng  *rand.Rand
}

func (p *poisson) Name() string { return "poisson" }

func (p *poisson) Next() float64 {
	p.t += p.rng.ExpFloat64() / p.rate
	return p.t
}

// mmpp is a two-state Markov-modulated Poisson process (bursty): the
// rate alternates between a low and a high state with exponentially
// distributed dwell times.
type mmpp struct {
	low, high float64
	dwell     float64
	t         float64
	// stateEnd is when the current state's dwell expires; high tracks
	// which state is active.
	stateEnd  float64
	inHigh    bool
	seededEnd bool
	rng       *rand.Rand
}

func (m *mmpp) Name() string { return "mmpp" }

func (m *mmpp) Next() float64 {
	if !m.seededEnd {
		m.seededEnd = true
		m.stateEnd = m.rng.ExpFloat64() * m.dwell
	}
	for {
		rate := m.low
		if m.inHigh {
			rate = m.high
		}
		gap := m.rng.ExpFloat64() / rate
		if m.t+gap < m.stateEnd {
			m.t += gap
			return m.t
		}
		// The gap crosses a state boundary: discard it (memorylessness
		// makes this exact), advance to the boundary, flip state.
		m.t = m.stateEnd
		m.stateEnd = m.t + m.rng.ExpFloat64()*m.dwell
		m.inHigh = !m.inHigh
	}
}

// diurnal is an inhomogeneous Poisson process with a sinusoidal rate
// rate(t) = base*(1 + amp*sin(2*pi*t/period)), sampled by thinning
// against the peak rate base*(1+amp).
type diurnal struct {
	base, amp, period float64
	t                 float64
	rng               *rand.Rand
}

func (d *diurnal) Name() string { return "diurnal" }

func (d *diurnal) rate(t float64) float64 {
	return d.base * (1 + d.amp*math.Sin(2*math.Pi*t/d.period))
}

func (d *diurnal) Next() float64 {
	peak := d.base * (1 + d.amp)
	for {
		d.t += d.rng.ExpFloat64() / peak
		if d.rng.Float64()*peak < d.rate(d.t) {
			return d.t
		}
	}
}

// step is a piecewise-constant Poisson process: rate r1 before at, r2
// after. It is the controller's test harness — an abrupt, unambiguous
// rate drift at a known time.
type step struct {
	r1, r2, at float64
	t          float64
	rng        *rand.Rand
}

func (s *step) Name() string { return "step" }

func (s *step) Next() float64 {
	for {
		rate := s.r1
		if s.t >= s.at {
			rate = s.r2
		}
		gap := s.rng.ExpFloat64() / rate
		if s.t < s.at && s.t+gap >= s.at {
			// Crossing the step: discard the partial gap (exact by
			// memorylessness) and resample at the new rate.
			s.t = s.at
			continue
		}
		s.t += gap
		return s.t
	}
}
