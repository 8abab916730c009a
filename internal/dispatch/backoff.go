// Deterministic exponential backoff with jitter for the worker and HTTP
// client retry loops. Jitter is drawn from a seeded generator, not the
// global one, so tests (and the chaos suite) can pin the exact delay
// schedule a seed produces.
package dispatch

import (
	"hash/fnv"
	"math/rand"
	"time"
)

// Backoff produces an exponential backoff-with-jitter delay schedule:
// each Next() draws uniformly from [step/2, step] and then doubles the
// step, up to the cap. The schedule is fully determined by (base, max,
// seed) — two Backoffs built with equal parameters return equal delay
// sequences — which is what lets the chaos tests assert on retry
// timing instead of sleeping and hoping. Not safe for concurrent use.
type Backoff struct {
	base, max time.Duration
	step      time.Duration
	rng       *rand.Rand
}

// NewBackoff returns a Backoff starting at base and doubling up to max.
// base <= 0 takes the Defaults().RetryBase; max below base is raised to
// base.
func NewBackoff(base, max time.Duration, seed int64) *Backoff {
	if base <= 0 {
		base = Defaults().RetryBase
	}
	if max < base {
		max = base
	}
	return &Backoff{base: base, max: max, step: base, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the next delay and advances the schedule.
func (b *Backoff) Next() time.Duration {
	step := b.step
	b.step *= 2
	if b.step > b.max {
		b.step = b.max
	}
	half := step / 2
	return half + time.Duration(b.rng.Int63n(int64(half)+1))
}

// Reset drops the step back to base after a success. The jitter stream
// keeps advancing from where it was — determinism is per call sequence,
// not per step value.
func (b *Backoff) Reset() { b.step = b.base }

// SeedFromID derives a stable backoff seed from a worker id, so a fleet
// of workers launched without explicit seeds still desynchronizes its
// retry storms deterministically.
func SeedFromID(id string) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return int64(h.Sum64())
}
