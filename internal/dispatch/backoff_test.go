package dispatch

import (
	"testing"
	"time"
)

// TestBackoffDeterministic: equal (base, max, seed) must produce equal
// delay sequences — the property retry-timing assertions stand on.
func TestBackoffDeterministic(t *testing.T) {
	a := NewBackoff(50*time.Millisecond, 400*time.Millisecond, 7)
	b := NewBackoff(50*time.Millisecond, 400*time.Millisecond, 7)
	for i := 0; i < 12; i++ {
		da, db := a.Next(), b.Next()
		if da != db {
			t.Fatalf("draw %d diverged: %v vs %v", i, da, db)
		}
	}
}

// TestBackoffEnvelope: every delay must land in [step/2, step], with
// the step doubling from base and capping at max.
func TestBackoffEnvelope(t *testing.T) {
	const base, max = 20 * time.Millisecond, 100 * time.Millisecond
	bo := NewBackoff(base, max, 3)
	step := base
	for i := 0; i < 10; i++ {
		d := bo.Next()
		if d < step/2 || d > step {
			t.Fatalf("draw %d = %v outside [%v, %v]", i, d, step/2, step)
		}
		step *= 2
		if step > max {
			step = max
		}
	}
	// Reset drops back to the base window.
	bo.Reset()
	if d := bo.Next(); d < base/2 || d > base {
		t.Fatalf("post-Reset draw %v outside [%v, %v]", d, base/2, base)
	}
}

// TestBackoffSeedsDesynchronize: different seeds must produce different
// jitter, so a fleet restarted in lockstep spreads out.
func TestBackoffSeedsDesynchronize(t *testing.T) {
	a := NewBackoff(time.Second, time.Minute, 1)
	b := NewBackoff(time.Second, time.Minute, 2)
	for i := 0; i < 16; i++ {
		if a.Next() != b.Next() {
			return
		}
	}
	t.Fatal("seeds 1 and 2 produced 16 identical draws")
}

// TestSeedFromID: stable per id, different across ids.
func TestSeedFromID(t *testing.T) {
	if SeedFromID("w1") != SeedFromID("w1") {
		t.Fatal("SeedFromID not stable")
	}
	if SeedFromID("w1") == SeedFromID("w2") {
		t.Fatal("SeedFromID(\"w1\") == SeedFromID(\"w2\")")
	}
}

// TestBackoffDefaults: non-positive base falls back to the option
// default; a max below base is raised to base.
func TestBackoffDefaults(t *testing.T) {
	bo := NewBackoff(0, 0, 1)
	d := bo.Next()
	want := Defaults().RetryBase
	if d < want/2 || d > want {
		t.Fatalf("zero-base first draw %v outside the default window [%v, %v]", d, want/2, want)
	}
	bo = NewBackoff(time.Second, time.Millisecond, 1)
	if d := bo.Next(); d < time.Second/2 || d > time.Second {
		t.Fatalf("max<base first draw %v outside [%v, %v]", d, time.Second/2, time.Second)
	}
}
