// Property tests for Frontier.Merge: the sweep fold
// (internal/experiments) merges every cell's per-group frontier into
// one frontier per deployment and writes it into the -json artifact,
// so merge must behave as a set union — commutative, associative,
// idempotent — and answer every BestUnder query as the better of its
// operands' answers.
package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randEsts draws n estimates from a small discrete lattice: the
// collision-heavy distribution exercises the dominance and tie-break
// paths far more than uniform floats would. A few entries are
// infeasible or non-finite, which Add must ignore.
func randEsts(r *rand.Rand, n int) []*Estimate {
	ests := make([]*Estimate, n)
	for i := range ests {
		e := fp(
			float64(1+r.Intn(12))/2,
			float64(1+r.Intn(12))/2,
			1+r.Intn(6),
		)
		switch r.Intn(10) {
		case 0:
			e.Feasible = false
		case 1:
			e.Latency = math.Inf(1)
		}
		ests[i] = e
	}
	return ests
}

// buildFrontier folds points into a fresh frontier.
func buildFrontier(ests []*Estimate) *Frontier {
	f := &Frontier{}
	for _, e := range ests {
		f.Add(e)
	}
	return f
}

// cloneFrontier deep-copies a frontier so Merge (which mutates its
// receiver) can be compared against the original.
func cloneFrontier(f *Frontier) *Frontier {
	c := &Frontier{}
	for _, p := range f.Points {
		q := *p
		c.Points = append(c.Points, &q)
	}
	return c
}

// merged returns clone(a) ∪ b without touching either argument.
func merged(a, b *Frontier) *Frontier {
	c := cloneFrontier(a)
	c.Merge(b)
	return c
}

func TestFrontierMergeIsSetUnion(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		pa, pb, pc := randEsts(r, 1+r.Intn(20)), randEsts(r, 1+r.Intn(20)), randEsts(r, 1+r.Intn(20))
		a, b, c := buildFrontier(pa), buildFrontier(pb), buildFrontier(pc)

		// Commutative: a ∪ b == b ∪ a.
		ab, ba := merged(a, b), merged(b, a)
		if !reflect.DeepEqual(ab, ba) {
			t.Fatalf("trial %d: merge not commutative\n a∪b %+v\n b∪a %+v", trial, ab, ba)
		}
		// Associative: (a ∪ b) ∪ c == a ∪ (b ∪ c).
		if l, rr := merged(ab, c), merged(a, merged(b, c)); !reflect.DeepEqual(l, rr) {
			t.Fatalf("trial %d: merge not associative", trial)
		}
		// Idempotent: a ∪ a == a.
		if aa := merged(a, a); !reflect.DeepEqual(aa, a) {
			t.Fatalf("trial %d: merge not idempotent\n a∪a %+v\n a   %+v", trial, aa, a)
		}
		// Merge == frontier of the pooled point multiset.
		if union := buildFrontier(append(append([]*Estimate(nil), pa...), pb...)); !reflect.DeepEqual(ab, union) {
			t.Fatalf("trial %d: merge != frontier of pooled points\n merge %+v\n union %+v", trial, ab, union)
		}
	}
}

// FuzzFrontierMerge drives the same union properties from fuzzed seeds,
// so `go test -fuzz` can hunt for orderings the fixed-seed property
// test misses; the seed corpus runs as a regular unit test.
func FuzzFrontierMerge(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(4))
	f.Add(int64(42), uint8(0), uint8(17))
	f.Add(int64(-7), uint8(31), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, na, nb uint8) {
		r := rand.New(rand.NewSource(seed))
		pa, pb := randEsts(r, int(na%32)), randEsts(r, int(nb%32))
		a, b := buildFrontier(pa), buildFrontier(pb)
		ab, ba := merged(a, b), merged(b, a)
		if !reflect.DeepEqual(ab, ba) {
			t.Fatal("merge not commutative")
		}
		if union := buildFrontier(append(append([]*Estimate(nil), pa...), pb...)); !reflect.DeepEqual(ab, union) {
			t.Fatal("merge != frontier of pooled points")
		}
		// The best schedule under any bound in a ∪ b is the better of
		// the best under it in a and in b.
		for lb := 0.0; lb < 8; lb += 0.25 {
			e, ok := ab.BestUnder(lb)
			ea, oka := a.BestUnder(lb)
			eb, okb := b.BestUnder(lb)
			want := math.Inf(-1)
			if oka {
				want = ea.Throughput
			}
			if okb {
				want = math.Max(want, eb.Throughput)
			}
			if ok != (oka || okb) || (ok && e.Throughput != want) {
				t.Fatalf("BestUnder(%v) = %v (ok %v); a gives %v (ok %v), b gives %v (ok %v)",
					lb, e.Throughput, ok, ea.Throughput, oka, eb.Throughput, okb)
			}
		}
	})
}
