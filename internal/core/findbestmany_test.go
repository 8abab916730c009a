// Tests for the amortized multi-bound search: per-bound equivalence
// with one-bound searches, determinism across runs and worker counts,
// and the amortization itself (shared enumeration across bounds).
package core

import (
	"math"
	"reflect"
	"testing"
)

// manyBounds mixes the shapes FindBestMany must handle: unsorted order,
// a duplicate, an unsatisfiably tight bound, and +Inf.
var manyBounds = []float64{20, 4, math.Inf(1), 8, 20, 0.001}

// TestFindBestManyMatchesFindBest: on the OPT-13B/S test deployment,
// for every bound of a mixed bound list, the multi-bound search's Best
// and Found are bit-identical to a one-bound search (FindBest, the
// single-bound FindBestMany) at that bound on a fresh Workers=1
// scheduler, at worker counts 1, 2 and 8. The Table 2 grid, where the
// two differ, is held in experiments' TestFindBestManyMatchesFindBestTable2.
func TestFindBestManyMatchesFindBest(t *testing.T) {
	// Standalone references from a Workers=1 scheduler.
	want := make([]Result, len(manyBounds))
	for k, b := range manyBounds {
		seq := detScheduler(t, 1)
		res, err := seq.FindBest(allPolicies, b)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = res
	}
	foundAny := false
	for _, w := range want {
		foundAny = foundAny || w.Found
	}
	if !foundAny {
		t.Fatal("reference searches found nothing; test is vacuous")
	}
	for _, workers := range []int{1, 2, 8} {
		s := detScheduler(t, workers)
		got, err := s.FindBestMany(allPolicies, manyBounds)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(manyBounds) {
			t.Fatalf("workers=%d: %d results for %d bounds", workers, len(got), len(manyBounds))
		}
		for k, b := range manyBounds {
			if got[k].Found != want[k].Found {
				t.Fatalf("workers=%d bound=%v: found=%v, want %v", workers, b, got[k].Found, want[k].Found)
			}
			if !reflect.DeepEqual(got[k].Best, want[k].Best) {
				t.Fatalf("workers=%d bound=%v: best diverged\n got %+v\nwant %+v",
					workers, b, got[k].Best, want[k].Best)
			}
			if math.Float64bits(got[k].Best.Throughput) != math.Float64bits(want[k].Best.Throughput) ||
				math.Float64bits(got[k].Best.Latency) != math.Float64bits(want[k].Best.Latency) {
				t.Fatalf("workers=%d bound=%v: float bits diverged", workers, b)
			}
		}
	}
}

// TestFindBestManyDeterministic asserts the whole result slice —
// including per-bound Evals and the merged frontier — is identical
// across runs and worker counts.
func TestFindBestManyDeterministic(t *testing.T) {
	var want []Result
	var wantFrontier Frontier
	var wantEvals int
	for i, workers := range []int{1, 1, 2, 8} {
		s := detScheduler(t, workers)
		got, err := s.FindBestMany(allPolicies, manyBounds)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if i == 0 {
			want, wantFrontier, wantEvals = got, s.Frontier, s.Evals
			if wantFrontier.Len() == 0 {
				t.Fatal("empty frontier after a search that found schedules")
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: results (incl. Evals) diverged\n got %+v\nwant %+v", workers, got, want)
		}
		if s.Evals != wantEvals {
			t.Fatalf("workers=%d: Scheduler.Evals = %d, want %d", workers, s.Evals, wantEvals)
		}
		if !reflect.DeepEqual(s.Frontier, wantFrontier) {
			t.Fatalf("workers=%d: merged frontier diverged", workers)
		}
	}
}

// TestFindBestManyAmortizes: one multi-bound pass must evaluate
// strictly fewer configurations than the independent per-bound
// searches it replaces.
func TestFindBestManyAmortizes(t *testing.T) {
	s := detScheduler(t, 1)
	bounds := []float64{4, 8, 20, math.Inf(1)}
	if _, err := s.FindBestMany(allPolicies, bounds); err != nil {
		t.Fatal(err)
	}
	many := s.Evals
	indep := 0
	for _, b := range bounds {
		res, err := detScheduler(t, 1).FindBest(allPolicies, b)
		if err != nil {
			t.Fatal(err)
		}
		indep += res.Evals
	}
	if many >= indep {
		t.Fatalf("FindBestMany evals %d >= independent total %d: no amortization", many, indep)
	}
	t.Logf("evals: many=%d, independent=%d (%.1fx fewer)", many, indep, float64(indep)/float64(many))
}

// TestFindBestManyDuplicatesAndOrder: duplicate bounds share one
// search and results align with the caller's (unsorted) input order.
func TestFindBestManyDuplicatesAndOrder(t *testing.T) {
	s := detScheduler(t, 2)
	res, err := s.FindBestMany(allPolicies, manyBounds)
	if err != nil {
		t.Fatal(err)
	}
	for k, b := range manyBounds {
		for k2, b2 := range manyBounds {
			if b == b2 && !reflect.DeepEqual(res[k], res[k2]) {
				t.Fatalf("duplicate bound %v: results differ at positions %d and %d", b, k, k2)
			}
		}
	}
	// Tighter bounds can never out-perform looser ones.
	for k, b := range manyBounds {
		for k2, b2 := range manyBounds {
			if b < b2 && res[k].Found && res[k2].Found &&
				res[k].Best.Throughput > res[k2].Best.Throughput {
				t.Fatalf("bound %v tput %v exceeds looser bound %v tput %v",
					b, res[k].Best.Throughput, b2, res[k2].Best.Throughput)
			}
		}
	}
}

// TestFindBestManyEdgeCases: empty input, a single bound, and an
// all-infeasible sweep.
func TestFindBestManyEdgeCases(t *testing.T) {
	s := detScheduler(t, 2)
	res, err := s.FindBestMany(allPolicies, nil)
	if err != nil || res != nil {
		t.Fatalf("empty bounds: got (%v, %v), want (nil, nil)", res, err)
	}
	res, err = s.FindBestMany(allPolicies, []float64{20})
	if err != nil {
		t.Fatal(err)
	}
	want, err := detScheduler(t, 1).FindBest(allPolicies, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Found != want.Found || !reflect.DeepEqual(res[0].Best, want.Best) {
		t.Fatalf("single bound: got %+v, want %+v", res, want)
	}
	res, err = s.FindBestMany(allPolicies, []float64{0.0001, 0.001})
	if err != nil {
		t.Fatal(err)
	}
	for k, r := range res {
		if r.Found {
			t.Fatalf("unsatisfiable bound %v reported a schedule: %+v", []float64{0.0001, 0.001}[k], r.Best)
		}
	}
}

// TestFindBestManyDisableMemo: the reference Simulator path must select
// the same schedules as the memoized Evaluator path.
func TestFindBestManyDisableMemo(t *testing.T) {
	bounds := []float64{8, 20, math.Inf(1)}
	fast := detScheduler(t, 2)
	fastRes, err := fast.FindBestMany(allPolicies, bounds)
	if err != nil {
		t.Fatal(err)
	}
	ref := detScheduler(t, 2)
	ref.disableMemo = true
	refRes, err := ref.FindBestMany(allPolicies, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fastRes, refRes) {
		t.Fatalf("memoized and reference paths diverged\n fast %+v\n ref %+v", fastRes, refRes)
	}
}

// TestFindBestManyWarmEvaluators: results must not depend on whether
// the per-worker memos are cold or warm from earlier searches.
func TestFindBestManyWarmEvaluators(t *testing.T) {
	bounds := []float64{8, math.Inf(1)}
	cold := detScheduler(t, 2)
	coldRes, err := cold.FindBestMany(allPolicies, bounds)
	if err != nil {
		t.Fatal(err)
	}
	warm := detScheduler(t, 2)
	if _, err := warm.FindBest(allPolicies, 20); err != nil {
		t.Fatal(err)
	}
	warmRes, err := warm.FindBestMany(allPolicies, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(coldRes, warmRes) {
		t.Fatalf("warm-memo results diverged\n cold %+v\n warm %+v", coldRes, warmRes)
	}
}

func BenchmarkFindBestManyFourBounds(b *testing.B) {
	s := detScheduler(b, 1)
	bounds := []float64{4, 8, 20, math.Inf(1)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.FindBestMany(allPolicies, bounds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFindBestIndependentFourBounds(b *testing.B) {
	s := detScheduler(b, 1)
	bounds := []float64{4, 8, 20, math.Inf(1)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bo := range bounds {
			if _, err := s.FindBest(allPolicies, bo); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestFindBestManyRejectsNaN: a NaN bound cannot satisfy any latency
// comparison and cannot key results, so every search entry point that
// takes a bound must return an explicit error instead of an NS.
func TestFindBestManyRejectsNaN(t *testing.T) {
	for _, tc := range []struct {
		name   string
		search func(*Scheduler) error
	}{
		{"FindBestMany", func(s *Scheduler) error {
			_, err := s.FindBestMany(allPolicies, []float64{math.NaN(), 20})
			return err
		}},
		{"FindBest", func(s *Scheduler) error {
			_, err := s.FindBest(allPolicies, math.NaN())
			return err
		}},
		{"Exhaustive", func(s *Scheduler) error {
			_, err := s.Exhaustive(allPolicies, math.NaN())
			return err
		}},
	} {
		if err := tc.search(detScheduler(t, 1)); err == nil {
			t.Errorf("%s: NaN bound must be rejected", tc.name)
		}
	}
}
