// Tests for the parallel branch-and-bound search: determinism across
// worker counts and the deterministic seed-bound pruning contract.
package core

import (
	"math"
	"reflect"
	"testing"

	"exegpt/internal/sched"
	"exegpt/internal/workload"
)

// allPolicies exercises every branch kind, including the WAA branches
// that share the pruning bound with RRA's.
var allPolicies = []sched.Policy{sched.RRA, sched.WAAC, sched.WAAM}

func detScheduler(t testing.TB, workers int) *Scheduler {
	s := NewScheduler(optSim(t, workload.Summarization))
	s.MaxBatch = 512
	s.MaxND = 32
	s.Workers = workers
	return s
}

// TestFindBestDeterministicAcrossWorkers asserts the acceptance
// criterion: FindBest returns a byte-identical Result — including
// Evals, now that pruning uses only the deterministic seed bound — for
// worker counts 1, 2 and 8 on a fixed deployment.
func TestFindBestDeterministicAcrossWorkers(t *testing.T) {
	for _, bound := range []float64{8, 20, math.Inf(1)} {
		var want Result
		for i, workers := range []int{1, 2, 8} {
			s := detScheduler(t, workers)
			res, err := s.FindBest(allPolicies, bound)
			if err != nil {
				t.Fatalf("workers=%d bound=%v: %v", workers, bound, err)
			}
			if i == 0 {
				if !res.Found && math.IsInf(bound, 1) {
					t.Fatalf("bound=Inf: baseline search found nothing")
				}
				want = res
				continue
			}
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("workers=%d bound=%v: result diverged\n got %+v\nwant %+v",
					workers, bound, res, want)
			}
		}
	}
}

// TestMinLatencyDeterministicAcrossWorkers covers the full-grid scans,
// where even Evals must be identical (no pruning).
func TestMinLatencyDeterministicAcrossWorkers(t *testing.T) {
	s1 := detScheduler(t, 1)
	min1, err := s1.MinLatency(allPolicies)
	if err != nil {
		t.Fatal(err)
	}
	s8 := detScheduler(t, 8)
	min8, err := s8.MinLatency(allPolicies)
	if err != nil {
		t.Fatal(err)
	}
	if min1 != min8 {
		t.Fatalf("MinLatency diverged: workers=1 %v, workers=8 %v", min1, min8)
	}
}

// TestExhaustiveDeterministicAcrossWorkers: exhaustive search has no
// pruning, so the whole Result including Evals must match.
func TestExhaustiveDeterministicAcrossWorkers(t *testing.T) {
	s1 := detScheduler(t, 1)
	s1.MaxBatch = 128
	r1, err := s1.Exhaustive(allPolicies, 20)
	if err != nil {
		t.Fatal(err)
	}
	s8 := detScheduler(t, 8)
	s8.MaxBatch = 128
	r8, err := s8.Exhaustive(allPolicies, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Fatalf("Exhaustive diverged:\n got %+v\nwant %+v", r8, r1)
	}
}

// TestSeedBoundStillFindsOptimum: the cross-branch seed bound may only
// prune configurations that cannot win. Compare the parallel B&B result
// against the exhaustive optimum at several bounds.
func TestSeedBoundStillFindsOptimum(t *testing.T) {
	s := detScheduler(t, 8)
	s.MaxBatch = 128
	for _, bound := range []float64{8, 20, math.Inf(1)} {
		bb, err := s.FindBest(allPolicies, bound)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := s.Exhaustive(allPolicies, bound)
		if err != nil {
			t.Fatal(err)
		}
		if bb.Found != ex.Found {
			t.Fatalf("bound %v: found mismatch bb=%v ex=%v", bound, bb.Found, ex.Found)
		}
		if !bb.Found {
			continue
		}
		if bb.Best.Throughput < ex.Best.Throughput*(1-tolT-0.02) {
			t.Fatalf("bound %v: parallel B&B tput %v far below exhaustive %v",
				bound, bb.Best.Throughput, ex.Best.Throughput)
		}
	}
}

func TestConfigLessIsTotalOrder(t *testing.T) {
	a := sched.Config{Policy: sched.RRA, BD: 64, BE: 1, ND: 8, TP: sched.TPSpec{Degree: 1}}
	b := sched.Config{Policy: sched.WAAC, BE: 4, BD: 1, Bm: 2, TP: sched.TPSpec{Degree: 1}}
	if !configLess(a, b) || configLess(b, a) {
		t.Fatal("RRA must order before WAAC")
	}
	if configLess(a, a) {
		t.Fatal("irreflexive")
	}
	c := a
	c.BD = 65
	if !configLess(a, c) || configLess(c, a) {
		t.Fatal("BD must break the tie")
	}
}

func benchFindBest(b *testing.B, workers int) {
	s := detScheduler(b, workers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.FindBest(allPolicies, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFindBestSequential/Parallel compare the single-worker search
// against the GOMAXPROCS-sized pool on the same deployment.
func BenchmarkFindBestSequential(b *testing.B) { benchFindBest(b, 1) }

func BenchmarkFindBestParallel(b *testing.B) { benchFindBest(b, 0) }
