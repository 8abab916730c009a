// Package familytest is the conformance suite every execution-policy
// family must pass: identity (String and the JSON name encoding),
// allocation shape against the family's capability flags, bit-identical
// Simulator and Evaluator estimates (cold and warm, feasible and
// infeasible), worker-count-independent B&B search, and deterministic
// batch and open-loop runner execution. A new family earns its place by
// appearing in sched.Families() — the suite test enumerates the
// registry — so a family that registers in sched but wires only one of
// the estimate paths, or drifts between them, fails here by scenario
// name instead of as a silent artifact diff.
package familytest

import (
	"reflect"
	"testing"

	"exegpt/internal/core"
	"exegpt/internal/hw"
	"exegpt/internal/model"
	"exegpt/internal/profile"
	"exegpt/internal/runner"
	"exegpt/internal/sched"
	"exegpt/internal/workload"
)

// fixture is the shared small deployment every scenario runs on:
// OPT-13B on 4xA40 serving summarization — cheap enough for -race,
// large enough to split into dedicated pools.
type fixture struct {
	model   model.Model
	cluster hw.Cluster
	sim     *core.Simulator
	eng     *runner.Engine
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	sub, err := hw.A40Cluster.Sub(4)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profile.New(model.OPT13B, sub)
	if err != nil {
		t.Fatal(err)
	}
	in, out, err := workload.Summarization.Dists()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := core.NewSimulator(model.OPT13B, sub, prof.Run(), in, out)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := runner.New(model.OPT13B, sub, prof.Run())
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{model: model.OPT13B, cluster: sub, sim: sim, eng: eng}
}

// grid returns the family's estimate conformance grid: a few feasible
// control-variable points plus one infeasible point, derived from the
// family's capability flags rather than its identity.
func grid(f sched.Family, totalGPUs int) []sched.Config {
	var cfgs []sched.Config
	if f.Caps.DedicatedPools {
		for _, be := range []int{2, 8} {
			for _, bm := range []int{1, 2} {
				cfgs = append(cfgs, sched.Config{
					Policy: f.Policy, BE: be, BD: 1, Bm: bm, TP: sched.TPSpec{Degree: 1},
				})
			}
		}
		// A TP pool spanning the whole cluster leaves no encode pool.
		cfgs = append(cfgs, sched.Config{
			Policy: f.Policy, BE: 4, BD: 1, Bm: 1,
			TP: sched.TPSpec{Degree: 2, GPUs: totalGPUs},
		})
		return cfgs
	}
	for _, bd := range []int{8, 32} {
		for _, nd := range []int{4, 8} {
			cfgs = append(cfgs, sched.Config{
				Policy: f.Policy, BE: 1, BD: bd, ND: nd, TP: sched.TPSpec{Degree: 1},
			})
		}
	}
	// The full search-space batch ceiling blows the KV budget.
	cfgs = append(cfgs, sched.Config{
		Policy: f.Policy, BE: 1, BD: 4096, ND: 8, TP: sched.TPSpec{Degree: 1},
	})
	return cfgs
}

// feasible returns a pinned feasible schedule for the runner scenarios:
// the family's first grid point estimated through the Simulator (which
// derives the dependent batch variable and the allocation).
func feasible(t *testing.T, fx *fixture, f sched.Family) core.Estimate {
	t.Helper()
	for _, cfg := range grid(f, fx.cluster.TotalGPUs()) {
		est, err := fx.sim.Estimate(cfg)
		if err != nil {
			t.Fatalf("estimate %+v: %v", cfg, err)
		}
		if est.Feasible {
			return est
		}
	}
	t.Fatalf("family %s: no feasible grid point", f.Name)
	return core.Estimate{}
}

// Run executes the conformance scenarios for one registered family.
func Run(t *testing.T, f sched.Family) {
	t.Run("Identity", func(t *testing.T) { testIdentity(t, f) })
	t.Run("Allocate", func(t *testing.T) { testAllocate(t, f) })
	t.Run("EstimatorBitEquality", func(t *testing.T) { testEstimatorBitEquality(t, f) })
	t.Run("SearchDeterminism", func(t *testing.T) { testSearchDeterminism(t, f) })
	t.Run("BatchRun", func(t *testing.T) { testBatchRun(t, f) })
	t.Run("OpenRun", func(t *testing.T) { testOpenRun(t, f) })
}

// testIdentity pins the name and JSON encodings: String and
// MarshalJSON both render the registered name.
func testIdentity(t *testing.T, f sched.Family) {
	if got := f.Policy.String(); got != f.Name {
		t.Fatalf("String() = %q, want %q", got, f.Name)
	}
	data, err := f.Policy.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if want := `"` + f.Name + `"`; string(data) != want {
		t.Fatalf("MarshalJSON = %s, want %s", data, want)
	}
}

// testAllocate checks that the allocation of the family's feasible
// estimate — the one the runner executes — has the shape its capability
// flags promise on the fixture cluster.
func testAllocate(t *testing.T, f sched.Family) {
	fx := newFixture(t)
	alloc := feasible(t, fx, f).Alloc
	if alloc.Policy != f.Policy {
		t.Fatalf("allocation policy %v, want %v", alloc.Policy, f.Policy)
	}
	if len(alloc.Stages) == 0 {
		t.Fatal("allocation has no stages")
	}
	enc, dec := len(alloc.EncStages()), len(alloc.DecStages())
	if f.Caps.DedicatedPools && (enc == 0 || dec == 0) {
		t.Fatalf("dedicated-pool family allocated enc=%d dec=%d stages", enc, dec)
	}
	if n := fx.cluster.TotalGPUs(); f.Caps.DedicatedPools && alloc.EncGPUs+alloc.DecGPUs != n {
		t.Fatalf("dedicated pools enc=%d + dec=%d GPUs, want all %d", alloc.EncGPUs, alloc.DecGPUs, n)
	}
	if !f.Caps.DedicatedPools && (alloc.EncGPUs != 0 || alloc.DecGPUs != 0) {
		t.Fatalf("shared-pool family split GPUs enc=%d dec=%d", alloc.EncGPUs, alloc.DecGPUs)
	}
}

// testEstimatorBitEquality pins the Evaluator fast path to the
// Simulator reference bit for bit over the family grid — cold, then
// warm (memo hits) — including the infeasible point's Reason.
func testEstimatorBitEquality(t *testing.T, f sched.Family) {
	fx := newFixture(t)
	ev := core.NewEvaluator(fx.sim)
	cfgs := grid(f, fx.cluster.TotalGPUs())
	sawInfeasible := false
	for pass := 0; pass < 2; pass++ {
		for _, cfg := range cfgs {
			ref, rerr := fx.sim.Estimate(cfg)
			fast, ferr := ev.Estimate(cfg)
			if (rerr == nil) != (ferr == nil) {
				t.Fatalf("pass %d %+v: simulator err %v, evaluator err %v", pass, cfg, rerr, ferr)
			}
			if rerr != nil {
				continue
			}
			if !reflect.DeepEqual(ref, fast) {
				t.Fatalf("pass %d %+v: evaluator diverged\nref:  %+v\nfast: %+v", pass, cfg, ref, fast)
			}
			if !ref.Feasible {
				sawInfeasible = true
			}
		}
	}
	if !sawInfeasible {
		t.Fatal("grid exercised no infeasible point")
	}
}

// testSearchDeterminism pins FindBest to one result regardless of
// worker count, on a shrunk search space.
func testSearchDeterminism(t *testing.T, f sched.Family) {
	fx := newFixture(t)
	result := func(workers int) core.Result {
		s := core.NewScheduler(fx.sim)
		s.MaxBatch, s.MaxND, s.MaxBm = 64, 8, 4
		s.Workers = workers
		min, err := s.MinLatency([]sched.Policy{f.Policy})
		if err != nil {
			t.Fatalf("MinLatency: %v", err)
		}
		res, err := s.FindBest([]sched.Policy{f.Policy}, min*1.5)
		if err != nil {
			t.Fatalf("FindBest(workers=%d): %v", workers, err)
		}
		return res
	}
	serial, wide := result(1), result(4)
	if !reflect.DeepEqual(serial.Best, wide.Best) {
		t.Fatalf("search diverged across worker counts\n1: %+v\n4: %+v", serial.Best, wide.Best)
	}
}

// testBatchRun executes the family's best-known schedule through
// Engine.Run: every request completes and two runs are identical. Run
// keeps no records; testOpenRun covers record-level determinism.
func testBatchRun(t *testing.T, f sched.Family) {
	fx := newFixture(t)
	est := feasible(t, fx, f)
	reqs := requests(t, 48, 7)
	run := func() runner.Result {
		res, err := fx.eng.Run(est.Config, est.Alloc, reqs)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	r1, r2 := run(), run()
	if r1.Stats.Completed != len(reqs) {
		t.Fatalf("completed %d of %d requests", r1.Stats.Completed, len(reqs))
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("batch run not deterministic")
	}
}

// testOpenRun drives the incremental engine with staggered arrivals:
// every pushed request completes and two runs are identical.
func testOpenRun(t *testing.T, f sched.Family) {
	fx := newFixture(t)
	est := feasible(t, fx, f)
	reqs := requests(t, 24, 11)
	run := func() []runner.QueryRecord {
		o, err := fx.eng.Open(est.Config, est.Alloc, 0)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		var recs []runner.QueryRecord
		o.OnComplete = func(r runner.QueryRecord) { recs = append(recs, r) }
		for i, r := range reqs {
			o.Push(r, float64(i)*0.05)
		}
		if err := o.Finish(); err != nil {
			t.Fatalf("Finish: %v", err)
		}
		return recs
	}
	r1, r2 := run(), run()
	if len(r1) != len(reqs) {
		t.Fatalf("completed %d of %d requests", len(r1), len(reqs))
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("open run not deterministic")
	}
}

func requests(t testing.TB, n int, seed int64) []workload.Request {
	t.Helper()
	g, err := workload.NewGenerator(workload.Summarization, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g.Batch(n)
}
