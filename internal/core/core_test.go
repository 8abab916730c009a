package core

import (
	"math"
	"testing"

	"exegpt/internal/hw"
	"exegpt/internal/model"
	"exegpt/internal/profile"
	"exegpt/internal/sched"
	"exegpt/internal/seqdist"
	"exegpt/internal/workload"
)

// newSim builds a simulator for a model deployed per Table 2 on a task.
func newSim(t testing.TB, m model.Model, gpus int, cluster hw.Cluster, task workload.Task) *Simulator {
	t.Helper()
	sub, err := cluster.Sub(gpus)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profile.New(m, sub)
	if err != nil {
		t.Fatal(err)
	}
	in, out, err := task.Dists()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(m, sub, prof.Run(), in, out)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func optSim(t testing.TB, task workload.Task) *Simulator {
	return newSim(t, model.OPT13B, 4, hw.A40Cluster, task)
}

func TestNewSimulatorValidates(t *testing.T) {
	sub, _ := hw.A40Cluster.Sub(4)
	prof, _ := profile.New(model.OPT13B, sub)
	tab := prof.Run()
	in, out, _ := workload.Summarization.Dists()
	if _, err := NewSimulator(model.Model{}, sub, tab, in, out); err == nil {
		t.Fatal("bad model should fail")
	}
	if _, err := NewSimulator(model.OPT13B, hw.Cluster{}, tab, in, out); err == nil {
		t.Fatal("bad cluster should fail")
	}
	if _, err := NewSimulator(model.OPT13B, sub, nil, in, out); err == nil {
		t.Fatal("nil table should fail")
	}
	if _, err := NewSimulator(model.OPT13B, sub, tab, nil, out); err == nil {
		t.Fatal("nil dist should fail")
	}
}

func TestEstimateRRABasic(t *testing.T) {
	sim := optSim(t, workload.Summarization)
	cfg := sched.Config{Policy: sched.RRA, BD: 64, BE: 1, ND: 8, TP: sched.TPSpec{Degree: 1}}
	est, err := sim.Estimate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !est.Feasible {
		t.Fatalf("infeasible: %s", est.Reason)
	}
	if est.Throughput <= 0 || est.Latency <= 0 || math.IsInf(est.Latency, 0) {
		t.Fatalf("tput=%v lat=%v", est.Throughput, est.Latency)
	}
	// BE derived from the completion distribution must satisfy the
	// batch-consistency identity approximately.
	comp, _ := seqdist.NewCompletionDist(sim.out, cfg.ND)
	wantBE := int(math.Round(64 * comp.PerPhaseCompletion()))
	if wantBE < 1 {
		wantBE = 1
	}
	if est.Config.BE != wantBE {
		t.Fatalf("BE = %d, want %d", est.Config.BE, wantBE)
	}
	if est.CycleTime <= est.EncTime {
		t.Fatal("cycle must include decode iterations")
	}
}

func TestEstimateWAABasic(t *testing.T) {
	// Task S encode dominates, so WAA-C packs GPUs onto encoding and the
	// lone decode GPU cannot hold the KV cache; WAA-M balances memory
	// instead (§4.1). Use WAA-M here and cover the WAA-C OOM below.
	sim := optSim(t, workload.Summarization)
	cfg := sched.Config{Policy: sched.WAAM, BE: 4, BD: 1, Bm: 2, TP: sched.TPSpec{Degree: 1}}
	est, err := sim.Estimate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !est.Feasible {
		t.Fatalf("infeasible: %s", est.Reason)
	}
	// BD = BE * mean output length (§4.1).
	wantBD := int(math.Round(4 * sim.out.Mean()))
	if est.Config.BD != wantBD {
		t.Fatalf("BD = %d, want %d", est.Config.BD, wantBD)
	}
	if est.Alloc.EncGPUs < 1 || est.Alloc.DecGPUs < 1 {
		t.Fatalf("alloc split %d/%d", est.Alloc.EncGPUs, est.Alloc.DecGPUs)
	}
	if est.Alloc.EncGPUs+est.Alloc.DecGPUs != 4 {
		t.Fatal("split must cover the cluster")
	}
}

func TestEstimateInvalidConfigIsInfeasible(t *testing.T) {
	sim := optSim(t, workload.Summarization)
	est, err := sim.Estimate(sched.Config{Policy: sched.RRA, BD: 0, BE: 1, ND: 1, TP: sched.TPSpec{Degree: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if est.Feasible || est.Reason == "" {
		t.Fatal("invalid config should be infeasible with a reason")
	}
}

// Batch size trades throughput for latency (§4.2).
func TestBatchTradeoffRRA(t *testing.T) {
	sim := optSim(t, workload.Summarization)
	small, _ := sim.Estimate(sched.Config{Policy: sched.RRA, BD: 8, BE: 1, ND: 8, TP: sched.TPSpec{Degree: 1}})
	large, _ := sim.Estimate(sched.Config{Policy: sched.RRA, BD: 256, BE: 1, ND: 8, TP: sched.TPSpec{Degree: 1}})
	if !small.Feasible || !large.Feasible {
		t.Fatal("both should fit")
	}
	if large.Throughput <= small.Throughput {
		t.Fatalf("larger batch should raise throughput: %v vs %v", large.Throughput, small.Throughput)
	}
	if large.Latency <= small.Latency {
		t.Fatalf("larger batch should raise latency: %v vs %v", large.Latency, small.Latency)
	}
}

// Decreasing ND (more frequent encoding) raises throughput and latency
// (§4.1).
func TestEncodingFrequencyTradeoff(t *testing.T) {
	sim := optSim(t, workload.Translation)
	rare, _ := sim.Estimate(sched.Config{Policy: sched.RRA, BD: 128, BE: 1, ND: 32, TP: sched.TPSpec{Degree: 1}})
	frequent, _ := sim.Estimate(sched.Config{Policy: sched.RRA, BD: 128, BE: 1, ND: 4, TP: sched.TPSpec{Degree: 1}})
	if !rare.Feasible || !frequent.Feasible {
		t.Fatalf("both should fit: %s / %s", rare.Reason, frequent.Reason)
	}
	if frequent.Throughput <= rare.Throughput {
		t.Fatalf("frequent encoding should raise throughput: %v vs %v", frequent.Throughput, rare.Throughput)
	}
	if frequent.Latency <= rare.Latency {
		t.Fatalf("frequent encoding should raise latency: %v vs %v", frequent.Latency, rare.Latency)
	}
}

// More decoder micro-batches cut latency (§4.2, Figure 4(c)).
func TestMicroBatchTradeoff(t *testing.T) {
	sim := optSim(t, workload.Summarization)
	one, _ := sim.Estimate(sched.Config{Policy: sched.WAAM, BE: 8, BD: 1, Bm: 1, TP: sched.TPSpec{Degree: 1}})
	four, _ := sim.Estimate(sched.Config{Policy: sched.WAAM, BE: 8, BD: 1, Bm: 4, TP: sched.TPSpec{Degree: 1}})
	if !one.Feasible || !four.Feasible {
		t.Fatalf("both should fit: %s / %s", one.Reason, four.Reason)
	}
	if four.Latency >= one.Latency {
		t.Fatalf("micro-batches should cut latency: Bm=4 %v vs Bm=1 %v", four.Latency, one.Latency)
	}
}

// Partial TP reduces latency at some throughput cost (§4.2, §5.1).
func TestPartialTPTradeoff(t *testing.T) {
	sim := newSim(t, model.GPT339B, 16, hw.A40Cluster, workload.Summarization)
	noTP, _ := sim.Estimate(sched.Config{Policy: sched.RRA, BD: 64, BE: 1, ND: 8, TP: sched.TPSpec{Degree: 1}})
	fullTP, _ := sim.Estimate(sched.Config{Policy: sched.RRA, BD: 64, BE: 1, ND: 8, TP: sched.TPSpec{Degree: 8, GPUs: 16}})
	if !noTP.Feasible || !fullTP.Feasible {
		t.Fatalf("both should fit: %q %q", noTP.Reason, fullTP.Reason)
	}
	if fullTP.Latency >= noTP.Latency {
		t.Fatalf("TP should cut latency: %v vs %v", fullTP.Latency, noTP.Latency)
	}
}

// WAA runs out of memory for very large decoder-only models (§7.4).
func TestWAAOOMOnLargeModels(t *testing.T) {
	sim := newSim(t, model.GPT3175B, 16, hw.A100Cluster, workload.CodeGeneration)
	est, err := sim.Estimate(sched.Config{Policy: sched.WAAC, BE: 4, BD: 1, Bm: 2, TP: sched.TPSpec{Degree: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if est.Feasible {
		t.Fatal("WAA on 175B/16 A100 should OOM (two model copies)")
	}
	// RRA still fits.
	rra, err := sim.Estimate(sched.Config{Policy: sched.RRA, BD: 16, BE: 1, ND: 16, TP: sched.TPSpec{Degree: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !rra.Feasible {
		t.Fatalf("RRA should fit: %s", rra.Reason)
	}
}

func TestSchedulerFindsFeasibleSchedule(t *testing.T) {
	sim := optSim(t, workload.Summarization)
	s := NewScheduler(sim)
	s.MaxBatch = 512
	// Infinite bound: must find something.
	res, err := s.FindBest([]sched.Policy{sched.RRA, sched.WAAC}, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no schedule found under infinite bound")
	}
	unconstrained := res.Best.Throughput

	// Tight but achievable bound: still feasible and respects the bound.
	minLat, err := s.MinLatency([]sched.Policy{sched.RRA, sched.WAAC})
	if err != nil {
		t.Fatal(err)
	}
	bound := minLat * 1.2
	res2, err := s.FindBest([]sched.Policy{sched.RRA, sched.WAAC}, bound)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Found {
		t.Fatalf("no schedule under bound %v", bound)
	}
	if res2.Best.Latency >= bound {
		t.Fatalf("violates bound: %v >= %v", res2.Best.Latency, bound)
	}
	if res2.Best.Throughput > unconstrained*1.001 {
		t.Fatal("constrained search cannot beat unconstrained optimum")
	}
}

// Branch-and-bound must match exhaustive search within tolerance while
// evaluating far fewer points (§5.1, §7.7).
func TestBBMatchesExhaustive(t *testing.T) {
	sim := optSim(t, workload.Summarization)
	s := NewScheduler(sim)
	s.MaxBatch = 256
	s.MaxND = 32
	policies := []sched.Policy{sched.RRA, sched.WAAC}

	for _, bound := range []float64{5, 15, math.Inf(1)} {
		bb, err := s.FindBest(policies, bound)
		if err != nil {
			t.Fatal(err)
		}
		bbEvals := bb.Evals
		ex, err := s.Exhaustive(policies, bound)
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
			t.Fatalf("bound %v: B&B tput %v far below exhaustive %v",
				bound, bb.Best.Throughput, ex.Best.Throughput)
		}
		if bbEvals >= ex.Evals {
			t.Fatalf("bound %v: B&B evals %d not fewer than exhaustive %d", bound, bbEvals, ex.Evals)
		}
	}
}

// The Table 6 case-study shape: as the bound relaxes, the selected
// schedule's throughput is nondecreasing, and the tightest bound still
// achieves a large fraction of the maximum throughput.
func TestCaseStudyShape(t *testing.T) {
	sim := optSim(t, workload.Summarization)
	s := NewScheduler(sim)
	s.MaxBatch = 512
	inf, err := s.FindBest([]sched.Policy{sched.RRA, sched.WAAC}, math.Inf(1))
	if err != nil || !inf.Found {
		t.Fatalf("inf search: %v found=%v", err, inf.Found)
	}
	minLat, err := s.MinLatency([]sched.Policy{sched.RRA, sched.WAAC})
	if err != nil {
		t.Fatal(err)
	}
	// The paper derives bounds from FT's latency sweep (bottom 10%-70%),
	// which sit well above the system's absolute minimum latency.
	span := inf.Best.Latency - minLat
	bounds := []float64{minLat + 0.5*span, minLat + 0.75*span, inf.Best.Latency * 1.1, math.Inf(1)}
	prevTput := 0.0
	var tightest float64
	for i, b := range bounds {
		res, err := s.FindBest([]sched.Policy{sched.RRA, sched.WAAC}, b)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Fatalf("bound %v: nothing found", b)
		}
		// B&B tolerances allow small wobbles between adjacent bounds.
		if res.Best.Throughput < prevTput*0.97 {
			t.Fatalf("throughput decreased as bound relaxed: %v after %v", res.Best.Throughput, prevTput)
		}
		prevTput = res.Best.Throughput
		if i == 0 {
			tightest = res.Best.Throughput
		}
	}
	if tightest < 0.25*prevTput {
		t.Fatalf("tightest-bound throughput %v below 25%% of max %v (poor trade-off)", tightest, prevTput)
	}
}

// WAA beats RRA for short outputs; RRA wins for long outputs (§4.1,
// §7.3).
func TestPolicyCrossover(t *testing.T) {
	s := NewScheduler(optSim(t, workload.Summarization)) // short outputs
	s.MaxBatch = 512
	rra, err := s.FindBest([]sched.Policy{sched.RRA}, math.Inf(1))
	if err != nil || !rra.Found {
		t.Fatalf("rra: %v", err)
	}
	waa, err := s.FindBest([]sched.Policy{sched.WAAM, sched.WAAC}, math.Inf(1))
	if err != nil || !waa.Found {
		t.Fatalf("waa: %v", err)
	}
	if waa.Best.Throughput <= rra.Best.Throughput {
		t.Logf("note: WAA %.2f vs RRA %.2f on task S (paper expects WAA ahead)",
			waa.Best.Throughput, rra.Best.Throughput)
	}

	// Long outputs (translation): RRA should not lose badly.
	s2 := NewScheduler(optSim(t, workload.Translation))
	s2.MaxBatch = 512
	rra2, err := s2.FindBest([]sched.Policy{sched.RRA}, math.Inf(1))
	if err != nil || !rra2.Found {
		t.Fatalf("rra2: %v", err)
	}
	waa2, err := s2.FindBest([]sched.Policy{sched.WAAC, sched.WAAM}, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if waa2.Found && rra2.Best.Throughput < 0.5*waa2.Best.Throughput {
		t.Fatalf("RRA should be competitive on long outputs: %v vs %v",
			rra2.Best.Throughput, waa2.Best.Throughput)
	}
}

func TestMonotonicityReport(t *testing.T) {
	// Table 5 uses GPT-3 39B on 16 A40 GPUs.
	sim := newSim(t, model.GPT339B, 16, hw.A40Cluster, workload.Summarization)
	s := NewScheduler(sim)
	sweeps := s.Table5Sweeps()
	if len(sweeps) != 5 {
		t.Fatalf("want 5 sweeps (Table 5 columns), got %d", len(sweeps))
	}
	for _, sw := range sweeps {
		rep, err := s.EvaluateMonotonicity(sw, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Points == 0 {
			t.Fatalf("%v/%s: no feasible points swept", sw.Policy, sw.Variable)
		}
		// Table 5: with 5% tolerance the vast majority of points are
		// monotone.
		if rep.TputViol > 0.15 || rep.LatencyViol > 0.15 {
			t.Errorf("%v/%s: violations tput=%.2f lat=%.2f exceed 15%%",
				sw.Policy, sw.Variable, rep.TputViol, rep.LatencyViol)
		}
	}
}

func TestEvaluateMonotonicityUnknownVar(t *testing.T) {
	s := NewScheduler(optSim(t, workload.Summarization))
	_, err := s.EvaluateMonotonicity(SweepSpec{Variable: "??", Values: []int{1},
		Combos: []sched.Config{{Policy: sched.RRA, BD: 1, BE: 1, ND: 1, TP: sched.TPSpec{Degree: 1}}}}, 0.05)
	if err == nil {
		t.Fatal("unknown variable should error")
	}
}

// TestFamilyAxesFitBlock guards block's fixed index arrays: every
// registered family's search grid has at most maxAxes axes, each of a
// distinct kind, in the family's declared split order. A family
// declaring more would otherwise index past the arrays mid-search.
func TestFamilyAxesFitBlock(t *testing.T) {
	s := NewScheduler(optSim(t, workload.Summarization))
	for _, f := range sched.Families() {
		axes := s.axesFor(f.Policy)
		if len(axes) == 0 || len(axes) > maxAxes {
			t.Errorf("%s: %d axes, want 1..%d", f.Name, len(axes), maxAxes)
		}
		if len(axes) != len(f.Axes) {
			t.Errorf("%s: %d axes for %d declared kinds", f.Name, len(axes), len(f.Axes))
			continue
		}
		seen := map[sched.AxisKind]bool{}
		for d, a := range axes {
			if a.Kind != f.Axes[d] {
				t.Errorf("%s: axis %d has kind %d, declared %d", f.Name, d, a.Kind, f.Axes[d])
			}
			if seen[a.Kind] {
				t.Errorf("%s: axis kind %d repeats", f.Name, a.Kind)
			}
			seen[a.Kind] = true
		}
	}
}

func BenchmarkEstimateRRA(b *testing.B) {
	sim := optSim(b, workload.Summarization)
	cfg := sched.Config{Policy: sched.RRA, BD: 64, BE: 1, ND: 8, TP: sched.TPSpec{Degree: 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Estimate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchedulerBB(b *testing.B) {
	sim := optSim(b, workload.Summarization)
	s := NewScheduler(sim)
	s.MaxBatch = 256
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.FindBest([]sched.Policy{sched.RRA, sched.WAAC}, 10); err != nil {
			b.Fatal(err)
		}
	}
}
