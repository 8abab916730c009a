// Golden, warm-versus-fresh and concurrency tests for the Evaluator.
// The golden data predates the Evaluator, so these tests pin the
// estimate's values bit for bit.
package core

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sync"
	"testing"

	"exegpt/internal/hw"
	"exegpt/internal/model"
	"exegpt/internal/sched"
	"exegpt/internal/workload"
)

// goldenCase mirrors tmp_golden's dump schema: one config's estimate
// with float fields as IEEE-754 bit patterns.
type goldenCase struct {
	Deployment string `json:"deployment"`
	Policy     int    `json:"policy"`
	BE         int    `json:"be"`
	BD         int    `json:"bd"`
	Bm         int    `json:"bm"`
	ND         int    `json:"nd"`
	TPDegree   int    `json:"tp_degree"`
	TPGPUs     int    `json:"tp_gpus"`

	Feasible   bool   `json:"feasible"`
	Reason     string `json:"reason,omitempty"`
	Throughput uint64 `json:"tput_bits"`
	Latency    uint64 `json:"lat_bits"`
	EncTime    uint64 `json:"enc_bits"`
	DecIter    uint64 `json:"dec_iter_bits"`
	Cycle      uint64 `json:"cycle_bits"`
	PeakEnc    int64  `json:"peak_enc"`
	PeakDec    int64  `json:"peak_dec"`
	OutBE      int    `json:"out_be"`
	OutBD      int    `json:"out_bd"`
	EncGPUs    int    `json:"enc_gpus"`
	DecGPUs    int    `json:"dec_gpus"`
	Stages     int    `json:"stages"`
}

func (g goldenCase) config() sched.Config {
	return sched.Config{
		Policy: sched.Policy(g.Policy), BE: g.BE, BD: g.BD, Bm: g.Bm, ND: g.ND,
		TP: sched.TPSpec{Degree: g.TPDegree, GPUs: g.TPGPUs},
	}
}

// goldenDeployment is one deployment and task of the golden dump,
// under the dump's label.
type goldenDeployment struct {
	label   string
	model   model.Model
	gpus    int
	cluster hw.Cluster
	task    workload.Task
}

var goldenDeployments = []goldenDeployment{
	{"OPT-13B/4xA40/S", model.OPT13B, 4, hw.A40Cluster, workload.Summarization},
	{"GPT3-39B/16xA40/T", model.GPT339B, 16, hw.A40Cluster, workload.Translation},
	{"T5-11B/8xA40/G", model.T511B, 8, hw.A40Cluster, workload.CodeGeneration},
	{"GPT3-175B/16xA100/C1", model.GPT3175B, 16, hw.A100Cluster, workload.ConvQA1},
}

// goldenSims builds the simulators the golden dump used, keyed by its
// deployment labels.
func goldenSims(t testing.TB) map[string]*Simulator {
	t.Helper()
	sims := map[string]*Simulator{}
	for _, g := range goldenDeployments {
		sims[g.label] = newSim(t, g.model, g.gpus, g.cluster, g.task)
	}
	return sims
}

func loadGolden(t testing.TB) []goldenCase {
	t.Helper()
	data, err := os.ReadFile("testdata/golden_estimates.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []goldenCase
	if err := json.Unmarshal(data, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("no golden cases")
	}
	return cases
}

// checkGolden compares one estimate against its golden record bit for
// bit.
func checkGolden(t *testing.T, path string, g goldenCase, est Estimate) {
	t.Helper()
	fail := func(field string, got, want any) {
		t.Fatalf("%s %s %+v: %s = %v, want %v", path, g.Deployment, g.config(), field, got, want)
	}
	if est.Feasible != g.Feasible {
		fail("Feasible", est.Feasible, g.Feasible)
	}
	if est.Reason != g.Reason {
		fail("Reason", est.Reason, g.Reason)
	}
	if b := math.Float64bits(est.Throughput); b != g.Throughput {
		fail("Throughput bits", b, g.Throughput)
	}
	if b := math.Float64bits(est.Latency); b != g.Latency {
		fail("Latency bits", b, g.Latency)
	}
	if b := math.Float64bits(est.EncTime); b != g.EncTime {
		fail("EncTime bits", b, g.EncTime)
	}
	if b := math.Float64bits(est.DecIterTime); b != g.DecIter {
		fail("DecIterTime bits", b, g.DecIter)
	}
	if b := math.Float64bits(est.CycleTime); b != g.Cycle {
		fail("CycleTime bits", b, g.Cycle)
	}
	if est.PeakEncMem != g.PeakEnc || est.PeakDecMem != g.PeakDec {
		fail("peak mem", [2]int64{est.PeakEncMem, est.PeakDecMem}, [2]int64{g.PeakEnc, g.PeakDec})
	}
	if est.Config.BE != g.OutBE || est.Config.BD != g.OutBD {
		fail("derived batch", [2]int{est.Config.BE, est.Config.BD}, [2]int{g.OutBE, g.OutBD})
	}
	if est.Alloc.EncGPUs != g.EncGPUs || est.Alloc.DecGPUs != g.DecGPUs {
		fail("alloc split", [2]int{est.Alloc.EncGPUs, est.Alloc.DecGPUs}, [2]int{g.EncGPUs, g.DecGPUs})
	}
	if len(est.Alloc.Stages) != g.Stages {
		fail("stage count", len(est.Alloc.Stages), g.Stages)
	}
}

// TestGoldenEstimates pins the estimate to the committed golden rows,
// bit for bit, across all three policies and four deployments, on a
// fresh Evaluator per config (every lookup direct) and on one warm
// Evaluator per deployment (memo hits).
func TestGoldenEstimates(t *testing.T) {
	sims := goldenSims(t)
	evs := map[string]*Evaluator{}
	for name, sim := range sims {
		evs[name] = NewEvaluator(sim)
	}
	for _, g := range loadGolden(t) {
		sim := sims[g.Deployment]
		if sim == nil {
			t.Fatalf("unknown golden deployment %q", g.Deployment)
		}
		cold, err := NewEvaluator(sim).Estimate(g.config())
		if err != nil {
			t.Fatalf("%s %+v: %v", g.Deployment, g.config(), err)
		}
		checkGolden(t, "fresh", g, cold)
		warm, err := evs[g.Deployment].Estimate(g.config())
		if err != nil {
			t.Fatalf("%s %+v: %v", g.Deployment, g.config(), err)
		}
		checkGolden(t, "warm", g, warm)
	}
}

// TestEvaluatorMatchesSlowPathExactly asserts reflect.DeepEqual between
// a warm Evaluator and a fresh one per config on every golden config,
// including the full Allocation, plus the GPT3-39B WAA-C TP 4x8 configs
// whose decode pool has a TP group spanning both nodes (the golden has
// no TP 4x8 WAA rows): memo state must never leak into results.
func TestEvaluatorMatchesSlowPathExactly(t *testing.T) {
	sims := goldenSims(t)
	cases := loadGolden(t)
	for _, bm := range []int{1, 3} {
		cases = append(cases, goldenCase{Deployment: "GPT3-39B/16xA40/T", Policy: int(sched.WAAC),
			BE: 1, BD: 1, Bm: bm, TPDegree: 4, TPGPUs: 8})
	}
	for name, sim := range sims {
		ev := NewEvaluator(sim)
		for _, g := range cases {
			if g.Deployment != name {
				continue
			}
			cfg := g.config()
			cold, err := NewEvaluator(sim).Estimate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := ev.Estimate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cold, warm) {
				t.Fatalf("%s %+v: warm evaluator diverged\n fresh %+v\n warm  %+v", name, cfg, cold, warm)
			}
		}
	}
}

// TestFindBestMemoMatchesReference: the whole search must return an
// identical Result (including Evals) whether probes run through the
// warm per-worker Evaluators or a fresh Evaluator per probe.
func TestFindBestMemoMatchesReference(t *testing.T) {
	for _, bound := range []float64{5, 20, math.Inf(1)} {
		fast := detScheduler(t, 2)
		ref := detScheduler(t, 2)
		ref.disableMemo = true
		fres, err := fast.FindBest(allPolicies, bound)
		if err != nil {
			t.Fatal(err)
		}
		rres, err := ref.FindBest(allPolicies, bound)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fres, rres) {
			t.Fatalf("bound %v: memoized search diverged from fresh-per-probe search\n fast %+v\n ref  %+v", bound, fres, rres)
		}
	}
}

// TestEvaluatorsShareSimulatorRace hammers one shared Simulator from 8
// goroutines, each with its own Evaluator and Scheduler, exercising the
// read-only sharing contract under -race.
func TestEvaluatorsShareSimulatorRace(t *testing.T) {
	sim := optSim(t, workload.Summarization)
	cfgs := []sched.Config{
		{Policy: sched.RRA, BD: 64, BE: 1, ND: 8, TP: sched.TPSpec{Degree: 1}},
		{Policy: sched.RRA, BD: 512, BE: 1, ND: 32, TP: sched.TPSpec{Degree: 2, GPUs: 4}},
		{Policy: sched.WAAC, BE: 4, BD: 1, Bm: 2, TP: sched.TPSpec{Degree: 1}},
		{Policy: sched.WAAM, BE: 16, BD: 1, Bm: 4, TP: sched.TPSpec{Degree: 2, GPUs: 2}},
	}
	var want []Estimate
	for _, cfg := range cfgs {
		est, err := NewEvaluator(sim).Estimate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, est)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ev := NewEvaluator(sim)
			for rep := 0; rep < 50; rep++ {
				for c, cfg := range cfgs {
					est, err := ev.Estimate(cfg)
					if err != nil {
						errs[g] = err
						return
					}
					if !reflect.DeepEqual(est, want[c]) {
						errs[g] = errMismatch
						return
					}
				}
			}
			// A private Scheduler per goroutine over the shared Simulator.
			s := NewScheduler(sim)
			s.MaxBatch = 128
			s.Workers = 2
			if _, err := s.FindBest(allPolicies, 20); err != nil {
				errs[g] = err
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// TestEvaluatorWarmEstimateAllocs pins the zero-allocation steady
// state: once a fixed set of RRA and WAA configs has been estimated,
// estimating them again allocates nothing, both through the whole-result
// memo and with it bypassed (allocation entries and composites only).
func TestEvaluatorWarmEstimateAllocs(t *testing.T) {
	sim := newSim(t, model.GPT339B, 16, hw.A40Cluster, workload.Translation)
	cfgs := []sched.Config{
		{Policy: sched.RRA, BD: 64, BE: 1, ND: 8, TP: sched.TPSpec{Degree: 1}},
		{Policy: sched.RRA, BD: 512, BE: 1, ND: 32, TP: sched.TPSpec{Degree: 2, GPUs: 8}},
		{Policy: sched.WAAC, BE: 2, BD: 1, Bm: 2, TP: sched.TPSpec{Degree: 1}},
		{Policy: sched.WAAM, BE: 3, BD: 1, Bm: 4, TP: sched.TPSpec{Degree: 2, GPUs: 4}},
		{Policy: sched.WAAC, BE: 1, BD: 1, Bm: 3, TP: sched.TPSpec{Degree: 4, GPUs: 8}},
	}
	ev := NewEvaluator(sim)
	for _, cfg := range cfgs {
		est, err := ev.Estimate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !est.Feasible {
			t.Fatalf("%+v infeasible (%s); the guard needs feasible configs", cfg, est.Reason)
		}
	}
	for _, path := range []struct {
		name string
		est  func(sched.Config) (Estimate, error)
	}{{"Estimate", ev.Estimate}, {"estimate (no result memo)", ev.estimate}} {
		allocs := testing.AllocsPerRun(20, func() {
			for _, cfg := range cfgs {
				if _, err := path.est(cfg); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: %v allocations re-estimating %d warm configs, want 0", path.name, allocs, len(cfgs))
		}
	}
}

// TestFindBestWarmAllocs pins the search loop's share of the
// zero-allocations-per-probe steady state: on BenchmarkFindBestEvaluator's
// deployment, a search whose probes all hit the warm whole-result memo
// allocates only per search, branch and block (states, axes, queues,
// deferred lists, each point's one frontier join), never per probe: 256
// allocations for its 736 probes. A probe result, block or frontier
// point that is copied into fresh memory again shows up here as dozens
// to hundreds more.
func TestFindBestWarmAllocs(t *testing.T) {
	const maxAllocs = 256
	s := detScheduler(t, 1)
	bounds := []float64{20}
	if _, err := s.FindBestMany(allPolicies, bounds); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := s.FindBestMany(allPolicies, bounds); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm FindBestMany: %v allocations for %d probes", allocs, s.Evals)
	if allocs > maxAllocs {
		t.Fatalf("warm FindBestMany: %v allocations, want <= %d (%d probes)", allocs, maxAllocs, s.Evals)
	}
}

var errMismatch = errSentinel("estimate mismatch across goroutines")

type errSentinel string

func (e errSentinel) Error() string { return string(e) }

func benchEstimate(b *testing.B, est func(sched.Config) (Estimate, error)) {
	cfgs := []sched.Config{
		{Policy: sched.RRA, BD: 64, BE: 1, ND: 8, TP: sched.TPSpec{Degree: 1}},
		{Policy: sched.RRA, BD: 512, BE: 1, ND: 32, TP: sched.TPSpec{Degree: 1}},
		{Policy: sched.RRA, BD: 2048, BE: 1, ND: 64, TP: sched.TPSpec{Degree: 2, GPUs: 4}},
		{Policy: sched.WAAC, BE: 8, BD: 1, Bm: 2, TP: sched.TPSpec{Degree: 1}},
		{Policy: sched.WAAM, BE: 32, BD: 1, Bm: 4, TP: sched.TPSpec{Degree: 1}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est(cfgs[i%len(cfgs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateEvaluator times warm single estimates on a config
// mix.
func BenchmarkEstimateEvaluator(b *testing.B) {
	sim := optSim(b, workload.Summarization)
	ev := NewEvaluator(sim)
	benchEstimate(b, ev.Estimate)
}

// BenchmarkFindBestReference / BenchmarkFindBestEvaluator /
// BenchmarkFindBestEvaluatorCold compare the full Workers=1 search with
// a fresh Evaluator per probe, on warm per-worker Evaluators (memos
// persist across searches, as in a sweep), and on Evaluators dropped
// before every search (one from-scratch search).
func benchFindBestPath(b *testing.B, disableMemo, cold bool) {
	s := detScheduler(b, 1)
	s.disableMemo = disableMemo
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cold {
			s.evs = nil
		}
		if _, err := s.FindBest(allPolicies, 20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFindBestReference(b *testing.B) { benchFindBestPath(b, true, false) }

func BenchmarkFindBestEvaluator(b *testing.B) { benchFindBestPath(b, false, false) }

func BenchmarkFindBestEvaluatorCold(b *testing.B) { benchFindBestPath(b, false, true) }

// TestEvaluatorErrorsMatchSimulator: on a table that lacks a TP degree
// the configs use, a warm Evaluator fails with a fresh Evaluator's
// error, not with an infeasible estimate, and it still matches the
// fresh one on the profiled degree. WAA applies TP to its decode pool
// only, so a WAA config at the missing degree fails first in the decode
// pricer's build.
func TestEvaluatorErrorsMatchSimulator(t *testing.T) {
	full := optSim(t, workload.Summarization)
	tab := *full.Profile
	tab.TPDegrees = tab.TPDegrees[:1]
	tab.EncRest, tab.EncAttn = tab.EncRest[:1], tab.EncAttn[:1]
	tab.DecRest, tab.DecAttn = tab.DecRest[:1], tab.DecAttn[:1]
	tab.AllReduce = tab.AllReduce[:1]
	sim, err := NewSimulator(full.Model, full.Cluster, &tab, full.in, full.out)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(sim)
	failed := 0
	for _, tp := range []sched.TPSpec{{Degree: 1}, {Degree: 2, GPUs: 2}, {Degree: 2, GPUs: 4}} {
		for _, cfg := range []sched.Config{
			{Policy: sched.RRA, BD: 64, BE: 1, ND: 8, TP: tp},
			{Policy: sched.WAAC, BE: 8, BD: 1, Bm: 2, TP: tp},
			{Policy: sched.WAAM, BE: 32, BD: 1, Bm: 4, TP: tp},
		} {
			want, werr := NewEvaluator(sim).Estimate(cfg)
			got, err := ev.Estimate(cfg)
			if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
				t.Fatalf("%v: warm Evaluator error %v, fresh Evaluator error %v", cfg, err, werr)
			}
			if err != nil {
				failed++
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: warm Evaluator %+v, fresh Evaluator %+v", cfg, got, want)
			}
		}
	}
	if failed == 0 {
		t.Fatal("no config hit the unprofiled TP degree")
	}
}
