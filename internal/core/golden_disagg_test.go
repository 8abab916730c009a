// Golden rows for the disaggregated prefill/decode family. The family
// is skeletal, but its estimates are pinned bit for bit like RRA's and
// WAA's so the estimator registry cannot drift silently. Regenerate
// with UPDATE_GOLDEN=1 after an intentional model change.
package core

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"

	"exegpt/internal/sched"
)

const goldenDisaggPath = "testdata/golden_disagg.json"

// disaggGoldenGrid enumerates the pinned configs per deployment: a
// small BE x Bm grid plus one deliberately infeasible point (Bm = 0
// fails validation upstream, so the infeasible row uses an oversized
// TP request that the allocator rejects).
func disaggGoldenGrid() map[string][]sched.Config {
	grid := func(tpGPUs int) []sched.Config {
		var cfgs []sched.Config
		for _, be := range []int{1, 4, 16} {
			for _, bm := range []int{1, 2} {
				cfgs = append(cfgs, sched.Config{
					Policy: sched.Disagg, BE: be, BD: 1, Bm: bm,
					TP: sched.TPSpec{Degree: 1, GPUs: 0},
				})
			}
		}
		// Infeasible: a TP pool spanning every GPU leaves no room for
		// the prefill pool, so the branch admits but allocation fails.
		cfgs = append(cfgs, sched.Config{
			Policy: sched.Disagg, BE: 8, BD: 1, Bm: 1,
			TP: sched.TPSpec{Degree: 2, GPUs: tpGPUs},
		})
		return cfgs
	}
	return map[string][]sched.Config{
		"OPT-13B/4xA40/S":      grid(4),
		"GPT3-39B/16xA40/T":    grid(16),
		"T5-11B/8xA40/G":       grid(8),
		"GPT3-175B/16xA100/C1": grid(16),
	}
}

func loadGoldenDisagg(t testing.TB) []goldenCase {
	t.Helper()
	data, err := os.ReadFile(goldenDisaggPath)
	if err != nil {
		t.Fatal(err)
	}
	var cases []goldenCase
	if err := json.Unmarshal(data, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("no golden disagg cases")
	}
	return cases
}

// TestGoldenDisagg pins the disagg family's estimate to the committed
// rows, on a fresh Evaluator per config and on one warm Evaluator per
// deployment. With UPDATE_GOLDEN=1 it first rewrites the rows through
// fresh Evaluators.
func TestGoldenDisagg(t *testing.T) {
	sims := goldenSims(t)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		writeGoldenDisagg(t, sims)
	}
	evs := map[string]*Evaluator{}
	for name, sim := range sims {
		evs[name] = NewEvaluator(sim)
	}
	for _, g := range loadGoldenDisagg(t) {
		sim, ok := sims[g.Deployment]
		if !ok {
			t.Fatalf("unknown golden deployment %q", g.Deployment)
		}
		cold, err := NewEvaluator(sim).Estimate(g.config())
		if err != nil {
			t.Fatalf("%s %+v: fresh evaluator: %v", g.Deployment, g.config(), err)
		}
		checkGolden(t, "fresh", g, cold)
		warm, err := evs[g.Deployment].Estimate(g.config())
		if err != nil {
			t.Fatalf("%s %+v: warm evaluator: %v", g.Deployment, g.config(), err)
		}
		checkGolden(t, "warm", g, warm)
	}
}

// writeGoldenDisagg regenerates the committed rows through a fresh
// Evaluator per config.
func writeGoldenDisagg(t *testing.T, sims map[string]*Simulator) {
	t.Helper()
	var names []string
	for name := range sims {
		names = append(names, name)
	}
	sort.Strings(names)
	var cases []goldenCase
	for _, name := range names {
		sim := sims[name]
		for _, cfg := range disaggGoldenGrid()[name] {
			est, err := NewEvaluator(sim).Estimate(cfg)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, cfg, err)
			}
			cases = append(cases, goldenCase{
				Deployment: name, Policy: int(cfg.Policy),
				BE: cfg.BE, BD: cfg.BD, Bm: cfg.Bm, ND: cfg.ND,
				TPDegree: cfg.TP.Degree, TPGPUs: cfg.TP.GPUs,
				Feasible: est.Feasible, Reason: est.Reason,
				Throughput: math.Float64bits(est.Throughput),
				Latency:    math.Float64bits(est.Latency),
				EncTime:    math.Float64bits(est.EncTime),
				DecIter:    math.Float64bits(est.DecIterTime),
				Cycle:      math.Float64bits(est.CycleTime),
				PeakEnc:    est.PeakEncMem, PeakDec: est.PeakDecMem,
				OutBE: est.Config.BE, OutBD: est.Config.BD,
				EncGPUs: est.Alloc.EncGPUs, DecGPUs: est.Alloc.DecGPUs,
				Stages: len(est.Alloc.Stages),
			})
		}
	}
	data, err := json.MarshalIndent(cases, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenDisaggPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
