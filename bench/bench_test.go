package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"testing"

	"exegpt/internal/serve"
)

func setRoot(t *testing.T) benchSpec {
	t.Helper()
	var err error
	if root, err = findRoot(); err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloadsEmitDeclaredMetrics runs every workload at toy size,
// plain and traced, and requires each metric BENCHMARK.json declares
// for that kind of run, with its unit, and every output check to pass.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	spec := setRoot(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(config{workload: name, seed: 7, trace: traced, toy: true,
				minPasses: 1, setupReps: 1, probeReps: 1}, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failures %v", name, traced, res.Correct, res.Attempted, res.Failures)
			}
			for _, m := range spec.declared(traced) {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) {
					t.Errorf("%s traced=%t: metric %s = %+v, want unit %s", name, traced, m.Name, got, m.Unit)
				}
			}
			if _, _, err := summaryLine([]*result{res}, spec); err != nil {
				t.Errorf("%s traced=%t: %v", name, traced, err)
			}
		}
	}
}

// TestSpecAgreesWithCode checks BENCHMARK.json's shape and that no
// workload-only metric repeats a declared one.
func TestSpecAgreesWithCode(t *testing.T) {
	spec := setRoot(t)
	seen := map[string]bool{}
	for _, set := range [][]specMetric{spec.EndToEnd, spec.PerLayer, workloadMetrics} {
		for _, m := range set {
			if seen[m.Name] {
				t.Errorf("metric %s declared twice", m.Name)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %s: better %q", m.Name, m.Better)
			}
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v", m.Name, m.Bound)
		}
	}
}

// TestSelfTimes checks the self-time arithmetic on a hand-built tree:
// overlapping children count once, a child sticking out of its parent is
// clipped, and self times sum to the root's duration.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.cell", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.find_best_many", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "runner.run", Start: 30, End: 60},
		{ID: 4, Parent: 3, Name: "kvcache.compact", Start: 50, End: 70},
		{ID: 5, Parent: 1, Name: "baselines.run", Start: 80, End: 90},
	}
	b := layerBreakdown(spans, 100, 1)
	want := map[int]int64{1: 40, 2: 30, 3: 20, 4: 20, 5: 10}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %d self %d, want %d", s.ID, s.Self, want[s.ID])
		}
	}
	if b.roots != 100 || b.self["bench"] != 40 || b.self["runner"] != 20 || b.self["kvcache"] != 20 {
		t.Errorf("breakdown %+v", b)
	}
}

// TestReplicaMatchesSweep requires the traced sweep replica to produce
// rows byte-identical to Context.Sweep.
func TestReplicaMatchesSweep(t *testing.T) {
	w, err := newSweepPaper(42, true)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	rows, q, _, err := w.replica(tr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := w.context().Sweep(w.grid)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(rows)
	b, _ := json.Marshal(want)
	if !bytes.Equal(a, b) || len(rows) == 0 {
		t.Fatalf("replica rows differ from Context.Sweep:\n%s\n%s", a, b)
	}
	if q.selections == 0 || len(tr.spans) == 0 {
		t.Fatalf("replica recorded %d selections, %d spans", q.selections, len(tr.spans))
	}
}

// TestOpenReplayMatchesServe drives runner.OpenRun directly with a
// rung's arrivals and initial schedule and requires serve.Run's totals
// on a rung with no switch.
func TestOpenReplayMatchesServe(t *testing.T) {
	setRoot(t)
	w := newServeLadder(42, true)
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	r := w.rungs[0]
	base := w.bases[r.task.ID]
	d, err := base.Redeploy(base.In, base.Out)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := serve.Run(d, w.options(r))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Totals.Switches != 0 {
		t.Fatalf("rung %s switched; pick a steady rung", r.name())
	}
	init, err := initialSchedule(base, rep, w.options(r))
	if err != nil {
		t.Fatal(err)
	}
	got, err := openReplay(base, init, w.options(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.Completed != rep.Totals.Completed || got.P99Lat != rep.Totals.P99Lat || got.Completed == 0 {
		t.Fatalf("replay completed %d p99 %v; serve.Run %d %v", got.Completed, got.P99Lat, rep.Totals.Completed, rep.Totals.P99Lat)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestCompareVerdicts checks the verdict rule on hand-built runs.
func TestCompareVerdicts(t *testing.T) {
	runs := func(vals ...float64) []*result {
		var rs []*result
		for i, v := range vals {
			rs = append(rs, &result{Seed: int64(i), Metrics: map[string]metric{"wall_s": {Value: v, Unit: "s"}}})
		}
		return rs
	}
	def := specMetric{Name: "wall_s", Unit: "s", Better: "lower", Bound: bound(0.10)}
	base := runs(10, 10.1, 9.9, 10.05, 9.95, 10, 10.1, 9.9, 10, 10)
	for _, c := range []struct {
		b    []*result
		want string
	}{
		{runs(8, 8.1, 7.9, 8, 8, 8, 8.1, 7.9, 8, 8), "improved"},
		{runs(12, 12, 12, 12, 12, 12, 12, 12, 12, 12), "worse"},
		{runs(10, 10.1, 9.9, 10.05, 9.95, 10, 10.1, 9.9, 10, 10), "unchanged"},
		{runs(10.2, 10, 9.8, 10.1, 10, 9.9, 10, 10, 10.1, 9.9), "unchanged"},
	} {
		if got := compareMetric(base, c.b, "wall_s", def).verdict; got != c.want {
			t.Errorf("verdict %q, want %q", got, c.want)
		}
	}
	det := specMetric{Name: "wall_s", Unit: "s", Better: "lower", Bound: bound(0)}
	if got := compareMetric(base, runs(10, 10.1, 9.9, 10.05, 9.95, 10, 10.1, 9.9, 10, 10.01), "wall_s", det).verdict; got != "worse" {
		t.Errorf("one changed simulated outcome: verdict %q, want worse", got)
	}
	other := runs(10, 10)
	for _, r := range other {
		r.Seed += 100
	}
	if got := compareMetric(base, other, "wall_s", det).verdict; got != "unpaired" {
		t.Errorf("no pairs: verdict %q, want unpaired", got)
	}
	noisy := runs(5, 15, 8, 12, 10, 6, 14, 9, 11, 10)
	if got := compareMetric(noisy, runs(10, 10, 10, 10, 10, 10, 10, 10, 10, 10), "wall_s", def).verdict; got != "unresolved" {
		t.Errorf("noisy baseline: verdict %q, want unresolved", got)
	}
}
