package experiments

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"exegpt/internal/hw"
	"exegpt/internal/model"
	"exegpt/internal/sched"
	"exegpt/internal/workload"
)

func quick() *Context { return NewQuickContext() }

// TestSweepDeterministicAcrossWorkers runs the same small grid with one
// and four deployment workers (the four-worker run also exercising the
// shared profile memo concurrently) and requires identical rows and
// byte-identical encoded sweeps.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	grid := SweepGrid{
		Deployments: []sched.Deployment{
			{Model: model.OPT13B, Cluster: hw.A40Cluster, GPUs: 4},
		},
		Tasks: []workload.Task{workload.Summarization, workload.Translation},
	}

	encoded := func(workers int) (*SweepResult, []byte) {
		t.Helper()
		grid.Workers = workers
		res, err := quick().SweepAll(grid)
		if err != nil {
			t.Fatal(err)
		}
		data, err := res.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return res, data
	}
	seqRes, seqJSON := encoded(1)
	parRes, parJSON := encoded(4)
	seq, par := seqRes.Rows, parRes.Rows
	if len(seq) == 0 {
		t.Fatal("no rows")
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("sweep diverged across worker counts:\n seq %+v\n par %+v", seq, par)
	}
	if !bytes.Equal(seqJSON, parJSON) {
		t.Fatal("encoded sweep differs between 1 and 4 workers")
	}

	// Shape: every cell reports FT plus both ExeGPT policy groups, and
	// FT is feasible at its own derived bounds.
	systems := map[string]int{}
	for _, r := range seq {
		systems[r.System]++
		if r.System == "FT" && !r.Feasible {
			t.Errorf("%s/%s LB %v: FT infeasible at its own bound", r.Model, r.Task, r.Bound)
		}
	}
	for _, sys := range []string{"FT", "ExeGPT-RRA", "ExeGPT-WAA"} {
		if systems[sys] == 0 {
			t.Errorf("system %s missing from sweep", sys)
		}
	}
	if s := FormatSweep(seq); !strings.Contains(s, "ExeGPT-RRA") {
		t.Fatal("format broken")
	}
}

func TestStaticTablesRender(t *testing.T) {
	for name, s := range map[string]string{
		"table1": Table1(), "table2": Table2(), "table3": Table3(),
	} {
		if len(s) == 0 || !strings.Contains(s, "\n") {
			t.Errorf("%s: empty render", name)
		}
	}
	if !strings.Contains(Table1(), "GPT-3-175B") {
		t.Error("table 1 missing 175B row")
	}
	if !strings.Contains(Table2(), "A100") {
		t.Error("table 2 missing A100 cluster")
	}
	if !strings.Contains(Table3(), "Translation") {
		t.Error("table 3 missing translation task")
	}
}

// Figure 6 shape: ExeGPT's best policy beats FT on average, and no
// feasible ExeGPT run violates its bound (checked inside the scheduler).
func TestFigure6Shape(t *testing.T) {
	cells, err := quick().Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) == 0 {
		t.Fatal("no cells")
	}
	g := GeoMeanSpeedup(cells)
	if g < 1.2 {
		t.Fatalf("ExeGPT geo-mean speedup over FT = %.2fx; paper reports ~2x", g)
	}
	if MaxSpeedup(cells) < g {
		t.Fatal("max speedup below mean")
	}
	out := FormatThroughput("fig6", cells)
	if !strings.Contains(out, "ExeGPT vs FT") {
		t.Fatal("formatter missing summary line")
	}
}

// Figure 7 shape: FT leads DSI/ORCA/vLLM for every task and bound.
func TestFigure7Shape(t *testing.T) {
	cells, err := quick().Figure7()
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		task  string
		bound float64
	}
	best := map[key]string{}
	tput := map[key]float64{}
	for _, c := range cells {
		k := key{c.Task, c.Bound}
		if c.Feasible && c.Tput > tput[k] {
			tput[k] = c.Tput
			best[k] = c.System
		}
	}
	for k, sys := range best {
		if sys != "FasterTransformer" && sys != "DeepSpeed-Inference" {
			t.Errorf("%v: %s leads; paper has FT first (DSI close)", k, sys)
		}
	}
}

// Figure 8 shape: RRA-only comparison still beats FT on large models.
func TestFigure8Shape(t *testing.T) {
	cells, err := quick().Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if g := GeoMeanSpeedup(cells); g < 1.2 {
		t.Fatalf("large-model speedup %.2fx too low", g)
	}
	for _, c := range cells {
		if c.System == "ExeGPT-WAA" {
			t.Fatal("figure 8 must exclude WAA")
		}
	}
}

// Figure 9 shape: WAA uses more model memory and less KV than FT; the
// encoder/decoder split is reported.
func TestFigure9Shape(t *testing.T) {
	cells, err := quick().Figure9()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) == 0 {
		t.Fatal("no cells")
	}
	for _, c := range cells {
		if c.WAAPolicy == "" {
			continue // WAA infeasible for this task
		}
		waaModel := c.WAAEncWeights + c.WAADecWeights
		if waaModel <= c.FTWeights {
			t.Errorf("%s/%s: WAA model memory %d should exceed FT %d (two copies)",
				c.Model, c.Task, waaModel, c.FTWeights)
		}
		if c.EncGPUs < 1 || c.DecGPUs < 1 {
			t.Errorf("%s/%s: missing split", c.Model, c.Task)
		}
	}
	if s := FormatMemory(cells); !strings.Contains(s, "Split") {
		t.Fatal("format broken")
	}
}

// Figure 10 shape: gains on long-tailed real datasets exceed synthetic
// gains (diminishing-batch problem is worse, §7.5).
func TestFigure10Shape(t *testing.T) {
	cells, err := quick().Figure10()
	if err != nil {
		t.Fatal(err)
	}
	if g := GeoMeanSpeedup(cells); g < 1.5 {
		t.Fatalf("real-dataset speedup %.2fx; paper reports ~4.4x average", g)
	}
}

// Figure 11 shape: when the average output length grows, the stale
// schedule violates the latency bound; when it shrinks, the re-optimized
// schedule wins while meeting the bound.
func TestFigure11Shape(t *testing.T) {
	cells, err := quick().Figure11()
	if err != nil {
		t.Fatal(err)
	}
	var sawGrow, sawShrink bool
	for _, c := range cells {
		if c.Dimension != "avg" {
			continue
		}
		if c.Value > 1 {
			sawGrow = true
			if c.P99LatencyNorm <= 1 {
				t.Errorf("avg x%.2f: p99 should rise, got %.2f", c.Value, c.P99LatencyNorm)
			}
		}
		if c.Value < 1 {
			sawShrink = true
			if c.P99LatencyNorm >= 1 {
				t.Errorf("avg x%.2f: p99 should drop, got %.2f", c.Value, c.P99LatencyNorm)
			}
			if c.OptimalTput < c.NonAdjustedTput*0.9 {
				t.Errorf("avg x%.2f: re-optimized schedule %.2f should not trail stale %.2f",
					c.Value, c.OptimalTput, c.NonAdjustedTput)
			}
		}
	}
	if !sawGrow || !sawShrink {
		t.Fatal("missing avg variants")
	}
	if s := FormatShift(cells); !strings.Contains(s, "avg") {
		t.Fatal("format broken")
	}
}

// Table 4 shape: larger models load slower; DRAM beats SSD everywhere.
func TestTable4Shape(t *testing.T) {
	rows := Table4()
	if len(rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(rows))
	}
	for i, r := range rows {
		if r.FromDRAM >= r.FromSSD {
			t.Errorf("%s: DRAM %.1f not faster than SSD %.1f", r.Model, r.FromDRAM, r.FromSSD)
		}
		if i > 0 && r.FromSSD <= rows[i-1].FromSSD {
			t.Errorf("SSD load times not increasing at %s", r.Model)
		}
	}
	if s := FormatTable4(rows); !strings.Contains(s, "GPT-3-341B") {
		t.Fatal("format broken")
	}
}

// Table 5 shape: the control variables are overwhelmingly monotone at
// 5% tolerance.
func TestTable5Shape(t *testing.T) {
	rows, err := quick().Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		for key, v := range r.Cells {
			if v[0] > 30 || v[1] > 30 {
				t.Errorf("%s tol %.0f%% %s: violations (%.1f, %.1f) too high",
					r.Task, r.Tolerance*100, key, v[0], v[1])
			}
		}
	}
	if s := FormatTable5(rows); !strings.Contains(s, "non-monotonic") {
		t.Fatal("format broken")
	}
}

// Table 6 shape: throughput is nondecreasing as the bound relaxes and
// every selected schedule satisfies its bound.
func TestTable6Shape(t *testing.T) {
	rows, err := quick().Table6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("want 4 bounds, got %d", len(rows))
	}
	prev := 0.0
	for _, r := range rows {
		if r.Schedule == "NS" {
			continue
		}
		if !math.IsInf(r.Bound, 1) && r.Latency >= r.Bound {
			t.Errorf("bound %.1f: selected latency %.2f violates", r.Bound, r.Latency)
		}
		if r.Tput < prev*0.97 {
			t.Errorf("throughput fell as bound relaxed: %.2f after %.2f", r.Tput, prev)
		}
		prev = r.Tput
	}
	if s := FormatTable6(rows); !strings.Contains(s, "Selected Schedule") {
		t.Fatal("format broken")
	}
}

// Table 7 shape: decoder variance is far smaller than encoder variance.
func TestTable7Shape(t *testing.T) {
	rows, err := quick().Table7()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		encRel := r.EncRange / math.Max(r.EncMean, 1e-12)
		decRel := r.DecRange / math.Max(r.DecMean, 1e-12)
		if decRel > 0.30 {
			t.Errorf("%s: decoder relative range %.1f%% too large", r.Schedule, decRel*100)
		}
		if decRel > encRel*2 {
			t.Errorf("%s: decoder spread %.3f should not dwarf encoder %.3f", r.Schedule, decRel, encRel)
		}
	}
	if s := FormatTable7(rows); !strings.Contains(s, "Decoder") {
		t.Fatal("format broken")
	}
}

// §7.7: branch-and-bound evaluates far fewer points than exhaustive
// search at near-equal quality.
func TestSchedulingCostShape(t *testing.T) {
	rows, err := quick().SchedulingCost()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.BBEvals >= r.ExEvals {
			t.Errorf("%s: B&B %d evals not fewer than exhaustive %d", r.Policy, r.BBEvals, r.ExEvals)
		}
		if r.Quality < 0.90 {
			t.Errorf("%s: B&B quality %.3f below 0.90", r.Policy, r.Quality)
		}
	}
	if s := FormatSchedulingCost(rows); !strings.Contains(s, "B&B") {
		t.Fatal("format broken")
	}
}

// TestQuickSweepT511BConvQA2 pins the cell that used to fail the full
// default grid under -quick: the FT baseline's nominal batch for
// (T5-11B, C2) is sized from the task's mean input length, but a run of
// above-mean inputs overflows the KV reservation at that size. The
// fixed-batch runner now cuts each batch at the largest feasible size
// instead of erroring, so this cell must sweep cleanly with a feasible
// FT row at every bound.
func TestQuickSweepT511BConvQA2(t *testing.T) {
	dep, err := sched.DeploymentFor("T5-11B")
	if err != nil {
		t.Fatal(err)
	}
	grid := SweepGrid{
		Deployments: []sched.Deployment{dep},
		Tasks:       []workload.Task{workload.ConvQA2},
	}
	rows, err := quick().Sweep(grid)
	if err != nil {
		t.Fatalf("(T5-11B, C2) quick sweep regressed: %v", err)
	}
	ft := 0
	for _, r := range rows {
		if r.System != "FT" {
			continue
		}
		ft++
		if !r.Feasible || r.Tput <= 0 {
			t.Errorf("FT infeasible at bound %v on (T5-11B, C2)", r.Bound)
		}
	}
	if ft == 0 {
		t.Fatal("no FT rows in the (T5-11B, C2) sweep")
	}
}
