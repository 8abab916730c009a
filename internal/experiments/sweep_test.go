package experiments

import (
	"math"
	"reflect"
	"testing"

	"exegpt/internal/core"
	"exegpt/internal/sched"
)

// fakeCell builds a synthetic cell result whose contents are a function
// of the cell index, so fold-order mistakes show up as value mismatches.
func fakeCell(idx int) CellResult {
	bound := 5.0 + float64(idx)
	if idx%3 == 1 {
		bound = math.Inf(1) // the relaxed bound, which JSON must survive
	}
	return CellResult{
		Rows: []SweepRow{{
			Model: "OPT-13B", Cluster: "A40", GPUs: 4, Task: "S",
			Bound: bound, System: "FT", Tput: 1.5 * float64(idx+1), Feasible: true,
		}},
		Evals: 10 * (idx + 1),
	}
}

// TestMergeHappyPath: folding grid-ordered cells gives one row per cell
// in grid order and sums their evals.
func TestMergeHappyPath(t *testing.T) {
	const nCells = 7
	cells := make([]CellResult, nCells)
	for i := range cells {
		cells[i] = fakeCell(i)
	}
	got := fold("fp", cells)
	if got.Fingerprint != "fp" || got.Cells != nCells || len(got.Rows) != nCells || got.Evals != 10*nCells*(nCells+1)/2 {
		t.Fatalf("fold shape: fingerprint %q, %d cells, %d rows, %d evals",
			got.Fingerprint, got.Cells, len(got.Rows), got.Evals)
	}
	for i, r := range got.Rows {
		if r.Tput != 1.5*float64(i+1) {
			t.Fatalf("row %d out of grid order: %+v", i, r)
		}
	}
	if _, err := got.Encode(); err != nil {
		t.Fatalf("encode with an infinite bound: %v", err)
	}
}

// frontierEst builds a feasible estimate for frontier-merge tests.
func frontierEst(lat, tput float64, bd int) *core.Estimate {
	return &core.Estimate{
		Config:   sched.Config{Policy: sched.RRA, BD: bd, BE: 1, ND: 1, Bm: 1, TP: sched.TPSpec{Degree: 1}},
		Feasible: true, Latency: lat, Throughput: tput,
	}
}

// TestMergeFoldsDeploymentFrontiers: per-cell frontiers for the same
// (deployment, group) fold into one cross-task frontier, whichever cell
// comes first.
func TestMergeFoldsDeploymentFrontiers(t *testing.T) {
	gf := func(task string, ests ...*core.Estimate) GroupFrontier {
		g := GroupFrontier{
			Model: "OPT-13B", Cluster: "A40", GPUs: 4, Task: task, Group: "ExeGPT-RRA",
		}
		for _, e := range ests {
			g.Frontier.Add(e)
		}
		return g
	}
	c0 := fakeCell(0)
	c0.Frontiers = []GroupFrontier{gf("S", frontierEst(1, 2, 1), frontierEst(3, 6, 3))}
	c1 := fakeCell(1)
	c1.Frontiers = []GroupFrontier{gf("T", frontierEst(2, 4, 2), frontierEst(4, 5, 4))}

	var want core.Frontier
	for _, e := range []*core.Estimate{
		frontierEst(1, 2, 1), frontierEst(3, 6, 3), frontierEst(2, 4, 2), frontierEst(4, 5, 4),
	} {
		want.Add(e)
	}

	for _, cells := range [][]CellResult{{c0, c1}, {c1, c0}} {
		m := fold("fp", cells)
		if len(m.Frontiers) != 1 {
			t.Fatalf("want 1 merged deployment frontier, got %d", len(m.Frontiers))
		}
		df := m.Frontiers[0]
		if df.Model != "OPT-13B" || df.Group != "ExeGPT-RRA" || df.GPUs != 4 {
			t.Fatalf("frontier key wrong: %+v", df)
		}
		if !reflect.DeepEqual(df.Frontier, want) {
			t.Fatalf("merged frontier != union of cell frontiers\n got %+v\nwant %+v", df.Frontier, want)
		}
	}
}
