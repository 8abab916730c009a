// Table regenerators (Tables 1-7).
package experiments

import (
	"fmt"
	"math"

	"exegpt/internal/hw"
	"exegpt/internal/model"
	"exegpt/internal/sched"
	"exegpt/internal/workload"
)

// Table1 renders the evaluated models and configurations.
func Table1() string {
	t := newTable("Model", "# Params", "# Layers", "Hidden Size", "# Atten. Head")
	for _, m := range model.All {
		t.addRow(m.Name,
			fmt.Sprintf("%.0fB", float64(m.Params())/1e9),
			fmt.Sprint(m.TotalLayers()),
			fmt.Sprint(m.Hidden),
			fmt.Sprint(m.Heads))
	}
	return t.String()
}

// Table2 renders the GPU clusters and deployed LLMs.
func Table2() string {
	t := newTable("GPU (Mem)", "Cluster Size", "Interconn. (Intra/Inter)", "Model: # GPUs")
	for _, d := range sched.DefaultDeployments {
		c := d.Cluster
		t.addRow(
			fmt.Sprintf("%s (%dGB)", c.GPU.Name, c.GPU.MemoryBytes>>30),
			fmt.Sprintf("%d (%dx%d)", c.TotalGPUs(), c.GPUsPerNode, c.Nodes),
			fmt.Sprintf("%s/%s", c.IntraNode.Name, c.InterNode.Name),
			fmt.Sprintf("%s: %d", d.Model.Name, d.GPUs))
	}
	return t.String()
}

// Table3 renders the evaluated NLP tasks and length configurations.
func Table3() string {
	t := newTable("Task", "ID", "Input (Avg,Std,Max)", "Output (Avg,Std,99th,Max)")
	for _, task := range workload.Tasks {
		_, out, err := task.Dists()
		p99 := 0
		if err == nil {
			p99 = out.Percentile(0.99)
		}
		t.addRow(task.Name, task.ID,
			fmt.Sprintf("(%.0f, %.0f, %d)", task.In.Avg, task.In.Std, task.In.Max),
			fmt.Sprintf("(%.0f, %.0f, %d, %d)", task.Out.Avg, task.Out.Std, p99, task.Out.Max))
	}
	return t.String()
}

// LoadRow is one row of Table 4.
type LoadRow struct {
	Model    string
	GPUs     int
	FromDRAM float64
	FromSSD  float64
}

// Table4 computes model (re-)deployment costs: loading weights from SSD
// versus host DRAM, in parallel across the deployment's nodes (§7.7).
func Table4() []LoadRow {
	rows := []LoadRow{}
	type item struct {
		m    model.Model
		gpus int
		cl   hw.Cluster
	}
	// The paper reports 39B/16, 101B/32, 175B/32, 341B/48 (A40 nodes).
	for _, it := range []item{
		{model.GPT339B, 16, hw.A40Cluster},
		{model.GPT3101B, 32, hw.A40Cluster},
		{model.GPT3175B, 32, hw.A40Cluster},
		{model.GPT3341B, 48, hw.A40Cluster},
	} {
		nodes := (it.gpus + it.cl.GPUsPerNode - 1) / it.cl.GPUsPerNode
		rows = append(rows, LoadRow{
			Model: it.m.Name, GPUs: it.gpus,
			FromDRAM: hw.LoadTime(it.m.WeightBytes(), nodes, true),
			FromSSD:  hw.LoadTime(it.m.WeightBytes(), nodes, false),
		})
	}
	return rows
}

// FormatTable4 renders Table 4.
func FormatTable4(rows []LoadRow) string {
	t := newTable("Model", "#GPUs", "Loading from DRAM", "Loading from SSD")
	for _, r := range rows {
		t.addRow(r.Model, fmt.Sprint(r.GPUs),
			fmt.Sprintf("%.1f secs.", r.FromDRAM),
			fmt.Sprintf("%.1f secs.", r.FromSSD))
	}
	return t.String()
}

// MonoRow is one Table 5 row: non-monotonic point percentages per
// control variable at one tolerance.
type MonoRow struct {
	Task      string
	Tolerance float64
	// Cells maps "policy/variable" to (latency%, throughput%)
	// violation percentages.
	Cells map[string][2]float64
}

// Table5 evaluates monotonicity of the control variables on GPT-3 39B
// with tasks S and T at 2%, 5% and 10% tolerances (§7.8).
func (c *Context) Table5() ([]MonoRow, error) {
	var rows []MonoRow
	tasks := []workload.Task{workload.Summarization, workload.Translation}
	tols := []float64{0.02, 0.05, 0.10}
	if c.Quick {
		tasks = tasks[:1]
		tols = []float64{0.05}
	}
	for _, task := range tasks {
		d, err := c.Deploy(model.GPT339B, hw.A40Cluster, 16, task)
		if err != nil {
			return nil, err
		}
		for _, tol := range tols {
			row := MonoRow{Task: task.ID, Tolerance: tol, Cells: map[string][2]float64{}}
			for _, sw := range d.Sch.Table5Sweeps() {
				rep, err := d.Sch.EvaluateMonotonicity(sw, tol)
				if err != nil {
					return nil, err
				}
				key := fmt.Sprintf("%s/%s", rep.Policy, rep.Variable)
				row.Cells[key] = [2]float64{rep.LatencyViol * 100, rep.TputViol * 100}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatTable5 renders Table 5.
func FormatTable5(rows []MonoRow) string {
	keys := []string{"RRA/BD", "RRA/ND", "WAA-M/BE", "WAA-M/TP", "WAA-M/Bm"}
	header := append([]string{"Task", "Tol."}, keys...)
	t := newTable(header...)
	for _, r := range rows {
		cells := []string{r.Task, fmt.Sprintf("%.0f%%", r.Tolerance*100)}
		for _, k := range keys {
			v := r.Cells[k]
			cells = append(cells, fmt.Sprintf("(%.1f, %.1f)", v[0], v[1]))
		}
		t.addRow(cells...)
	}
	return t.String() + "Each cell is (Latency, Throughput) % of non-monotonic points.\n"
}

// CaseRow is one Table 6 row: the schedule selected at one bound.
type CaseRow struct {
	Bound    float64
	Schedule string
	Config   string
	Latency  float64
	Tput     float64
}

// Table6 reproduces the case study: selected schedules and control
// variables for OPT-13B, task S, across four latency bounds (§7.8).
func (c *Context) Table6() ([]CaseRow, error) {
	d, err := c.Deploy(model.OPT13B, hw.A40Cluster, 4, workload.Summarization)
	if err != nil {
		return nil, err
	}
	bounds, err := d.FTBounds()
	if err != nil {
		return nil, err
	}
	// One amortized search across all four bounds.
	ress, err := d.Sch.FindBestMany([]sched.Policy{sched.RRA, sched.WAAC, sched.WAAM}, bounds)
	if err != nil {
		return nil, err
	}
	var rows []CaseRow
	for bi, bound := range bounds {
		res := ress[bi]
		row := CaseRow{Bound: bound}
		if res.Found {
			row.Schedule = res.Best.Config.Policy.String()
			row.Config = res.Best.Config.String()
			row.Latency = res.Best.Latency
			row.Tput = res.Best.Throughput
		} else {
			row.Schedule = "NS"
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable6 renders Table 6.
func FormatTable6(rows []CaseRow) string {
	t := newTable("LB", "Selected Schedule", "Control Variables", "Latency (sec.)", "Tput (seq./sec.)")
	for _, r := range rows {
		t.addRow(fmtBound(r.Bound), r.Schedule, r.Config,
			fmt.Sprintf("%.2f", r.Latency), fmt.Sprintf("%.2f", r.Tput))
	}
	return t.String()
}

// VarianceRow is one Table 7 row: stage execution-time variance.
type VarianceRow struct {
	Schedule string
	EncMean  float64
	EncRange float64 // +- seconds at 99th pctl
	DecMean  float64
	DecRange float64
}

// Table7 measures encoder/decoder stage execution-time variance for the
// selected RRA and WAA schedules on OPT-13B task S (§7.9).
func (c *Context) Table7() ([]VarianceRow, error) {
	d, err := c.Deploy(model.OPT13B, hw.A40Cluster, 4, workload.Summarization)
	if err != nil {
		return nil, err
	}
	reqs, err := c.RequestStream(workload.Summarization, c.Requests*2)
	if err != nil {
		return nil, err
	}
	var rows []VarianceRow
	for _, pol := range []struct {
		name     string
		policies []sched.Policy
	}{
		{"RRA", []sched.Policy{sched.RRA}},
		{"WAA", []sched.Policy{sched.WAAC, sched.WAAM}},
	} {
		res, err := d.Sch.FindBest(pol.policies, math.Inf(1))
		if err != nil {
			return nil, err
		}
		if !res.Found {
			continue
		}
		enc, dec, err := d.Run.StageTimes(res.Best.Config, res.Best.Alloc, reqs)
		if err != nil {
			return nil, err
		}
		rows = append(rows, VarianceRow{
			Schedule: pol.name,
			EncMean:  enc.Mean(),
			EncRange: enc.PctlRange(0.99),
			DecMean:  dec.Mean(),
			DecRange: dec.PctlRange(0.99),
		})
	}
	return rows, nil
}

// FormatTable7 renders Table 7.
func FormatTable7(rows []VarianceRow) string {
	t := newTable("Schedule", "Encoder (99th pctl Range)", "Decoder (99th pctl Range)")
	for _, r := range rows {
		t.addRow(r.Schedule,
			fmt.Sprintf("%.3f (+-%.3f, +-%.1f%%)", r.EncMean, r.EncRange, 100*r.EncRange/math.Max(r.EncMean, 1e-12)),
			fmt.Sprintf("%.4f (+-%.4f, +-%.1f%%)", r.DecMean, r.DecRange, 100*r.DecRange/math.Max(r.DecMean, 1e-12)))
	}
	return t.String()
}

// SchedCostRow reports the §7.7 scheduling-cost comparison.
type SchedCostRow struct {
	Policy           string
	BBEvals, ExEvals int
	// Same-quality check: B&B throughput over exhaustive optimum.
	Quality float64
}

// SchedulingCost compares branch-and-bound search cost against
// exhaustive search (§7.7).
func (c *Context) SchedulingCost() ([]SchedCostRow, error) {
	d, err := c.Deploy(model.OPT13B, hw.A40Cluster, 4, workload.Summarization)
	if err != nil {
		return nil, err
	}
	bounds, err := d.FTBounds()
	if err != nil {
		return nil, err
	}
	bound := bounds[2]
	var rows []SchedCostRow
	for _, pol := range []struct {
		name     string
		policies []sched.Policy
	}{
		{"RRA", []sched.Policy{sched.RRA}},
		{"WAA", []sched.Policy{sched.WAAC, sched.WAAM}},
	} {
		bb, err := d.Sch.FindBest(pol.policies, bound)
		if err != nil {
			return nil, err
		}
		bbEvals := bb.Evals
		ex, err := d.Sch.Exhaustive(pol.policies, bound)
		if err != nil {
			return nil, err
		}
		quality := 0.0
		if ex.Found && ex.Best.Throughput > 0 && bb.Found {
			quality = bb.Best.Throughput / ex.Best.Throughput
		}
		rows = append(rows, SchedCostRow{
			Policy: pol.name, BBEvals: bbEvals, ExEvals: ex.Evals, Quality: quality,
		})
	}
	return rows, nil
}

// FormatSchedulingCost renders the §7.7 comparison.
func FormatSchedulingCost(rows []SchedCostRow) string {
	t := newTable("Policy", "B&B evals", "Exhaustive evals", "Quality (B&B/opt)")
	for _, r := range rows {
		t.addRow(r.Policy, fmt.Sprint(r.BBEvals), fmt.Sprint(r.ExEvals), fmt.Sprintf("%.3f", r.Quality))
	}
	return t.String()
}

// FormatThroughput renders Figure 6/7/8/10 rows as a table.
func FormatThroughput(title string, rows []SweepRow) string {
	t := newTable("Model", "Task", "LB", "System", "Tput (seq/s)")
	for _, r := range rows {
		t.addRow(r.Model, r.Task, fmtBound(r.Bound), r.System, fmtTput(r.Tput, r.Feasible))
	}
	s := title + "\n" + t.String()
	if g := GeoMeanSpeedup(rows); g > 0 {
		s += fmt.Sprintf("ExeGPT vs FT: geo-mean %.2fx, max %.2fx\n", g, MaxSpeedup(rows))
	}
	return s
}

// FormatMemory renders Figure 9 cells.
func FormatMemory(cells []MemoryCell) string {
	t := newTable("Model", "Task", "FT model+kv (GiB)", "WAA enc model+kv", "WAA dec model+kv", "Split", "Policy")
	for _, cell := range cells {
		t.addRow(cell.Model, cell.Task,
			fmt.Sprintf("%.1f+%.1f", gib(cell.FTWeights), gib(cell.FTKV)),
			fmt.Sprintf("%.1f+%.1f", gib(cell.WAAEncWeights), gib(cell.WAAEncKV)),
			fmt.Sprintf("%.1f+%.1f", gib(cell.WAADecWeights), gib(cell.WAADecKV)),
			fmt.Sprintf("%dE/%dD", cell.EncGPUs, cell.DecGPUs),
			cell.WAAPolicy)
	}
	return t.String()
}

// FormatShift renders Figure 11 cells.
func FormatShift(cells []ShiftCell) string {
	t := newTable("Dim", "Value", "Non-adj tput", "Optimal tput", "p99 lat (norm)", "Meets bound")
	for _, cell := range cells {
		t.addRow(cell.Dimension, fmt.Sprintf("%.2f", cell.Value),
			fmt.Sprintf("%.2f", cell.NonAdjustedTput),
			fmt.Sprintf("%.2f", cell.OptimalTput),
			fmt.Sprintf("%.2f", cell.P99LatencyNorm),
			fmt.Sprint(cell.MeetsBound))
	}
	return t.String()
}
