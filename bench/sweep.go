package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"

	"exegpt/internal/baselines"
	"exegpt/internal/core"
	"exegpt/internal/experiments"
	"exegpt/internal/par"
	"exegpt/internal/runner"
	"exegpt/internal/sched"
	"exegpt/internal/workload"
)

// sweepPaper is `exegpt sweep` on its default grid: one Table 2
// deployment per model, the five synthetic tasks, FT plus the RRA and
// WAA groups at the four FT-derived bounds, 1200 requests per run. Each
// timed pass is a fresh Context.Sweep, as the command does.
type sweepPaper struct {
	seed int64
	grid experiments.SweepGrid
}

func newSweepPaper(seed int64, toy bool) (*sweepPaper, error) {
	var deps []sched.Deployment
	seen := map[string]bool{}
	for _, d := range sched.DefaultDeployments {
		if !seen[d.Model.Name] {
			seen[d.Model.Name] = true
			deps = append(deps, d)
		}
	}
	grid := experiments.SweepGrid{
		Deployments: deps,
		Tasks:       workload.Tasks,
		Policies:    [][]sched.Policy{{sched.RRA}, {sched.WAAC, sched.WAAM}},
	}
	if toy {
		d, err := sched.DeploymentFor("OPT-13B")
		if err != nil {
			return nil, err
		}
		grid.Deployments, grid.Tasks = []sched.Deployment{d}, []workload.Task{workload.Summarization}
	}
	return &sweepPaper{seed: seed, grid: grid}, nil
}

func (w *sweepPaper) context() *experiments.Context {
	c := experiments.NewContext()
	c.Seed = w.seed
	return c
}

// split mirrors SweepCells: cells run on min(GOMAXPROCS, cells)
// goroutines and each cell's scheduler gets the rest of the budget.
func (w *sweepPaper) split() (cells, sched int) {
	cells = min(runtime.GOMAXPROCS(0), len(w.grid.Cells()))
	return cells, max(1, runtime.GOMAXPROCS(0)/cells)
}

func (w *sweepPaper) workers() int {
	cells, _ := w.split()
	return cells
}

func (w *sweepPaper) setup() error {
	_, err := coldSetup(w.seed, w.grid.Deployments, w.grid.Tasks)
	return err
}

// cellKey names a cell the way its rows do, as coldSetup names it.
func cellKey(model, cluster string, gpus int, task string) string {
	return fmt.Sprintf("cell:%s/%s/%d/%s", model, cluster, gpus, task)
}

// cellDigests splits sweep rows into cells and digests each cell's rows
// JSON.
func cellDigests(rows []experiments.SweepRow) (passOut, error) {
	out := newPassOut()
	for i := 0; i < len(rows); {
		r := rows[i]
		key := cellKey(r.Model, r.Cluster, r.GPUs, r.Task)
		j := i
		for j < len(rows) && cellKey(rows[j].Model, rows[j].Cluster, rows[j].GPUs, rows[j].Task) == key {
			j++
		}
		data, err := json.Marshal(rows[i:j])
		if err != nil {
			return out, err
		}
		out.add(key, data)
		i = j
	}
	return out, nil
}

func (w *sweepPaper) pass(tr *tracer) (passOut, error) {
	if tr != nil {
		rows, _, counts, err := w.replica(tr)
		if err != nil {
			return passOut{}, err
		}
		out, err := cellDigests(rows)
		out.counts = counts
		return out, err
	}
	rows, err := w.context().Sweep(w.grid)
	if err != nil {
		return passOut{}, err
	}
	return cellDigests(rows)
}

func (w *sweepPaper) warmup(res *result) (passOut, error) {
	rows, q, counts, err := w.replica(nil)
	if err != nil {
		return passOut{}, err
	}
	res.put("exegpt_vs_ft_x", q.ratio(), "x")
	res.put("bound_violations", float64(q.violations), "count")
	res.put("est_tput_err_p50", median(q.estErr), "share")
	res.put("selections", float64(q.selections), "count")
	out, err := cellDigests(rows)
	out.counts = counts
	return out, err
}

// sweepQuality collects the simulated-outcome metrics of one sweep.
type sweepQuality struct {
	// ratios holds, per bound row where FT is feasible, the best
	// bound-honouring ExeGPT throughput over FT's (0 when none honours).
	ratios     []float64
	selections int
	violations int
	estErr     []float64
}

func (q sweepQuality) ratio() float64 {
	if len(q.ratios) == 0 {
		return 0
	}
	return sum(q.ratios) / float64(len(q.ratios))
}

// replica evaluates the grid exactly as Context.Sweep does, cell by
// cell with the same fan-out and worker split as SweepCells, but calls
// each layer itself so that spans can wrap the calls and the selected
// schedules' estimates and measured latencies are visible. Its rows are
// checked byte for byte against Context.Sweep on every timed pass.
func (w *sweepPaper) replica(tr *tracer) ([]experiments.SweepRow, sweepQuality, map[string]float64, error) {
	ctx := w.context()
	cells := w.grid.Cells()
	workers, schedWorkers := w.split()
	type cellOut struct {
		rows   []experiments.SweepRow
		q      sweepQuality
		counts map[string]float64
		err    error
	}
	outs := make([]cellOut, len(cells))
	par.ForEach(len(cells), workers, func(i int) {
		o := &outs[i]
		o.rows, o.q, o.counts, o.err = w.replicaCell(ctx, cells[i], schedWorkers, tr)
	})
	var rows []experiments.SweepRow
	var q sweepQuality
	counts := map[string]float64{}
	for i, o := range outs {
		if o.err != nil {
			return nil, q, nil, fmt.Errorf("sweep replica %s/%s: %w", cells[i].Dep.Model.Name, cells[i].Task.ID, o.err)
		}
		rows = append(rows, o.rows...)
		q.ratios = append(q.ratios, o.q.ratios...)
		q.estErr = append(q.estErr, o.q.estErr...)
		q.selections += o.q.selections
		q.violations += o.q.violations
		for k, v := range o.counts {
			counts[k] += v
		}
	}
	return rows, q, counts, nil
}

// replicaCell is the per-cell sequence of experiments.sweepCell, with
// ScheduleAndRunMany unrolled into its search and its runs.
func (w *sweepPaper) replicaCell(ctx *experiments.Context, cl experiments.SweepCell, schedWorkers int, tr *tracer) ([]experiments.SweepRow, sweepQuality, map[string]float64, error) {
	var q sweepQuality
	counts := map[string]float64{}
	dep, task := cl.Dep, cl.Task
	trace := cellKey(dep.Model.Name, dep.Cluster.Name, dep.GPUs, task.ID)
	root := tr.begin(0, trace, "bench.cell")
	defer tr.end(root)

	var d *experiments.Deployment
	if err := tr.call(root, trace, "experiments.deploy", func() (err error) {
		d, err = ctx.Deploy(dep.Model, dep.Cluster, dep.GPUs, task)
		return err
	}); err != nil {
		return nil, q, nil, err
	}
	d.Sch.Workers = schedWorkers
	var bounds []float64
	if err := tr.call(root, trace, "baselines.ftbounds", func() (err error) {
		bounds, err = d.FTBounds()
		return err
	}); err != nil {
		return nil, q, nil, err
	}
	var reqs []workload.Request
	if err := tr.call(root, trace, "workload.request_stream", func() (err error) {
		reqs, err = ctx.RequestStream(task, 0)
		return err
	}); err != nil {
		return nil, q, nil, err
	}

	// outcome is one selected schedule's run: measured throughput and
	// p99, and whether it ran (false also when nothing was selected).
	type outcome struct {
		tput, p99 float64
		ok        bool
	}
	groups := w.grid.Policies
	outs := make([][]outcome, len(groups))
	for gi, group := range groups {
		var ress []core.Result
		if err := tr.call(root, trace, "core.find_best_many", func() (err error) {
			ress, err = d.Sch.FindBestMany(group, bounds)
			return err
		}); err != nil {
			return nil, q, nil, err
		}
		counts["core.searches"]++
		counts["core.evals"] += float64(d.Sch.Evals)
		counts["core.frontier_points"] += float64(d.Sch.Frontier.Len())
		// Each distinct selected schedule runs once per group, as in
		// ScheduleAndRunMany.
		memo := map[sched.Config]outcome{}
		outs[gi] = make([]outcome, len(bounds))
		for bi, res := range ress {
			if !res.Found {
				continue
			}
			m, seen := memo[res.Best.Config]
			if !seen {
				var r runner.Result
				var rerr error
				_ = tr.call(root, trace, "runner.run", func() error {
					r, rerr = d.Run.Run(res.Best.Config, res.Best.Alloc, reqs)
					return nil
				})
				counts["runner.runs"]++
				if rerr == nil {
					m = outcome{tput: r.Stats.EffectiveTput(), p99: r.Stats.P99Lat, ok: true}
					counts["runner.iterations"] += float64(r.Iterations)
					counts["runner.compactions"] += float64(r.Compactions)
				} else {
					counts["runner.runtime_oom"]++
				}
				memo[res.Best.Config] = m
			}
			outs[gi][bi] = m
			q.selections++
			if !m.ok || m.p99 > bounds[bi] {
				q.violations++
			}
			if m.ok && m.tput > 0 {
				q.estErr = append(q.estErr, math.Abs(res.Best.Throughput-m.tput)/m.tput)
			}
		}
	}

	var rows []experiments.SweepRow
	base := experiments.SweepRow{Model: dep.Model.Name, Cluster: dep.Cluster.Name, GPUs: dep.GPUs, Task: task.ID}
	for bi, bound := range bounds {
		var ft float64
		if err := tr.call(root, trace, "baselines.run", func() (err error) {
			ft, err = d.RunBaseline(baselines.FT, bound, reqs)
			return err
		}); err != nil {
			return nil, q, nil, err
		}
		counts["baselines.runs"]++
		row := base
		row.Bound, row.System, row.Tput, row.Feasible = bound, "FT", ft, ft > 0
		rows = append(rows, row)
		best := 0.0
		for gi, group := range groups {
			o := outs[gi][bi]
			row := base
			row.Bound, row.System, row.Tput, row.Feasible = bound, groupName(group), o.tput, o.ok
			rows = append(rows, row)
			if o.ok && o.p99 <= bound {
				best = math.Max(best, o.tput)
			}
		}
		if ft > 0 {
			q.ratios = append(q.ratios, best/ft)
		}
	}
	return rows, q, counts, nil
}

// groupName labels a policy group as the sweep rows do: the family
// group, preferring a dedicated-pool family when the group mixes.
func groupName(ps []sched.Policy) string {
	name := "ExeGPT-RRA"
	for _, p := range ps {
		f, ok := sched.FamilyOf(p)
		if !ok {
			continue
		}
		if f.Caps.DedicatedPools {
			return f.Group
		}
		name = f.Group
	}
	return name
}
