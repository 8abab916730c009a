// Sweep: one in-process grid evaluation over deployments (model ×
// cluster size) and tasks. The grid flattens into a cell list in
// canonical (deployment, task) order; each cell gets its own Simulator,
// Scheduler and runner Engine, so cells are independent, and only the
// memoized profile Table is shared (immutable once built). Cells run on
// a bounded worker pool and each writes its own slot, so the fold
// concatenates them in grid order and the output is deterministic
// regardless of which worker finishes first.
//
// The fold also merges every cell's per-policy-group Pareto frontier
// into one frontier per (model, cluster, GPUs, group) — the cross-task
// latency→throughput envelope of that deployment — and stamps the
// result with a fingerprint of the grid and the context's settings.
// SweepResult.Encode is the `exegpt sweep -json` artifact.
package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strconv"

	"exegpt/internal/atomicfile"
	"exegpt/internal/baselines"
	"exegpt/internal/core"
	"exegpt/internal/par"
	"exegpt/internal/sched"
	"exegpt/internal/workload"
)

// SweepRow is one measured cell of a sweep: one system on one
// (deployment, task, latency bound) combination.
type SweepRow struct {
	Model   string
	Cluster string
	GPUs    int
	Task    string
	Bound   float64
	System  string
	Tput    float64
	// Feasible is false for the paper's "NS" entries.
	Feasible bool
}

// SweepGrid names the grid to evaluate. Zero-valued fields fall back to
// the paper's defaults (Table 2 deployments, the five synthetic tasks).
type SweepGrid struct {
	Deployments []sched.Deployment
	Tasks       []workload.Task
	// Policies selects the ExeGPT policy groups to schedule; empty runs
	// RRA and WAA (the paper's two families).
	Policies [][]sched.Policy
	// Workers bounds the number of deployments evaluated concurrently;
	// 0 means runtime.GOMAXPROCS(0).
	Workers int
}

// resolved returns the grid with every defaulted field filled in, so
// that enumeration and fingerprinting see the same grid whether it was
// spelled out or left to the defaults.
func (g SweepGrid) resolved() ([]sched.Deployment, []workload.Task, [][]sched.Policy) {
	deps := g.Deployments
	if len(deps) == 0 {
		deps = sched.DefaultDeployments
	}
	tasks := g.Tasks
	if len(tasks) == 0 {
		tasks = workload.Tasks
	}
	groups := g.Policies
	if len(groups) == 0 {
		groups = defaultPolicyGroups()
	}
	return deps, tasks, groups
}

// SweepCell is one (deployment, task) cell of a grid.
type SweepCell struct {
	Dep  sched.Deployment
	Task workload.Task
}

// Cells flattens the grid into its canonical cell list.
func (g SweepGrid) Cells() []SweepCell {
	deps, tasks, _ := g.resolved()
	cells := make([]SweepCell, 0, len(deps)*len(tasks))
	for _, dep := range deps {
		for _, task := range tasks {
			cells = append(cells, SweepCell{Dep: dep, Task: task})
		}
	}
	return cells
}

// GroupFrontier is the latency→throughput Pareto frontier one policy
// group's schedule search discovered on one cell. Frontiers for the
// same (deployment, group) merge order-independently across cells via
// core.Frontier.Merge.
type GroupFrontier struct {
	Model    string
	Cluster  string
	GPUs     int
	Task     string
	Group    string
	Frontier core.Frontier
}

// CellResult is everything one evaluated cell contributes to a sweep:
// its rows in bound-major order, the schedule-search evaluation count
// (the §7.7 cost metric, deterministic across worker counts), and the
// per-group frontiers.
type CellResult struct {
	Rows      []SweepRow
	Evals     int
	Frontiers []GroupFrontier
}

// DeploymentFrontier is the merged cross-task Pareto frontier of one
// (deployment, policy group): every feasible (latency, throughput)
// point any task's schedule search discovered on that hardware with
// that policy family, Pareto-reduced.
type DeploymentFrontier struct {
	Model    string        `json:"model"`
	Cluster  string        `json:"cluster"`
	GPUs     int           `json:"gpus"`
	Group    string        `json:"group"`
	Frontier core.Frontier `json:"frontier"`
}

// SweepResult is a folded sweep. Rows are in grid order; Evals is the
// total schedule-search evaluation count; Frontiers are sorted by
// (model, cluster, GPUs, group); Fingerprint identifies the grid and
// settings that produced it. Nothing in it depends on the worker count.
type SweepResult struct {
	Fingerprint string               `json:"fingerprint"`
	Cells       int                  `json:"cells"`
	Evals       int                  `json:"evals"`
	Rows        []SweepRow           `json:"rows"`
	Frontiers   []DeploymentFrontier `json:"frontiers"`
}

// Encode renders the sweep as indented JSON with a trailing newline.
// The encoding is deterministic: no maps, and every float round-trips
// bit-exactly.
func (r *SweepResult) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteFile atomically writes the encoded sweep to path.
func (r *SweepResult) WriteFile(path string) error {
	data, err := r.Encode()
	if err != nil {
		return err
	}
	return atomicfile.Write(path, data, 0o644)
}

// gridFingerprint hashes everything that determines a sweep's output:
// the resolved grid (deployments, tasks, policy groups) and the
// context's sampling/search settings. Worker counts are deliberately
// excluded: they change only wall time, never results.
func (c *Context) gridFingerprint(grid SweepGrid) (string, error) {
	deps, tasks, groups := grid.resolved()
	type depKey struct {
		Model   string
		Cluster string
		GPUs    int
	}
	desc := struct {
		Seed        int64
		Requests    int
		Quick       bool
		Deployments []depKey
		Tasks       []string
		Policies    [][]sched.Policy
	}{Seed: c.Seed, Requests: c.Requests, Quick: c.Quick, Policies: groups}
	for _, d := range deps {
		desc.Deployments = append(desc.Deployments,
			depKey{Model: d.Model.Name, Cluster: d.Cluster.Name, GPUs: d.GPUs})
	}
	for _, t := range tasks {
		desc.Tasks = append(desc.Tasks, t.ID)
	}
	data, err := json.Marshal(desc)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// policyGroupName labels a policy group the way the figures do: the
// family Group of its members, preferring a dedicated-pool family when
// the group mixes (the figures fold RRA into the WAA comparison).
func policyGroupName(ps []sched.Policy) string {
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

// defaultPolicyGroups mirrors the figure comparisons: RRA alone and the
// two WAA variants together.
func defaultPolicyGroups() [][]sched.Policy {
	return [][]sched.Policy{
		{sched.RRA},
		{sched.WAAC, sched.WAAM},
	}
}

// SweepAll evaluates FT plus every requested ExeGPT policy group on
// every (deployment, task) cell of the grid under the FT-derived
// latency bounds, in this process, and folds the cells into one
// SweepResult. Cells run concurrently on a bounded worker pool; the
// result is the same at every worker count.
func (c *Context) SweepAll(grid SweepGrid) (*SweepResult, error) {
	fp, err := c.gridFingerprint(grid)
	if err != nil {
		return nil, err
	}
	cells, err := c.sweepCells(grid)
	if err != nil {
		return nil, err
	}
	return fold(fp, cells), nil
}

// Sweep is SweepAll reduced to its rows.
func (c *Context) Sweep(grid SweepGrid) ([]SweepRow, error) {
	res, err := c.SweepAll(grid)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// sweepCells evaluates every cell of the grid and returns the results
// in grid order: each cell writes only its own slot.
func (c *Context) sweepCells(grid SweepGrid) ([]CellResult, error) {
	_, _, groups := grid.resolved()
	cells := grid.Cells()

	workers := grid.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	// Split the worker budget across the two parallelism levels instead
	// of multiplying them: `workers` cells run concurrently, and each
	// cell's scheduler gets the remaining share of the budget, so the
	// total stays at ~GOMAXPROCS runnable goroutines.
	schedWorkers := 1
	if workers > 0 {
		if schedWorkers = runtime.GOMAXPROCS(0) / workers; schedWorkers < 1 {
			schedWorkers = 1
		}
	}

	results := make([]CellResult, len(cells))
	errs := make([]error, len(cells))
	par.ForEach(len(cells), workers, func(i int) {
		results[i], errs[i] = c.sweepCell(cells[i], groups, schedWorkers)
	})
	for i, cl := range cells {
		if errs[i] != nil {
			return nil, fmt.Errorf("experiments: sweep %s/%s on %d GPUs: %w",
				cl.Dep.Model.Name, cl.Task.ID, cl.Dep.GPUs, errs[i])
		}
	}
	return results, nil
}

// fold reduces grid-ordered cell results into a SweepResult: rows
// concatenated in grid order, evals summed, and every cell's
// per-group frontier merged into its (deployment, group) frontier.
func fold(fingerprint string, cells []CellResult) *SweepResult {
	r := &SweepResult{Fingerprint: fingerprint, Cells: len(cells)}
	type key struct {
		model, cluster string
		gpus           int
		group          string
	}
	frontiers := map[key]*core.Frontier{}
	var order []key
	for _, c := range cells {
		r.Evals += c.Evals
		r.Rows = append(r.Rows, c.Rows...)
		for i := range c.Frontiers {
			gf := &c.Frontiers[i]
			k := key{model: gf.Model, cluster: gf.Cluster, gpus: gf.GPUs, group: gf.Group}
			f, ok := frontiers[k]
			if !ok {
				f = &core.Frontier{}
				frontiers[k] = f
				order = append(order, k)
			}
			f.Merge(&gf.Frontier)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.model != b.model {
			return a.model < b.model
		}
		if a.cluster != b.cluster {
			return a.cluster < b.cluster
		}
		if a.gpus != b.gpus {
			return a.gpus < b.gpus
		}
		return a.group < b.group
	})
	for _, k := range order {
		r.Frontiers = append(r.Frontiers, DeploymentFrontier{
			Model: k.model, Cluster: k.cluster, GPUs: k.gpus, Group: k.group,
			Frontier: *frontiers[k],
		})
	}
	return r
}

// sweepCell measures one (deployment, task) cell across its bounds.
// schedWorkers overrides the cell scheduler's pool size so the sweep
// controls the total parallelism budget.
func (c *Context) sweepCell(cl SweepCell, groups [][]sched.Policy, schedWorkers int) (CellResult, error) {
	d, err := c.Deploy(cl.Dep.Model, cl.Dep.Cluster, cl.Dep.GPUs, cl.Task)
	if err != nil {
		return CellResult{}, err
	}
	d.Sch.Workers = schedWorkers
	bounds, err := d.FTBounds()
	if err != nil {
		return CellResult{}, err
	}
	if c.Quick {
		bounds = []float64{bounds[1], bounds[3]}
	}
	reqs, err := c.RequestStream(cl.Task, 0)
	if err != nil {
		return CellResult{}, err
	}
	return d.measureCell(bounds, reqs, groups)
}

// measureCell runs FT and every ExeGPT policy group on reqs at each
// latency bound. Rows come out bound-major: FT, then the groups in
// order. Each group is scheduled across every bound in one amortized
// multi-bound search; each search leaves its eval count and merged
// Pareto frontier on the scheduler, and the cell carries both.
func (d *Deployment) measureCell(bounds []float64, reqs []workload.Request, groups [][]sched.Policy) (CellResult, error) {
	var cr CellResult
	base := SweepRow{
		Model: d.Model.Name, Cluster: d.Cluster.Name,
		GPUs: d.Cluster.TotalGPUs(), Task: d.Task.ID,
	}
	outsByGroup := make([][]RunOutcome, len(groups))
	for gi, group := range groups {
		// WAA needs a dedicated decode side; groups that cannot apply
		// (e.g. WAA with every GPU already required for encode) come
		// back as not-found outcomes, the paper's "NS".
		outs, err := d.ScheduleAndRunMany(group, bounds, reqs)
		if err != nil {
			return cr, err
		}
		outsByGroup[gi] = outs
		cr.Evals += d.Sch.Evals
		cr.Frontiers = append(cr.Frontiers, GroupFrontier{
			Model: base.Model, Cluster: base.Cluster, GPUs: base.GPUs,
			Task: base.Task, Group: policyGroupName(group), Frontier: d.Sch.Frontier,
		})
	}
	for bi, bound := range bounds {
		ftTput, err := d.RunBaseline(baselines.FT, bound, reqs)
		if err != nil {
			return cr, err
		}
		row := base
		row.Bound, row.System, row.Tput, row.Feasible = bound, "FT", ftTput, ftTput > 0
		cr.Rows = append(cr.Rows, row)
		for gi, group := range groups {
			out := outsByGroup[gi][bi]
			row := base
			row.Bound, row.System, row.Tput, row.Feasible = bound, policyGroupName(group), out.Tput, out.OK
			cr.Rows = append(cr.Rows, row)
		}
	}
	return cr, nil
}

// sweepRowWire mirrors SweepRow in JSON with the latency bound carried
// as a string: JSON has no ±Inf, and the relaxed bound is math.Inf(1).
// strconv's shortest 'g' format keeps every float64 bit-exactly.
type sweepRowWire struct {
	Model    string  `json:"model"`
	Cluster  string  `json:"cluster"`
	GPUs     int     `json:"gpus"`
	Task     string  `json:"task"`
	Bound    string  `json:"bound"`
	System   string  `json:"system"`
	Tput     float64 `json:"tput"`
	Feasible bool    `json:"feasible"`
}

// MarshalJSON implements json.Marshaler.
func (r SweepRow) MarshalJSON() ([]byte, error) {
	return json.Marshal(sweepRowWire{
		Model: r.Model, Cluster: r.Cluster, GPUs: r.GPUs, Task: r.Task,
		Bound:  strconv.FormatFloat(r.Bound, 'g', -1, 64),
		System: r.System, Tput: r.Tput, Feasible: r.Feasible,
	})
}

// FormatSweep renders sweep rows as a fixed-width table.
func FormatSweep(rows []SweepRow) string {
	t := newTable("Model", "Cluster", "GPUs", "Task", "LB", "System", "Tput (seq/s)")
	for _, r := range rows {
		t.addRow(r.Model, r.Cluster, fmt.Sprint(r.GPUs), r.Task,
			fmtBound(r.Bound), r.System, fmtTput(r.Tput, r.Feasible))
	}
	return t.String()
}
