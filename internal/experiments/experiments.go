// Package experiments regenerates every table and figure of the ExeGPT
// paper's evaluation (§7) on the simulated substrate. Each experiment
// has one entry point returning structured rows plus a formatter that
// prints the same rows/series the paper reports.
package experiments

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"exegpt/internal/baselines"
	"exegpt/internal/core"
	"exegpt/internal/hw"
	"exegpt/internal/model"
	"exegpt/internal/profile"
	"exegpt/internal/runner"
	"exegpt/internal/sched"
	"exegpt/internal/seqdist"
	"exegpt/internal/workload"
)

// Context carries experiment-wide settings. A Context is safe for
// concurrent use: the profile memo is mutex-guarded and everything else
// is read-only after construction.
type Context struct {
	// Seed drives all request sampling.
	Seed int64
	// Requests per measured run.
	Requests int
	// Quick shrinks sweeps for fast test runs.
	Quick bool
	// Workers sizes the scheduler worker pool of every deployment built
	// through Deploy; 0 means runtime.GOMAXPROCS(0).
	Workers int

	mu       sync.Mutex
	profiles map[string]*profileEntry
}

// profileEntry memoizes one profiling run; Once serializes concurrent
// requests for the same (model, sub-cluster) key without blocking
// profiling of other keys.
type profileEntry struct {
	once sync.Once
	tab  *profile.Table
	err  error
}

// NewContext returns defaults matching the paper-scale runs.
func NewContext() *Context {
	return &Context{Seed: 42, Requests: 1200, profiles: map[string]*profileEntry{}}
}

// NewQuickContext returns a reduced-cost context for tests.
func NewQuickContext() *Context {
	return &Context{Seed: 42, Requests: 500, Quick: true, profiles: map[string]*profileEntry{}}
}

// Deployment bundles everything needed to evaluate one (model, cluster,
// task) combination. Each Deployment owns its Simulator, Scheduler
// (with the Scheduler's per-worker Evaluators) and runner Engine, so
// separate Deployments can be driven concurrently; the profile Table
// may be shared between them but is immutable.
type Deployment struct {
	Model   model.Model
	Cluster hw.Cluster
	Prof    *profile.Table
	Task    workload.Task
	In, Out *seqdist.Dist
	Sim     *core.Simulator
	Sch     *core.Scheduler
	Run     *runner.Engine
}

// profileFor memoizes profiling per (model, sub-cluster).
func (c *Context) profileFor(m model.Model, sub hw.Cluster) (*profile.Table, error) {
	key := m.Name + "/" + sub.Name + "/" + fmt.Sprint(sub.TotalGPUs())
	c.mu.Lock()
	if c.profiles == nil {
		c.profiles = map[string]*profileEntry{}
	}
	e, ok := c.profiles[key]
	if !ok {
		e = &profileEntry{}
		c.profiles[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		p, err := profile.New(m, sub)
		if err != nil {
			e.err = err
			return
		}
		e.tab = p.Run()
	})
	return e.tab, e.err
}

// Deploy sets up a deployment for a model on gpus of cluster running
// task.
func (c *Context) Deploy(m model.Model, cluster hw.Cluster, gpus int, task workload.Task) (*Deployment, error) {
	sub, err := cluster.Sub(gpus)
	if err != nil {
		return nil, err
	}
	prof, err := c.profileFor(m, sub)
	if err != nil {
		return nil, err
	}
	in, out, err := task.Dists()
	if err != nil {
		return nil, err
	}
	sim, err := core.NewSimulator(m, sub, prof, in, out)
	if err != nil {
		return nil, err
	}
	sch := core.NewScheduler(sim)
	sch.Workers = c.Workers
	if c.Quick {
		sch.MaxBatch = 512
		sch.MaxND = 32
	}
	run, err := runner.New(m, sub, prof)
	if err != nil {
		return nil, err
	}
	return &Deployment{
		Model: m, Cluster: sub, Prof: prof, Task: task,
		In: in, Out: out, Sim: sim, Sch: sch, Run: run,
	}, nil
}

// Redeploy derives a Deployment identical to d but with the estimate
// path (Simulator and Scheduler) rebuilt around new length
// distributions — typically empirical estimates observed online after
// the workload drifted from the distributions the current schedule was
// searched for. It is the one way to re-target a search: a Simulator's
// distributions and the scalars derived from them are fixed at
// construction. The profile table and runner engine are shared: both
// are distribution-agnostic. Scheduler knobs (Workers, MaxBatch, MaxND)
// carry over so a re-search explores the same space.
func (d *Deployment) Redeploy(in, out *seqdist.Dist) (*Deployment, error) {
	sim, err := core.NewSimulator(d.Model, d.Cluster, d.Prof, in, out)
	if err != nil {
		return nil, err
	}
	sch := core.NewScheduler(sim)
	sch.Workers = d.Sch.Workers
	sch.MaxBatch = d.Sch.MaxBatch
	sch.MaxND = d.Sch.MaxND
	nd := *d
	nd.In, nd.Out = in, out
	nd.Sim, nd.Sch = sim, sch
	return &nd, nil
}

// RequestStream draws the evaluation request stream (n <= 0 uses the
// context default).
func (c *Context) RequestStream(task workload.Task, n int) ([]workload.Request, error) {
	g, err := workload.NewGenerator(task, c.Seed)
	if err != nil {
		return nil, err
	}
	if task.Rho > 0.5 {
		// §7.1: highly correlated tasks get input randomization.
		g.RandomizeInputs = true
	}
	if n <= 0 {
		n = c.Requests
	}
	return g.Batch(n), nil
}

// FTBounds derives the paper's four latency constraints from FT's
// batch-size/latency sweep: bottom 10%, 30%, 70% and infinity (§7.1).
func (d *Deployment) FTBounds() ([]float64, error) {
	ft, err := baselines.New(baselines.FT, d.Model, d.Cluster, d.Prof)
	if err != nil {
		return nil, err
	}
	sweep, err := ft.LatencySweep(d.In.Mean(), d.Out.Mean(), d.Task.Out.Max, d.Task.Out.Max)
	if err != nil {
		return nil, err
	}
	if len(sweep) == 0 {
		return nil, fmt.Errorf("experiments: FT has no feasible batch for %s on %s", d.Task.ID, d.Model.Name)
	}
	pick := func(q float64) float64 {
		i := int(q * float64(len(sweep)))
		if i >= len(sweep) {
			i = len(sweep) - 1
		}
		return sweep[i]
	}
	return []float64{pick(0.10), pick(0.30), pick(0.70), math.Inf(1)}, nil
}

// RunBaseline picks the largest bound-feasible batch for the system and
// measures its execution.
func (d *Deployment) RunBaseline(sys baselines.System, bound float64, reqs []workload.Request) (float64, error) {
	e, err := baselines.New(sys, d.Model, d.Cluster, d.Prof)
	if err != nil {
		return 0, err
	}
	boundLen := d.Task.Out.Max
	if sys == baselines.ORCA || sys == baselines.VLLM {
		boundLen = d.Out.Percentile(0.99)
	}
	b, err := e.PickBatch(bound, d.In.Mean(), d.Out.Mean(), boundLen, d.Task.Out.Max)
	if err != nil {
		return 0, err
	}
	if b == 0 {
		return 0, nil // bound not satisfiable
	}
	res, err := e.Run(b, reqs, d.Task.Out.Max)
	if err != nil {
		return 0, err
	}
	return res.Stats.EffectiveTput(), nil
}

// RunOutcome is one latency bound's outcome from ScheduleAndRunMany.
type RunOutcome struct {
	Bound float64
	// Tput is the measured effective throughput; zero when !OK.
	Tput float64
	// Est is the schedule the search selected (zero value when none was
	// found).
	Est core.Estimate
	// OK is false when no feasible schedule exists, or the selected one
	// trips runtime OOM on sampled tails (the paper's "NS").
	OK bool
}

// ScheduleAndRunMany finds the best schedule for every latency bound in
// one amortized multi-bound search (core.Scheduler.FindBestMany) and
// executes each selected schedule, returning one outcome per bound in
// input order. A bound's schedule can differ from a one-bound search's
// where Algorithm 1's monotone-corner assumption fails (see
// FindBestMany). Adjacent bounds often pick the same schedule, so
// executions are memoized per config: each distinct schedule runs once
// per call.
func (d *Deployment) ScheduleAndRunMany(policies []sched.Policy, bounds []float64, reqs []workload.Request) ([]RunOutcome, error) {
	ress, err := d.Sch.FindBestMany(policies, bounds)
	if err != nil {
		return nil, err
	}
	type runMemo struct {
		tput float64
		ok   bool
	}
	runs := map[sched.Config]runMemo{}
	outs := make([]RunOutcome, len(bounds))
	for i, res := range ress {
		out := RunOutcome{Bound: bounds[i]}
		if res.Found {
			out.Est = res.Best
			m, seen := runs[res.Best.Config]
			if !seen {
				r, rerr := d.Run.Run(res.Best.Config, res.Best.Alloc, reqs)
				if rerr == nil {
					m = runMemo{tput: r.Stats.EffectiveTput(), ok: true}
				}
				// A schedule that passes the simulator but trips runtime
				// OOM on sampled tails counts as not satisfiable.
				runs[res.Best.Config] = m
			}
			out.Tput, out.OK = m.tput, m.ok
		}
		outs[i] = out
	}
	return outs, nil
}

// tableWriter builds fixed-width text tables.
type tableWriter struct {
	b     strings.Builder
	width []int
	rows  [][]string
}

func newTable(headers ...string) *tableWriter {
	t := &tableWriter{}
	t.addRow(headers...)
	return t
}

func (t *tableWriter) addRow(cells ...string) {
	for i, cell := range cells {
		if i >= len(t.width) {
			t.width = append(t.width, 0)
		}
		if len(cell) > t.width[i] {
			t.width[i] = len(cell)
		}
	}
	t.rows = append(t.rows, cells)
}

func (t *tableWriter) String() string {
	for r, row := range t.rows {
		for i, cell := range row {
			fmt.Fprintf(&t.b, "%-*s", t.width[i]+2, cell)
		}
		t.b.WriteString("\n")
		if r == 0 {
			for i := range row {
				t.b.WriteString(strings.Repeat("-", t.width[i]) + "  ")
			}
			t.b.WriteString("\n")
		}
	}
	return t.b.String()
}

func fmtBound(b float64) string {
	if math.IsInf(b, 1) {
		return "Inf"
	}
	return fmt.Sprintf("%.1f", b)
}

func fmtTput(v float64, feasible bool) string {
	if !feasible {
		return "NS"
	}
	return fmt.Sprintf("%.2f", v)
}

func gib(b int64) float64 { return float64(b) / (1 << 30) }
