// Figure regenerators (§7.2-§7.6).
package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"exegpt/internal/baselines"
	"exegpt/internal/hw"
	"exegpt/internal/model"
	"exegpt/internal/sched"
	"exegpt/internal/seqdist"
	"exegpt/internal/workload"
)

// speedupVs returns the per-(model,task,bound) throughput ratio of
// ExeGPT's best policy over the named baseline.
func speedupVs(rows []SweepRow, baseline string) []float64 {
	type key struct {
		m, t string
		b    float64
	}
	base := map[key]float64{}
	best := map[key]float64{}
	for _, r := range rows {
		k := key{r.Model, r.Task, r.Bound}
		if r.System == baseline && r.Feasible {
			base[k] = r.Tput
		}
		if (r.System == "ExeGPT-RRA" || r.System == "ExeGPT-WAA") && r.Feasible && r.Tput > best[k] {
			best[k] = r.Tput
		}
	}
	var out []float64
	for k, b := range base {
		if b > 0 && best[k] > 0 {
			out = append(out, best[k]/b)
		}
	}
	return out
}

// GeoMeanSpeedup summarizes ExeGPT's gain over FT across rows.
func GeoMeanSpeedup(rows []SweepRow) float64 {
	sp := speedupVs(rows, "FT")
	if len(sp) == 0 {
		return 0
	}
	logSum := 0.0
	for _, s := range sp {
		logSum += math.Log(s)
	}
	return math.Exp(logSum / float64(len(sp)))
}

// MaxSpeedup returns the largest per-(model, task, bound) gain over FT.
func MaxSpeedup(rows []SweepRow) float64 {
	max := 0.0
	for _, s := range speedupVs(rows, "FT") {
		if s > max {
			max = s
		}
	}
	return max
}

// Figure6 compares ExeGPT (RRA and WAA) against FT on small to mid-sized
// LLMs with tasks S, T and C1 under four latency bounds (§7.3): a sweep
// over those deployments and tasks.
func (c *Context) Figure6() ([]SweepRow, error) {
	deps := []sched.Deployment{
		{Model: model.T511B, Cluster: hw.A40Cluster, GPUs: 8},
		{Model: model.OPT13B, Cluster: hw.A40Cluster, GPUs: 4},
		{Model: model.GPT339B, Cluster: hw.A40Cluster, GPUs: 16},
		{Model: model.GPT3101B, Cluster: hw.A100Cluster, GPUs: 16},
	}
	if c.Quick {
		deps = deps[1:2] // OPT-13B only
	}
	tasks := []workload.Task{workload.Summarization, workload.Translation, workload.ConvQA1}
	if c.Quick {
		tasks = tasks[:2]
	}
	return c.Sweep(SweepGrid{Deployments: deps, Tasks: tasks, Workers: c.Workers})
}

// Figure7 compares the existing systems (FT, DSI, ORCA, vLLM) on
// OPT-13B with four A40 GPUs (§7.2). It is not a sweep: it runs no
// policy groups, and it labels FT by its full name.
func (c *Context) Figure7() ([]SweepRow, error) {
	var rows []SweepRow
	tasks := []workload.Task{workload.Summarization, workload.Translation, workload.ConvQA1}
	if c.Quick {
		tasks = tasks[:1]
	}
	for _, task := range tasks {
		d, err := c.Deploy(model.OPT13B, hw.A40Cluster, 4, task)
		if err != nil {
			return nil, err
		}
		bounds, err := d.FTBounds()
		if err != nil {
			return nil, err
		}
		if c.Quick {
			bounds = []float64{bounds[1], math.Inf(1)}
		}
		reqs, err := c.RequestStream(task, 0)
		if err != nil {
			return nil, err
		}
		for _, bound := range bounds {
			for _, sys := range []baselines.System{baselines.FT, baselines.DSI, baselines.ORCA, baselines.VLLM} {
				tput, err := d.RunBaseline(sys, bound, reqs)
				if err != nil {
					return nil, err
				}
				rows = append(rows, SweepRow{
					Model: d.Model.Name, Cluster: d.Cluster.Name, GPUs: d.Cluster.TotalGPUs(),
					Task: task.ID, Bound: bound, System: sys.String(), Tput: tput, Feasible: tput > 0,
				})
			}
		}
	}
	return rows, nil
}

// Figure8 compares ExeGPT (RRA only; WAA exceeds memory, §7.4) against
// FT on the large models with tasks G, C1 and C2: a sweep with the RRA
// group alone.
func (c *Context) Figure8() ([]SweepRow, error) {
	deps := []sched.Deployment{
		{Model: model.GPT3101B, Cluster: hw.A100Cluster, GPUs: 16},
		{Model: model.GPT3175B, Cluster: hw.A100Cluster, GPUs: 16},
		{Model: model.GPT3341B, Cluster: hw.A40Cluster, GPUs: 48},
	}
	if c.Quick {
		deps = deps[:1]
	}
	tasks := []workload.Task{workload.CodeGeneration, workload.ConvQA1, workload.ConvQA2}
	if c.Quick {
		tasks = tasks[:1]
	}
	return c.Sweep(SweepGrid{Deployments: deps, Tasks: tasks,
		Policies: [][]sched.Policy{{sched.RRA}}, Workers: c.Workers})
}

// MemoryCell is one bar group of Figure 9.
type MemoryCell struct {
	Model, Task string
	// Per-GPU memory in bytes, split into model weights and KV cache.
	FTWeights, FTKV         int64
	WAAEncWeights, WAAEncKV int64
	WAADecWeights, WAADecKV int64
	WAAPolicy               string
	EncGPUs, DecGPUs        int
}

// Figure9 measures the per-GPU memory usage of FT versus WAA's encoder
// and decoder GPUs at the infinite latency bound (§7.3).
func (c *Context) Figure9() ([]MemoryCell, error) {
	var cells []MemoryCell
	type combo struct {
		m    model.Model
		cl   hw.Cluster
		gpus int
	}
	combos := []combo{{model.OPT13B, hw.A40Cluster, 4}, {model.GPT3101B, hw.A100Cluster, 16}}
	if c.Quick {
		combos = combos[:1]
	}
	for _, cb := range combos {
		for _, task := range []workload.Task{workload.Translation, workload.CodeGeneration} {
			d, err := c.Deploy(cb.m, cb.cl, cb.gpus, task)
			if err != nil {
				return nil, err
			}
			// FT at its max feasible batch (LB = inf).
			ft, err := baselines.New(baselines.FT, d.Model, d.Cluster, d.Prof)
			if err != nil {
				return nil, err
			}
			b := ft.MaxFeasibleBatch(d.In.Mean(), d.Task.Out.Max, 512)
			reqs, err := c.RequestStream(task, 0)
			if err != nil {
				return nil, err
			}
			ftRes, err := ft.Run(max(b, 4), reqs, d.Task.Out.Max)
			if err != nil {
				return nil, err
			}
			cell := MemoryCell{
				Model: cb.m.Name, Task: task.ID,
				FTWeights: ftRes.WeightBytes, FTKV: ftRes.PeakMem - ftRes.WeightBytes,
			}

			// WAA at its unconstrained optimum.
			res, err := d.Sch.FindBest([]sched.Policy{sched.WAAC, sched.WAAM}, math.Inf(1))
			if err != nil {
				return nil, err
			}
			if res.Found {
				est := res.Best
				cell.WAAPolicy = est.Config.Policy.String()
				cell.EncGPUs, cell.DecGPUs = est.Alloc.EncGPUs, est.Alloc.DecGPUs
				encW, decW := waaWeightBytes(d, est.Alloc)
				cell.WAAEncWeights, cell.WAADecWeights = encW, decW
				cell.WAAEncKV = est.PeakEncMem - encW
				cell.WAADecKV = est.PeakDecMem - decW
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

func waaWeightBytes(d *Deployment, alloc sched.Allocation) (enc, dec int64) {
	for _, st := range alloc.Stages {
		w := sched.WeightBytesPerGPU(d.Model, st)
		switch st.Role {
		case sched.RoleEncode:
			if w > enc {
				enc = w
			}
		case sched.RoleDecode:
			if w > dec {
				dec = w
			}
		}
	}
	return enc, dec
}

// Figure10 evaluates FT and ExeGPT on the real-world dataset emulations
// (WMT, Alpaca, CNN/DailyMail) with two latency bounds, estimating the
// distribution from 10% of the data and evaluating on the rest (§7.5).
func (c *Context) Figure10() ([]SweepRow, error) {
	var rows []SweepRow
	type combo struct {
		m    model.Model
		cl   hw.Cluster
		gpus int
	}
	combos := []combo{{model.OPT13B, hw.A40Cluster, 4}, {model.GPT339B, hw.A40Cluster, 16}}
	if c.Quick {
		combos = combos[:1]
	}
	datasets := workload.RealDatasets
	if c.Quick {
		datasets = datasets[:1]
	}
	for _, cb := range combos {
		for _, task := range datasets {
			// Draw the full stream first, split 10/90.
			g, err := workload.NewGenerator(task, c.Seed)
			if err != nil {
				return nil, err
			}
			all := g.Batch(c.Requests * 10 / 9)
			est, eval := workload.Split(all, 0.1)
			inObs, outObs, err := workload.EstimateDists(est)
			if err != nil {
				return nil, err
			}
			td, err := c.Deploy(cb.m, cb.cl, cb.gpus, task)
			if err != nil {
				return nil, err
			}
			// FT's bounds and batch pick and both searches see only the
			// distributions observed on the 10% sample.
			d, err := td.Redeploy(inObs, outObs)
			if err != nil {
				return nil, err
			}
			bounds, err := d.FTBounds()
			if err != nil {
				return nil, err
			}
			// 30% and infinity.
			cr, err := d.measureCell([]float64{bounds[1], math.Inf(1)}, eval, defaultPolicyGroups())
			if err != nil {
				return nil, err
			}
			rows = append(rows, cr.Rows...)
		}
	}
	return rows, nil
}

// ShiftCell is one bar group of Figure 11: the throughput of the
// non-adjusted versus re-optimized schedule and the p99 latency under a
// shifted output distribution.
type ShiftCell struct {
	// Dimension is "avg", "std" or "skew"; Value the multiplier (avg,
	// std) or absolute skewness.
	Dimension string
	Value     float64
	// NonAdjustedTput runs the stale schedule; OptimalTput re-schedules.
	NonAdjustedTput float64
	OptimalTput     float64
	// P99Latency of the stale schedule, normalized to the unshifted
	// distribution's p99 latency.
	P99LatencyNorm float64
	// MeetsBound reports whether the stale schedule still satisfies the
	// original latency bound at p99.
	MeetsBound bool
}

// Figure11 evaluates WAA under changing sequence distributions: the
// schedule is fixed for the base translation distribution, then the
// actual distribution's average, standard deviation, or skewness
// changes (§7.6).
func (c *Context) Figure11() ([]ShiftCell, error) {
	task := workload.Translation
	d, err := c.Deploy(model.OPT13B, hw.A40Cluster, 4, task)
	if err != nil {
		return nil, err
	}
	bounds, err := d.FTBounds()
	if err != nil {
		return nil, err
	}
	bound := bounds[1] // bottom 30% (§7.6)

	// Base schedule (WAA only; RRA adapts without re-allocation, §7.6).
	// The 30% bound and its 70% fallback share one amortized search.
	cand, err := d.Sch.FindBestMany([]sched.Policy{sched.WAAC, sched.WAAM},
		[]float64{bounds[1], bounds[2]})
	if err != nil {
		return nil, err
	}
	base := cand[0]
	if !base.Found {
		// Fall back to the looser bound if 30% is unreachable for WAA.
		bound = bounds[2]
		base = cand[1]
		if !base.Found {
			return nil, fmt.Errorf("experiments: no feasible WAA schedule for figure 11")
		}
	}
	baseReqs, err := c.RequestStream(task, 0)
	if err != nil {
		return nil, err
	}
	baseRun, err := d.Run.Run(base.Best.Config, base.Best.Alloc, baseReqs)
	if err != nil {
		return nil, err
	}
	baseP99 := baseRun.Stats.P99Lat

	type variant struct {
		dim   string
		value float64
		out   *seqdist.Dist
	}
	var variants []variant
	mean, std := d.Out.Mean(), d.Out.Std()
	avgFactors := []float64{0.7, 0.85, 1.15, 1.3}
	stdFactors := []float64{0.7, 1.3}
	skews := []float64{-0.41, -0.2, 0.2, 0.41}
	if c.Quick {
		avgFactors = []float64{0.7, 1.3}
		stdFactors = []float64{1.3}
		skews = []float64{0.41}
	}
	for _, f := range avgFactors {
		dist, err := seqdist.NewTruncNormal(mean*f, std, int(float64(task.Out.Max)*math.Max(f, 1)))
		if err != nil {
			return nil, err
		}
		variants = append(variants, variant{"avg", f, dist})
	}
	for _, f := range stdFactors {
		dist, err := seqdist.NewTruncNormal(mean, std*f, task.Out.Max)
		if err != nil {
			return nil, err
		}
		variants = append(variants, variant{"std", f, dist})
	}
	for _, sk := range skews {
		dist, err := seqdist.NewSkewNormalMoments(mean, std, sk, task.Out.Max+160)
		if err != nil {
			return nil, err
		}
		variants = append(variants, variant{"skew", sk, dist})
	}

	var cells []ShiftCell
	for _, v := range variants {
		// Sample evaluation requests from the shifted distribution.
		shifted := task
		reqs, err := shiftedRequests(c, shifted, v.out)
		if err != nil {
			return nil, err
		}
		// Non-adjusted: stale schedule.
		staleRun, err := d.Run.Run(base.Best.Config, base.Best.Alloc, reqs)
		var staleTput, p99 float64
		if err == nil {
			staleTput = staleRun.Stats.EffectiveTput()
			p99 = staleRun.Stats.P99Lat
		}
		// Optimal: re-schedule for the shifted distribution.
		shift, err := d.Redeploy(d.In, v.out)
		if err != nil {
			return nil, err
		}
		opt, err := shift.Sch.FindBest([]sched.Policy{sched.WAAC, sched.WAAM}, bound)
		if err != nil {
			return nil, err
		}
		optTput := 0.0
		if opt.Found {
			if optRun, err := d.Run.Run(opt.Best.Config, opt.Best.Alloc, reqs); err == nil {
				optTput = optRun.Stats.EffectiveTput()
			}
		}
		cells = append(cells, ShiftCell{
			Dimension: v.dim, Value: v.value,
			NonAdjustedTput: staleTput, OptimalTput: optTput,
			P99LatencyNorm: p99 / math.Max(baseP99, 1e-12),
			MeetsBound:     p99 < bound,
		})
	}
	return cells, nil
}

// shiftedRequests samples correlated requests with a replaced output
// marginal.
func shiftedRequests(c *Context, task workload.Task, out *seqdist.Dist) ([]workload.Request, error) {
	in, err := task.In.Dist()
	if err != nil {
		return nil, err
	}
	biv := seqdist.Bivariate{In: in, Out: out, Rho: 0}
	r := rand.New(rand.NewSource(c.Seed + 1))
	reqs := make([]workload.Request, c.Requests)
	for i := range reqs {
		x, y := biv.Sample(r)
		reqs[i] = workload.Request{ID: i, InLen: x, OutLen: y}
	}
	return reqs, nil
}
