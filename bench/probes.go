package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"exegpt/internal/baselines"
	"exegpt/internal/core"
	"exegpt/internal/eventsim"
	"exegpt/internal/experiments"
	"exegpt/internal/hw"
	"exegpt/internal/kvcache"
	"exegpt/internal/metrics"
	"exegpt/internal/model"
	"exegpt/internal/profile"
	"exegpt/internal/runner"
	"exegpt/internal/sched"
	"exegpt/internal/serve"
	"exegpt/internal/workload"
)

// The layer probes time each layer on fixed work of its own, the same
// in every workload's traced run: OPT-13B on 4 A40s serving task S, with
// request streams drawn from the run's seed. They give the per-layer
// costs that a workload's own pass hides inside another layer's call
// (kvcache inside runner, the controller inside serve) or never calls.

// probeTimer collects repeated timings of one probe.
type probeTimer []float64

// time runs fn once and records its duration in seconds.
func (p *probeTimer) time(fn func() error) error {
	t0 := time.Now()
	err := fn()
	*p = append(*p, time.Since(t0).Seconds())
	return err
}

func (p probeTimer) ms() float64 { return median(p) * 1e3 }

func runProbes(res *result, cfg config) error {
	reps, scale := cfg.probeReps, 1
	if cfg.toy {
		scale = 10
	}
	task := workload.Summarization
	sub, err := hw.A40Cluster.Sub(4)
	if err != nil {
		return err
	}

	var build probeTimer
	for i := 0; i < reps; i++ {
		if err := build.time(func() error {
			p, err := profile.New(model.OPT13B, sub)
			if err == nil {
				p.Run()
			}
			return err
		}); err != nil {
			return err
		}
	}
	res.put("profile.build_ms", build.ms(), "ms")

	ctx := experiments.NewContext()
	ctx.Seed = cfg.seed
	d, err := ctx.Deploy(model.OPT13B, hw.A40Cluster, 4, task)
	if err != nil {
		return err
	}
	var deploy probeTimer
	for i := 0; i < reps; i++ {
		if err := deploy.time(func() error {
			_, err := ctx.Deploy(model.OPT13B, hw.A40Cluster, 4, task)
			return err
		}); err != nil {
			return err
		}
	}
	res.put("experiments.deploy_ms", deploy.ms(), "ms")

	genN := 20000 / scale
	var gen probeTimer
	for i := 0; i < reps; i++ {
		g, err := workload.NewGenerator(task, cfg.seed)
		if err != nil {
			return err
		}
		_ = gen.time(func() error { g.Batch(genN); return nil })
	}
	res.put("workload.gen_ns_per_req", median(gen)*1e9/float64(genN), "ns")

	var bounds []float64
	var ftb probeTimer
	for i := 0; i < reps; i++ {
		if err := ftb.time(func() (err error) { bounds, err = d.FTBounds(); return err }); err != nil {
			return err
		}
	}
	res.put("baselines.ftbounds_ms", ftb.ms(), "ms")
	reqs, err := ctx.RequestStream(task, 0)
	if err != nil {
		return err
	}
	var ft probeTimer
	for i := 0; i < reps; i++ {
		if err := ft.time(func() error {
			_, err := d.RunBaseline(baselines.FT, bounds[1], reqs)
			return err
		}); err != nil {
			return err
		}
	}
	res.put("baselines.run_ms", ft.ms(), "ms")
	res.put("baselines.sim_req_per_host_s", float64(len(reqs))/median(ft), "1/s")

	// Cold searches, one per policy group, as search-cost does them.
	var search probeTimer
	var evals int
	var picks []core.Estimate
	// unbounded is each group's selection under the infinite bound.
	unbounded := make([]core.Estimate, len(searchGroups))
	for i := 0; i < reps; i++ {
		evals, picks = 0, nil
		var took time.Duration
		for gi, group := range searchGroups {
			nd, err := d.Redeploy(d.In, d.Out)
			if err != nil {
				return err
			}
			t0 := time.Now()
			ress, err := nd.Sch.FindBestMany(group, bounds)
			took += time.Since(t0)
			if err != nil {
				return err
			}
			evals += nd.Sch.Evals
			for _, r := range ress {
				if r.Found {
					picks = append(picks, r.Best)
				}
			}
			last := ress[len(ress)-1]
			if !last.Found {
				return fmt.Errorf("no %s schedule for the probe deployment", groupName(group))
			}
			unbounded[gi] = last.Best
		}
		search = append(search, took.Seconds())
	}
	res.put("core.search_ms", search.ms(), "ms")
	res.put("core.ns_per_eval", median(search)*1e9/float64(evals), "ns")

	var cold, warm probeTimer
	const warmRounds = 200
	for i := 0; i < reps; i++ {
		ev := core.NewEvaluator(d.Sim)
		if err := cold.time(func() error { return estimateAll(ev, picks) }); err != nil {
			return err
		}
		if err := warm.time(func() error {
			for k := 0; k < warmRounds; k++ {
				if err := estimateAll(ev, picks); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	res.put("core.estimate_ns_cold", median(cold)*1e9/float64(len(picks)), "ns")
	res.put("core.estimate_ns_warm", median(warm)*1e9/float64(warmRounds*len(picks)), "ns")

	if err := probeRunner(res, d, unbounded, reqs, reps); err != nil {
		return err
	}
	probeKV(res, reqs, reps, scale)
	probeEvents(res, cfg.seed, reps, scale)
	return probeServe(res, d, cfg.seed, reps, scale)
}

func estimateAll(ev *core.Evaluator, ests []core.Estimate) error {
	for _, e := range ests {
		if _, err := ev.Estimate(e.Config); err != nil {
			return err
		}
	}
	return nil
}

// probeRunner executes the probe deployment's unbounded RRA and WAA
// selections on the run's request stream through the batch engine.
func probeRunner(res *result, d *experiments.Deployment, picks []core.Estimate, reqs []workload.Request, reps int) error {
	names := []string{"runner.rra.ns_per_iter", "runner.waa.ns_per_iter"}
	perIter := make([][]float64, len(picks))
	var total probeTimer
	for i := 0; i < reps; i++ {
		var secs float64
		for pi, est := range picks {
			t0 := time.Now()
			r, err := d.Run.Run(est.Config, est.Alloc, reqs)
			took := time.Since(t0).Seconds()
			if err != nil {
				return fmt.Errorf("runner probe %s: %w", est.Config, err)
			}
			perIter[pi] = append(perIter[pi], took*1e9/float64(max(1, r.Iterations)))
			secs += took
		}
		total = append(total, secs)
	}
	for pi, name := range names {
		res.put(name, median(perIter[pi]), "ns")
	}
	res.put("runner.run_ms", total.ms(), "ms")
	res.put("runner.sim_req_per_host_s", float64(len(picks)*len(reqs))/median(total), "1/s")
	return nil
}

// probeKV replays the batch runner's KV bookkeeping through the public
// kvcache API: keep bd queries decoding, append one token to each per
// iteration, release finished ones and refill, then read LiveTokens and
// compact when fragmentation passes a tenth of the live bytes, as
// runner.maybeCompact does.
func probeKV(res *result, reqs []workload.Request, reps, scale int) {
	const perToken = 1 << 10
	replay := func(m kvcache.Manager, bd, tokens int) float64 {
		type slot struct{ id, left int }
		active := make([]slot, 0, bd)
		next, appended := 0, 0
		t0 := time.Now()
		for appended < tokens {
			for len(active) < bd {
				r := reqs[next%len(reqs)]
				_ = m.Admit(next, r.InLen, r.InLen+r.OutLen) // the tracker is unbounded
				active = append(active, slot{id: next, left: r.OutLen})
				next++
			}
			live := active[:0]
			for _, s := range active {
				if s.left--; s.left <= 0 {
					_ = m.Release(s.id)
					continue
				}
				_ = m.Append(s.id)
				appended++
				live = append(live, s)
			}
			active = live
			liveBytes := max(1, m.LiveTokens()*perToken)
			if c, ok := m.(*kvcache.Compacting); ok && float64(c.FragBytes()) > 0.10*float64(liveBytes) {
				c.Compact()
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(appended)
	}
	unbounded := func() *hw.MemTracker { return hw.NewMemTracker(math.MaxInt64 / 2) }
	for _, p := range []struct {
		name   string
		bd     int
		tokens int
		mgr    func() kvcache.Manager
	}{
		{"kvcache.compacting.ns_per_token_bd64", 64, 400000, func() kvcache.Manager { return kvcache.NewCompacting(unbounded(), perToken) }},
		{"kvcache.compacting.ns_per_token_bd1024", 1024, 1000000, func() kvcache.Manager { return kvcache.NewCompacting(unbounded(), perToken) }},
		{"kvcache.reserved.ns_per_token", 64, 400000, func() kvcache.Manager { return kvcache.NewReserved(unbounded(), perToken) }},
	} {
		var ns []float64
		for i := 0; i < reps; i++ {
			ns = append(ns, replay(p.mgr(), p.bd, p.tokens/scale))
		}
		res.put(p.name, median(ns), "ns")
	}
}

// probeEvents churns the event simulator the way the engines use it:
// 64 chains of After callbacks, each arming a timeout it later cancels.
func probeEvents(res *result, seed int64, reps, scale int) {
	n := 400000 / scale
	rng := rand.New(rand.NewSource(seed))
	gaps := make([]float64, 1024)
	for i := range gaps {
		gaps[i] = rng.Float64()
	}
	var ns []float64
	for i := 0; i < reps; i++ {
		sim := eventsim.New()
		scheduled := 0
		var tick func(chain int)
		timeouts := make([]eventsim.Handle, 64)
		tick = func(chain int) {
			if scheduled >= n {
				return
			}
			timeouts[chain].Cancel()
			timeouts[chain] = sim.After(1+gaps[scheduled%len(gaps)], func() {})
			sim.After(gaps[(scheduled+1)%len(gaps)], func() { tick(chain) })
			scheduled += 2
		}
		t0 := time.Now()
		for c := range timeouts {
			sim.At(gaps[c], func() { tick(c) })
			scheduled++
		}
		sim.Run()
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(scheduled))
	}
	res.put("eventsim.ns_per_event", median(ns), "ns")
}

// probeServe serves one rung (task S at 8 req/s) and replays the same
// arrivals through runner.OpenRun under the same initial schedule; the
// difference is the controller's cost: the initial search, windowing,
// drift checks. It is the median of per-repetition differences, so slow
// drift of the machine cancels.
func probeServe(res *result, d *experiments.Deployment, seed int64, reps, scale int) error {
	opts := serve.Options{Arrival: "poisson", Rate: 8, Duration: 600 / float64(scale), Seed: seed, SLO: 5}
	var run, open probeTimer
	var controller []float64
	for i := 0; i < reps; i++ {
		nd, err := d.Redeploy(d.In, d.Out)
		if err != nil {
			return err
		}
		var rep *serve.Report
		if err := run.time(func() (err error) { rep, err = serve.Run(nd, opts); return err }); err != nil {
			return err
		}
		init, err := initialSchedule(d, rep, opts)
		if err != nil {
			return err
		}
		var got serve.Totals
		if err := open.time(func() (err error) { got, err = openReplay(d, init, opts); return err }); err != nil {
			return err
		}
		controller = append(controller, run[i]-open[i])
		res.Attempted++
		if rep.Totals.Switches != 0 {
			res.fail("open replay", "the probe rung switched schedules, so the replay cannot match it")
		} else if got.Completed != rep.Totals.Completed || got.P99Lat != rep.Totals.P99Lat {
			res.fail("open replay", fmt.Sprintf("completed %d p99 %v, serve.Run had %d and %v",
				got.Completed, got.P99Lat, rep.Totals.Completed, rep.Totals.P99Lat))
		}
	}
	res.put("serve.run_ms", run.ms(), "ms")
	res.put("runner.open_ms", open.ms(), "ms")
	res.put("serve.controller_ms", median(controller)*1e3, "ms")
	return nil
}

// initialSchedule finds the schedule serve.Run started with: the point of
// a fresh search's frontier that the report names.
func initialSchedule(d *experiments.Deployment, rep *serve.Report, opts serve.Options) (core.Estimate, error) {
	nd, err := d.Redeploy(d.In, d.Out)
	if err != nil {
		return core.Estimate{}, err
	}
	all := []sched.Policy{sched.RRA, sched.WAAC, sched.WAAM} // serve.Run's default
	if _, err := nd.Sch.FindBestMany(all, []float64{opts.SLO}); err != nil {
		return core.Estimate{}, err
	}
	for _, p := range nd.Sch.Frontier.Points {
		if p.Est.Config.String() == rep.Initial.Config && p.Throughput == rep.Initial.Tput && p.Latency == rep.Initial.Latency {
			return p.Est, nil
		}
	}
	return core.Estimate{}, fmt.Errorf("initial schedule %s not on the frontier", rep.Initial.Config)
}

// openReplay drives runner.OpenRun directly with serve.Run's arrivals:
// the same arrival process and request generator seeds, pushed window by
// window and run to each window's end, then finished.
func openReplay(d *experiments.Deployment, init core.Estimate, opts serve.Options) (serve.Totals, error) {
	const window = 10 // serve.Options' default
	proc, err := serve.NewProcess(opts.Arrival, opts.Rate, opts.Seed, 0, 0)
	if err != nil {
		return serve.Totals{}, err
	}
	gen, err := workload.NewGenerator(d.Task, opts.Seed+1)
	if err != nil {
		return serve.Totals{}, err
	}
	gen.RandomizeInputs = d.Task.Rho > 0.5
	eng, err := d.Run.Open(init.Config, init.Alloc, 0)
	if err != nil {
		return serve.Totals{}, err
	}
	rec := metrics.NewRecorder()
	eng.OnComplete = func(r runner.QueryRecord) { rec.Add(r.End - r.Start) }
	next := proc.Next()
	for w := 0; w < int(math.Ceil(opts.Duration/window)); w++ {
		winEnd := float64(w+1) * window
		for next <= opts.Duration && next < winEnd {
			eng.Push(gen.Next(), next)
			next = proc.Next()
		}
		if err := eng.RunUntil(winEnd); err != nil {
			return serve.Totals{}, err
		}
	}
	if err := eng.Finish(); err != nil {
		return serve.Totals{}, err
	}
	return serve.Totals{Completed: rec.Count(), P99Lat: rec.Percentile(0.99)}, nil
}
