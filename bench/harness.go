package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"

	"exegpt/internal/experiments"
	"exegpt/internal/sched"
	"exegpt/internal/workload"
)

// workloadRun is one workload's fixed work. setup and the passes run in
// one process, one after another.
type workloadRun interface {
	// setup builds cold everything the passes need; it runs several
	// times and the last product is kept.
	setup() error
	// warmup runs one untimed pass plus the once-per-run checks, puts
	// the workload's simulated metrics and returns the reference outputs.
	warmup(res *result) (passOut, error)
	// pass runs one pass of fixed work, with spans when tr is not nil.
	pass(tr *tracer) (passOut, error)
	// workers is how many operations of a pass run at once.
	workers() int
}

// passOut is what one pass produced.
type passOut struct {
	ops     []string
	digests map[string]string
	// opMs are per-operation host times the workload reports itself
	// (search-cost: each FindBestMany call).
	opMs []float64
	// counts are exact per-pass work counts by metric name.
	counts map[string]float64
}

func newPassOut() passOut {
	return passOut{digests: map[string]string{}, counts: map[string]float64{}}
}

// add records operation op and the digest of its output bytes.
func (p *passOut) add(op string, data []byte) {
	sum := sha256.Sum256(data)
	p.ops = append(p.ops, op)
	p.digests[op] = hex.EncodeToString(sum[:])
}

// config sizes a run.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	toy       bool
	minPasses int
	// setupReps is the least number of cold set-ups; quick set-ups
	// repeat until setupBudget has been spent, up to 50 times, so that
	// their median is not one noisy sample.
	setupReps int
	probeReps int
	// pinned are the committed digests to hold the reference outputs
	// to; nil skips that check.
	pinned map[string]string
}

// stamp identifies the build and machine a result came from.
type stamp struct {
	Go         string `json:"go"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	Seed       int64  `json:"seed"`
	Revision   string `json:"revision"`
	Modified   bool   `json:"modified"`
	Unix       int64  `json:"unix"`
}

func newStamp(seed int64, workers int) stamp {
	s := stamp{Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers: workers, Seed: seed, Revision: "unknown", Unix: time.Now().Unix()}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			switch kv.Key {
			case "vcs.revision":
				s.Revision = kv.Value
			case "vcs.modified":
				s.Modified = kv.Value == "true"
			}
		}
	}
	return s
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run, as written to the result file.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Stamp     stamp             `json:"stamp"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	SetupS    []float64         `json:"setup_runs_s"`
	PassWallS []float64         `json:"pass_wall_s"`
	Metrics   map[string]metric `json:"metrics"`
	Digests   map[string]string `json:"digests,omitempty"`

	spans []span
}

func (r *result) put(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed operation or check.
func (r *result) fail(what, why string) {
	r.Failed++
	r.Failures = append(r.Failures, what+": "+why)
}

// check compares one pass's outputs with the reference and counts every
// operation as attempted, and every mismatch as failed.
func (r *result) check(ref, got passOut) {
	for _, op := range ref.ops {
		r.Attempted++
		if got.digests[op] != ref.digests[op] {
			r.fail(op, "output differs from the reference pass")
		}
	}
	if len(got.ops) != len(ref.ops) {
		r.fail("pass", fmt.Sprintf("%d operations, reference had %d", len(got.ops), len(ref.ops)))
	}
}

// procSample is the process counters passes are charged against.
type procSample struct {
	cpu            time.Duration
	alloc, mallocs uint64
	gcCPU, allCPU  float64
}

var procMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(procMetrics)
	return procSample{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc, mallocs: ms.Mallocs,
		gcCPU: procMetrics[0].Value.Float64(), allCPU: procMetrics[1].Value.Float64(),
	}
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timedPass runs one pass and charges it its wall time and process
// counters.
type timedPass struct {
	out  passOut
	wall time.Duration
	proc [4]float64 // cpu_s, alloc_mb, mallocs, gc_cpu_frac
}

func runPass(w workloadRun, tr *tracer) (timedPass, error) {
	before := sampleProc()
	t0 := time.Now()
	out, err := w.pass(tr)
	wall := time.Since(t0)
	after := sampleProc()
	tp := timedPass{out: out, wall: wall}
	tp.proc[0] = (after.cpu - before.cpu).Seconds()
	tp.proc[1] = float64(after.alloc-before.alloc) / (1 << 20)
	tp.proc[2] = float64(after.mallocs - before.mallocs)
	if d := after.allCPU - before.allCPU; d > 0 {
		tp.proc[3] = (after.gcCPU - before.gcCPU) / d
	}
	return tp, err
}

// runWorkload is one benchmark run of one workload in this process:
// timed cold set-ups, an untimed warm-up, then passes until the time is
// up. A traced run alternates untraced and traced passes and then runs
// the layer probes.
func runWorkload(cfg config, log io.Writer) (*result, error) {
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.toy)
	if err != nil {
		return nil, err
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n || w.workers() > n {
		return nil, fmt.Errorf("refusing to run: GOMAXPROCS %d, workers %d, but only %d CPUs",
			runtime.GOMAXPROCS(0), w.workers(), n)
	}
	res := &result{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		Stamp: newStamp(cfg.seed, w.workers()), Metrics: map[string]metric{}}

	for i := 0; i < cfg.setupReps || (i < 50 && sum(res.SetupS) < setupBudget); i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
	}
	res.put("setup_s", median(res.SetupS), "s")
	fmt.Fprintf(log, "%s: setup %.6fs (median of %d)\n", cfg.workload, median(res.SetupS), len(res.SetupS))

	ref, err := w.warmup(res)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	res.check(ref, ref)
	res.Digests = ref.digests
	if cfg.pinned != nil {
		for _, op := range ref.ops {
			if cfg.pinned[op] != ref.digests[op] {
				res.fail(op, "output differs from the digest pinned in bench/digests.json")
			}
		}
		if len(cfg.pinned) != len(ref.ops) {
			res.fail("pinned digests", fmt.Sprintf("%d pinned, %d produced", len(cfg.pinned), len(ref.ops)))
		}
	}

	var plain, traced []timedPass
	var opMs []float64
	var bds []breakdown
	tr := newTracer()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for p := 1; ; p++ {
		tracedPass := cfg.trace && p%2 == 0
		done := len(plain) >= cfg.minPasses && (!cfg.trace || len(traced) >= cfg.minPasses)
		if done && !time.Now().Before(deadline) {
			break
		}
		var t *tracer
		if tracedPass {
			t = tr
			t.pass = p
		}
		tp, err := runPass(w, t)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", p, err)
		}
		res.check(ref, tp.out)
		if tracedPass {
			traced = append(traced, tp)
			spans := tr.passSpans(p)
			bds = append(bds, layerBreakdown(spans, tp.wall, w.workers()))
			res.spans = append(res.spans, spans...)
		} else {
			plain = append(plain, tp)
			res.PassWallS = append(res.PassWallS, tp.wall.Seconds())
			opMs = append(opMs, tp.out.opMs...)
		}
		fmt.Fprintf(log, "%s: pass %d %s %.3fs\n", cfg.workload, p, map[bool]string{true: "traced", false: "plain"}[tracedPass], tp.wall.Seconds())
	}
	res.put("wall_s", median(res.PassWallS), "s")
	res.put("wall_min_s", minOf(res.PassWallS), "s")
	if _, ok := w.(*searchCost); ok {
		res.put("search_ms_p50", median(opMs), "ms")
		res.put("search_ms_p99", percentile(opMs, 0.99), "ms")
		res.put("search_samples", float64(len(opMs)), "count")
	}
	if cfg.trace {
		if err := res.putLayers(plain, traced, bds); err != nil {
			return nil, err
		}
		if err := runProbes(res, cfg); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
	}
	res.put("failed_frac", float64(res.Failed)/math.Max(1, float64(res.Attempted)), "share")
	res.put("peak_rss_mb", peakRSSMB(), "MB")
	res.Correct = res.Failed == 0
	return res, nil
}

// spanLayers are the layers the benchmark's spans call into; "bench" is
// the harness's own code between those calls.
var spanLayers = []string{"bench", "experiments", "workload", "core", "runner", "baselines", "serve"}

// putLayers derives the per-layer metrics of the traced passes.
func (r *result) putLayers(plain, traced []timedPass, bds []breakdown) error {
	for _, l := range spanLayers {
		var shares []float64
		for _, b := range bds {
			shares = append(shares, float64(b.self[l])/float64(b.lanes))
		}
		r.put(l+".share", median(shares), "share")
	}
	var eff, ops []float64
	for i, b := range bds {
		// Self times partition the operations' time exactly; a gap
		// means spans overlapped where they must nest.
		if d := b.selfTotal() - b.roots; math.Abs(float64(d)) > 0.05*float64(b.lanes) {
			return fmt.Errorf("traced pass %d: layer self times sum to %dns, operations to %dns", i, b.selfTotal(), b.roots)
		}
		eff = append(eff, float64(b.roots)/float64(b.lanes))
		ops = append(ops, b.ops...)
	}
	r.put("experiments.fanout_eff", median(eff), "share")
	r.put("experiments.cell_ms_p50", median(ops), "ms")
	r.put("experiments.cell_ms_max", maxOf(ops), "ms")

	counts := []string{"core.searches", "core.evals", "core.frontier_points", "runner.runs",
		"runner.iterations", "runner.compactions", "runner.runtime_oom", "baselines.runs",
		"serve.searches", "serve.switches"}
	for _, c := range counts {
		r.put(c, traced[0].out.counts[c], "count")
	}
	for _, t := range traced[1:] {
		for _, c := range counts {
			if t.out.counts[c] != traced[0].out.counts[c] {
				r.fail("counter "+c, "differs between traced passes")
			}
		}
	}

	names := []string{"proc.cpu_s", "proc.alloc_mb", "proc.mallocs", "proc.gc_cpu_frac"}
	units := []string{"s", "MB", "count", "share"}
	for i, n := range names {
		var xs []float64
		for _, p := range plain {
			xs = append(xs, p.proc[i])
		}
		r.put(n, median(xs), units[i])
	}
	var tw, pw []float64
	for _, t := range traced {
		tw = append(tw, t.wall.Seconds())
	}
	for _, p := range plain {
		pw = append(pw, p.wall.Seconds())
	}
	r.put("trace.overhead_frac", (median(tw)-median(pw))/median(pw), "share")
	return nil
}

// setupCell is one (deployment, task) as every workload sets it up.
type setupCell struct {
	name   string
	d      *experiments.Deployment
	bounds []float64
}

// coldSetup is what set-up means for every workload: on a fresh Context,
// for each (deployment, task), its profile table and Deployment, the
// FT-derived bounds and the request stream.
func coldSetup(seed int64, deps []sched.Deployment, tasks []workload.Task) ([]setupCell, error) {
	ctx := experiments.NewContext()
	ctx.Seed = seed
	cells := make([]setupCell, 0, len(deps)*len(tasks))
	for _, dep := range deps {
		for _, task := range tasks {
			name := fmt.Sprintf("%s/%s/%d/%s", dep.Model.Name, dep.Cluster.Name, dep.GPUs, task.ID)
			d, err := ctx.Deploy(dep.Model, dep.Cluster, dep.GPUs, task)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			bounds, err := d.FTBounds()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			if _, err := ctx.RequestStream(task, 0); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			cells = append(cells, setupCell{name: name, d: d, bounds: bounds})
		}
	}
	return cells, nil
}

func newWorkload(name string, seed int64, toy bool) (workloadRun, error) {
	switch name {
	case "sweep-paper":
		return newSweepPaper(seed, toy)
	case "search-cost":
		return newSearchCost(toy), nil
	case "serve-ladder":
		return newServeLadder(seed, toy), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// workloadNames lists the workloads in the order the plain run uses.
var workloadNames = []string{"sweep-paper", "search-cost", "serve-ladder"}

// setupBudget is the set-up time after which quick set-ups stop
// repeating.
const setupBudget = 0.5

// minPasses is how many timed passes each workload runs at least: the
// sweep's median needs a few, and search-cost needs 1000 searches so
// that its p99 has ten samples beyond it.
var minPasses = map[string]int{"sweep-paper": 3, "search-cost": 9, "serve-ladder": 3}
