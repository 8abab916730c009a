package main

import (
	"flag"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"

	"exegpt/internal/sched"
)

// cmdSearch finds the best schedule for one deployment under each
// latency bound in one amortized search, prints one selection per
// bound, and with -run executes each distinct selected schedule once on
// XRunner.
func cmdSearch(args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	newCtx := commonFlags(fs)
	resolve := targetFlags(fs)
	policySet := fs.String("policies", "all", "policy set: rra, waa, disagg or all")
	lbound := fs.Float64("lbound", 0, "latency bound in seconds (0 = unconstrained)")
	lbounds := fs.String("lbounds", "",
		"comma-separated latency bounds (e.g. 0.5,1,Inf): one amortized multi-bound search; overrides -lbound")
	maxBatch := fs.Int("maxbatch", 0, "cap the decoder-batch search axis (0 = scheduler default)")
	maxND := fs.Int("maxnd", 0, "cap the encoding-interval search axis (0 = scheduler default)")
	minLat := fs.Bool("minlat", false, "also report the lowest achievable latency (full grid scan)")
	execute := fs.Bool("run", false, "execute the selected schedule on XRunner and report measured stats")
	if err := fs.Parse(args); err != nil {
		return err
	}

	tgt, err := resolve()
	if err != nil {
		return err
	}
	groups, err := parsePolicies(*policySet)
	if err != nil {
		return err
	}
	policies := flattenPolicies(groups)

	ctx := newCtx()
	d, err := ctx.Deploy(tgt.model, tgt.cluster, tgt.gpus, tgt.task)
	if err != nil {
		return err
	}
	if *maxBatch > 0 {
		d.Sch.MaxBatch = *maxBatch
	}
	if *maxND > 0 {
		d.Sch.MaxND = *maxND
	}

	bounds := []float64{*lbound}
	if *lbounds != "" {
		if bounds, err = parseBounds(*lbounds); err != nil {
			return err
		}
	} else if *lbound <= 0 {
		bounds[0] = math.Inf(1)
	}
	workers := d.Sch.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	spelled := make([]string, len(bounds))
	for i, b := range bounds {
		spelled[i] = fmtSeconds(b)
	}
	fmt.Printf("search: %s on %dx %s, task %s, bounds %s, %d workers\n",
		tgt.model.Name, tgt.gpus, tgt.cluster.Name, tgt.task.ID, strings.Join(spelled, ","), workers)

	if *minLat {
		min, err := d.Sch.MinLatency(policies)
		if err != nil {
			return err
		}
		fmt.Printf("lowest achievable latency: %.3f s\n", min)
	}
	ress, err := d.Sch.FindBestMany(policies, bounds)
	if err != nil {
		return err
	}
	for i, res := range ress {
		if !res.Found {
			fmt.Printf("bound %-10s NS after %d evaluations\n", spelled[i], res.Evals)
			continue
		}
		best := res.Best
		fmt.Printf("bound %-10s %s %s: %.2f seq/s at %.3f s latency (%d evaluations)\n",
			spelled[i], best.Config.Policy, best.Config, best.Throughput, best.Latency, res.Evals)
		if best.Alloc.EncGPUs > 0 || best.Alloc.DecGPUs > 0 {
			fmt.Printf("%17sallocation: %d encode / %d decode GPUs\n", "", best.Alloc.EncGPUs, best.Alloc.DecGPUs)
		}
	}
	fmt.Printf("total: %d evaluations, %d frontier points\n", d.Sch.Evals, d.Sch.Frontier.Len())
	if !*execute {
		return nil
	}
	reqs, err := ctx.RequestStream(tgt.task, 0)
	if err != nil {
		return err
	}
	ran := map[sched.Config]bool{}
	for i, res := range ress {
		if !res.Found || ran[res.Best.Config] {
			continue
		}
		ran[res.Best.Config] = true
		out, err := d.Run.Run(res.Best.Config, res.Best.Alloc, reqs)
		if err != nil {
			return err
		}
		fmt.Printf("measured %s (bound %s): %.2f seq/s total, %.2f seq/s steady, p99 latency %.3f s (%d requests)\n",
			res.Best.Config, spelled[i], out.Stats.Throughput, out.Stats.SteadyTput, out.Stats.P99Lat, len(reqs))
	}
	return nil
}

// parseBounds parses a comma-separated latency-bound list; "Inf" (any
// case) or a non-positive value means unconstrained.
func parseBounds(list string) ([]float64, error) {
	var out []float64
	for _, tok := range strings.Split(list, ",") {
		tok = strings.TrimSpace(tok)
		if strings.EqualFold(tok, "inf") {
			out = append(out, math.Inf(1))
			continue
		}
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil || math.IsNaN(v) {
			return nil, fmt.Errorf("bad bound %q", tok)
		}
		if v <= 0 {
			v = math.Inf(1)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty bound list")
	}
	return out, nil
}

func fmtSeconds(s float64) string {
	if math.IsInf(s, 1) {
		return "Inf"
	}
	return fmt.Sprintf("%.3fs", s)
}
