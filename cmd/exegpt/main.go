// Command exegpt is the CLI entry point for the ExeGPT reproduction:
// constraint-aware schedule search (§5), experiment sweeps, and the
// paper's figure/table regenerators (§7), all on the simulated
// substrate.
//
// Usage:
//
//	exegpt search  [flags]   find the best schedule for one deployment
//	exegpt serve   [flags]   long-lived simulated serving loop: open-loop
//	                         arrivals (-arrival, -rate), windowed SLO
//	                         reporting, adaptive schedule switching gated
//	                         by -switch-cost; -json writes the artifact
//	exegpt sweep   [flags]   grid-evaluate deployments x tasks; -json
//	                         writes the merged artifact
//	exegpt figures [flags]   regenerate paper figures (6-11)
//	exegpt tables  [flags]   regenerate paper tables (1-7, cost)
//	exegpt bench   [flags]   measure the Estimate/FindBest hot paths
//
// Every subcommand accepts -seed, -workers, -requests, -quick,
// -profile-cache, -cpuprofile and -memprofile; run `exegpt <command> -h`
// for the full flag list.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"exegpt/internal/experiments"
	"exegpt/internal/hw"
	"exegpt/internal/model"
	"exegpt/internal/sched"
	"exegpt/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "search":
		err = cmdSearch(args)
	case "serve":
		err = cmdServe(args)
	case "sweep":
		err = cmdSweep(args)
	case "figures":
		err = cmdFigures(args)
	case "tables":
		err = cmdTables(args)
	case "bench":
		err = cmdBench(args)
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "exegpt: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if perr := prof.stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "exegpt %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: exegpt <command> [flags]

Commands:
  search    find the best schedule for one (model, cluster, task) deployment
  serve     long-lived simulated serving: seeded open-loop arrivals (poisson,
            mmpp, diurnal or step) admitted incrementally, per-window
            p50/p99-vs-SLO time series, and a controller that re-searches on
            workload drift and switches schedules when the projected gain
            beats the modeled drain + re-shard cost (-switch-cost); same
            seed and flags produce a byte-identical -json artifact
  sweep     grid-evaluate deployments x tasks, parallel across deployments;
            -json writes the merged rows, evals and frontiers
  figures   regenerate the paper's figures (6, 7, 8, 9, 10, 11)
  tables    regenerate the paper's tables (1-7) and the scheduling-cost study
  bench     measure Estimate/s and FindBest wall time, write BENCH_estimate.json

Run "exegpt <command> -h" for command flags.
`)
}

// commonFlags registers the flags shared by every subcommand and
// returns a constructor for the configured experiment context.
func commonFlags(fs *flag.FlagSet) func() *experiments.Context {
	seed := fs.Int64("seed", 42, "request-sampling seed")
	workers := fs.Int("workers", 0, "scheduler/sweep worker count (0 = GOMAXPROCS)")
	requests := fs.Int("requests", 0, "requests per measured run (0 = context default)")
	quick := fs.Bool("quick", false, "shrink sweeps for fast runs")
	profileCache := fs.String("profile-cache", "",
		"directory for the on-disk profile.Table JSON cache, keyed by (model, GPU); empty disables")
	prof.register(fs)
	return func() *experiments.Context {
		c := experiments.NewContext()
		if *quick {
			c = experiments.NewQuickContext()
		}
		c.Seed = *seed
		c.Workers = *workers
		if *requests > 0 {
			c.Requests = *requests
		}
		c.ProfileCacheDir = *profileCache
		return c
	}
}

// parsePolicies maps a policy-set name to scheduler policy groups.
// "rra" and "waa" select one family; "all" searches both paper
// families. "disagg" opts into the experimental disaggregated
// prefill/decode family, which "all" deliberately excludes.
func parsePolicies(name string) ([][]sched.Policy, error) {
	switch strings.ToLower(name) {
	case "rra":
		return [][]sched.Policy{{sched.RRA}}, nil
	case "waa":
		return [][]sched.Policy{{sched.WAAC, sched.WAAM}}, nil
	case "disagg":
		return [][]sched.Policy{{sched.Disagg}}, nil
	case "all", "":
		return [][]sched.Policy{{sched.RRA}, {sched.WAAC, sched.WAAM}}, nil
	}
	return nil, fmt.Errorf("unknown policy set %q (want rra, waa, disagg or all)", name)
}

// flattenPolicies merges policy groups into one search set.
func flattenPolicies(groups [][]sched.Policy) []sched.Policy {
	var out []sched.Policy
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// clusterByName resolves a cluster flag value.
func clusterByName(name string) (hw.Cluster, error) {
	switch strings.ToUpper(name) {
	case "A40":
		return hw.A40Cluster, nil
	case "A100":
		return hw.A100Cluster, nil
	}
	return hw.Cluster{}, fmt.Errorf("unknown cluster %q (want A40 or A100)", name)
}

// tasksByIDs resolves a comma-separated task-ID list; empty means the
// paper's five synthetic tasks.
func tasksByIDs(list string) ([]workload.Task, error) {
	if list == "" {
		return workload.Tasks, nil
	}
	var out []workload.Task
	for _, id := range strings.Split(list, ",") {
		t, err := workload.ByID(strings.TrimSpace(id))
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// modelsByNames resolves a comma-separated model-name list; empty means
// every Table 1 model with a default deployment.
func modelsByNames(list string) ([]model.Model, error) {
	if list == "" {
		var out []model.Model
		seen := map[string]bool{}
		for _, d := range sched.DefaultDeployments {
			if !seen[d.Model.Name] {
				seen[d.Model.Name] = true
				out = append(out, d.Model)
			}
		}
		return out, nil
	}
	var out []model.Model
	for _, name := range strings.Split(list, ",") {
		m, err := model.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}
