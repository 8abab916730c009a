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
//
// Every subcommand accepts -seed, -workers, -requests, -quick,
// -cpuprofile and -memprofile; run `exegpt <command> -h` for the full
// flag list.
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

// target is a resolved -model/-cluster/-gpus/-task deployment.
type target struct {
	model   model.Model
	cluster hw.Cluster
	gpus    int
	task    workload.Task
}

// targetFlags registers -model, -cluster, -gpus and -task and returns
// their resolver.
func targetFlags(fs *flag.FlagSet) func() (target, error) {
	modelName := fs.String("model", "OPT-13B", "model name (Table 1)")
	clusterName := fs.String("cluster", "", "cluster (A40 or A100; default: the model's Table 2 cluster)")
	gpus := fs.Int("gpus", 0, "GPUs to deploy on (default: the model's Table 2 count)")
	taskID := fs.String("task", "S", "task ID (S, T, G, C1, C2, wmt, alpaca, cnn)")
	return func() (target, error) {
		return resolveTarget(*modelName, *clusterName, *gpus, *taskID)
	}
}

// resolveTarget resolves a deployment's flag values. The cluster and
// GPU count default to the model's Table 2 deployment; a model without
// one needs both given explicitly.
func resolveTarget(modelName, clusterName string, gpus int, taskID string) (target, error) {
	m, err := model.ByName(modelName)
	if err != nil {
		return target{}, err
	}
	dep, err := sched.DeploymentFor(m.Name)
	if err != nil && (clusterName == "" || gpus == 0) {
		return target{}, err
	}
	t := target{model: m, cluster: dep.Cluster, gpus: dep.GPUs}
	if clusterName != "" {
		if t.cluster, err = clusterByName(clusterName); err != nil {
			return target{}, err
		}
	}
	if gpus > 0 {
		t.gpus = gpus
	}
	if t.task, err = workload.ByID(taskID); err != nil {
		return target{}, err
	}
	return t, nil
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
// paper's five synthetic tasks. A task listed twice is an error.
func tasksByIDs(list string) ([]workload.Task, error) {
	if list == "" {
		return workload.Tasks, nil
	}
	var out []workload.Task
	seen := map[string]bool{}
	for _, id := range strings.Split(list, ",") {
		t, err := workload.ByID(strings.TrimSpace(id))
		if err != nil {
			return nil, err
		}
		if seen[t.ID] {
			return nil, fmt.Errorf("task %q listed twice", t.ID)
		}
		seen[t.ID] = true
		out = append(out, t)
	}
	return out, nil
}

// modelsByNames resolves a comma-separated model-name list; empty means
// every Table 1 model with a default deployment. A model listed twice is
// an error.
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
	seen := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		m, err := model.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("model %q listed twice", m.Name)
		}
		seen[m.Name] = true
		out = append(out, m)
	}
	return out, nil
}
