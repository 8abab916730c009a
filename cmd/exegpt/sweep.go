package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"exegpt/internal/distsweep"
	"exegpt/internal/experiments"
	"exegpt/internal/sched"
)

// cmdSweep grid-evaluates deployments x tasks in one process, parallel
// across deployments, prints the table and optionally writes the merged
// JSON artifact.
func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	newCtx := commonFlags(fs)
	g := gridFlags(fs)
	jsonOut := fs.String("json", "", "write the merged sweep (rows, evals, frontiers) as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctx := newCtx()
	grid, err := g.build(ctx)
	if err != nil {
		return err
	}
	fp, err := ctx.GridFingerprint(grid)
	if err != nil {
		return err
	}
	indices := make([]int, len(grid.Cells()))
	for i := range indices {
		indices[i] = i
	}
	cells, err := ctx.SweepCells(grid, indices)
	if err != nil {
		return err
	}
	merged, err := distsweep.Fold(fp, cells)
	if err != nil {
		return err
	}
	return printMerged(merged, grid, *jsonOut)
}

// gridFlagSet bundles the grid-selection flags of `sweep`.
type gridFlagSet struct {
	models   *string
	gpus     *string
	tasks    *string
	policies *string
}

func gridFlags(fs *flag.FlagSet) *gridFlagSet {
	return &gridFlagSet{
		models:   fs.String("models", "", "comma-separated model names (default: every Table 2 model)"),
		gpus:     fs.String("gpus", "", "comma-separated cluster sizes overriding Table 2 (e.g. 4,8,16)"),
		tasks:    fs.String("tasks", "", "comma-separated task IDs (default: S,T,G,C1,C2)"),
		policies: fs.String("policies", "all", "policy set: rra, waa, disagg or all"),
	}
}

// build resolves the flags into a sweep grid.
func (g *gridFlagSet) build(ctx *experiments.Context) (experiments.SweepGrid, error) {
	tasks, err := tasksByIDs(*g.tasks)
	if err != nil {
		return experiments.SweepGrid{}, err
	}
	groups, err := parsePolicies(*g.policies)
	if err != nil {
		return experiments.SweepGrid{}, err
	}
	deps, err := sweepDeployments(*g.models, *g.gpus)
	if err != nil {
		return experiments.SweepGrid{}, err
	}
	return experiments.SweepGrid{
		Deployments: deps,
		Tasks:       tasks,
		Policies:    groups,
		Workers:     ctx.Workers,
	}, nil
}

// printMerged prints the sweep header + table and optionally writes the
// merged JSON artifact.
func printMerged(m *distsweep.Merged, grid experiments.SweepGrid, jsonOut string) error {
	fmt.Printf("sweep: %d cells (%d deployments), %d schedule evals, grid %.12s\n",
		m.Cells, len(grid.Deployments), m.Evals, m.Fingerprint)
	fmt.Print(experiments.FormatSweep(m.Rows))
	if jsonOut != "" {
		if err := m.WriteFile(jsonOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "sweep: merged JSON -> %s\n", jsonOut)
	}
	return nil
}

// sweepDeployments builds the deployment grid: each model on its
// Table 2 cluster, at its Table 2 GPU count or at every size in -gpus.
func sweepDeployments(modelList, gpuList string) ([]sched.Deployment, error) {
	models, err := modelsByNames(modelList)
	if err != nil {
		return nil, err
	}
	var sizes []int
	if gpuList != "" {
		for _, s := range strings.Split(gpuList, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 1 {
				return nil, fmt.Errorf("bad -gpus entry %q", s)
			}
			sizes = append(sizes, n)
		}
	}
	var deps []sched.Deployment
	for _, m := range models {
		dep, err := sched.DeploymentFor(m.Name)
		if err != nil {
			return nil, err
		}
		if len(sizes) == 0 {
			deps = append(deps, dep)
			continue
		}
		for _, n := range sizes {
			if n > dep.Cluster.TotalGPUs() {
				continue // grid point exceeds the cluster; skip, not fail
			}
			d := dep
			d.GPUs = n
			deps = append(deps, d)
		}
	}
	if len(deps) == 0 {
		return nil, fmt.Errorf("no deployments selected (every -gpus size exceeds its cluster?)")
	}
	return deps, nil
}
