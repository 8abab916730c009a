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

// cmdSweep grid-evaluates deployments x tasks, parallel across
// deployments, in one of three modes selected with -mode:
//
//	-mode single (default)   one process, print the table
//	-mode dispatch           work-stealing coordinator serving an HTTP
//	                         API (-http; default a free loopback port)
//	                         to the pull workers that attach to it
//	-mode pull -connect URL  pull worker: lease cells from the
//	                         coordinator until it says Stop; attachable
//	                         at any time
//
// Workers sharing a -profile-cache directory profile each (model,
// sub-cluster) once between them. Every mode goes through the same
// internal/distsweep fold, so a dispatched sweep prints and writes
// output byte-identical to the single-process one.
func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	newCtx := commonFlags(fs)
	g := gridFlags(fs)
	mode := fs.String("mode", "single", "distribution mode: single, dispatch or pull")
	jsonOut := fs.String("json", "", "write the merged sweep (rows, evals, frontiers) as JSON to this file")
	httpAddr := fs.String("http", "", "dispatch mode: serve the coordinator's HTTP API on this host:port (default: a free loopback port)")
	connect := fs.String("connect", "", "pull mode: attach to the coordinator's HTTP API at this URL (e.g. http://gpu1:8080)")
	workerID := fs.String("worker-id", "", "pull mode: this worker's name in leases and logs (default: host-pid)")
	d := dispatchFlags(fs)
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
	opts, err := d.options()
	if err != nil {
		return err
	}
	m, err := resolveSweepMode(*mode)
	if err != nil {
		return err
	}
	if err := validateSweepMode(m, sweepModeFlags{
		http: *httpAddr, connect: *connect, workerID: *workerID,
	}); err != nil {
		return err
	}

	switch m {
	case modePull:
		return runPullWorker(ctx, grid, fp, *connect, *workerID, opts)
	case modeDispatch:
		return runDispatch(grid, fp, *httpAddr, opts, *jsonOut)
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
