package main

import (
	"testing"

	"exegpt/internal/experiments"
)

// FuzzSweepGridFlags: the -models, -gpus, -tasks and -policies values
// never panic gridFlagSet.build, which returns either an error or a
// non-empty grid with no repeated deployment or task and every GPU
// count within its cluster.
func FuzzSweepGridFlags(f *testing.F) {
	for _, seed := range [][4]string{
		// Makefile SWEEP_FLAGS and the README sweep and search examples.
		{"OPT-13B", "", "S,T", "all"},
		{"OPT-13B,GPT-3-39B", "", "S,T", "all"},
		{"OPT-13B", "4,8", "", "waa"},
		{"GPT-3-101B", "16", "G", "rra"},
		// Defaults, repeats and malformed entries.
		{"", "", "", ""},
		{"OPT-13B", "04,4", "S,S", "disagg"},
		{"OPT-13B,OPT-13B", "0,-1", " C1 ,C2", "bogus"},
		{"T5-11B", "+2,99999999999999999999", ",", "RRA"},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}
	ctx := experiments.NewQuickContext()
	f.Fuzz(func(t *testing.T, models, gpus, tasks, policies string) {
		g := &gridFlagSet{models: &models, gpus: &gpus, tasks: &tasks, policies: &policies}
		grid, err := g.build(ctx)
		if err != nil {
			return
		}
		if len(grid.Deployments) == 0 || len(grid.Tasks) == 0 || len(grid.Policies) == 0 {
			t.Fatalf("build(%q, %q, %q, %q) returned an empty grid and no error", models, gpus, tasks, policies)
		}
		type depKey struct {
			model, cluster string
			gpus           int
		}
		deps := map[depKey]bool{}
		for _, d := range grid.Deployments {
			k := depKey{d.Model.Name, d.Cluster.Name, d.GPUs}
			if deps[k] {
				t.Fatalf("build(%q, %q, ...) repeats deployment %+v", models, gpus, k)
			}
			deps[k] = true
			if d.GPUs < 1 || d.GPUs > d.Cluster.TotalGPUs() {
				t.Fatalf("build(%q, %q, ...) gives %s %d GPUs on a %d-GPU cluster",
					models, gpus, d.Model.Name, d.GPUs, d.Cluster.TotalGPUs())
			}
		}
		ids := map[string]bool{}
		for _, task := range grid.Tasks {
			if ids[task.ID] {
				t.Fatalf("build(..., %q, ...) repeats task %s", tasks, task.ID)
			}
			ids[task.ID] = true
		}
	})
}
