package experiments

import (
	"fmt"
	"math"
	"testing"

	"exegpt/internal/core"
	"exegpt/internal/sched"
	"exegpt/internal/workload"
)

// TestFindBestManyMatchesFindBestTable2 compares the sweep's multi-bound
// selection with a standalone search on the whole Table 2 grid: every
// default deployment × task × default policy group, at each of the
// deployment's four FT-derived bounds. FindBestMany runs the way a sweep
// cell runs it (one scheduler, the groups in order); each FindBest runs
// on a fresh scheduler.
//
// The two searches are not equivalent everywhere: FindBestMany's
// Line-14 test defers blocks that FindBest splits, because the WAA Bm
// axis is not monotone in latency at small BD. The bands hold today's
// counts and only ever tighten.
func TestFindBestManyMatchesFindBestTable2(t *testing.T) {
	const (
		maxMismatches = 15
		maxManyNS     = 3 // FindBestMany reports NS where FindBest finds a schedule
	)
	show := func(r core.Result) string {
		if !r.Found {
			return "NS"
		}
		return fmt.Sprintf("%v (%.4g seq/s, %.4g s)", r.Best.Config, r.Best.Throughput, r.Best.Latency)
	}
	c := quick()
	selections, mismatches, ties, manyNS := 0, 0, 0, 0
	for _, dep := range sched.DefaultDeployments {
		for _, task := range workload.Tasks {
			d, err := c.Deploy(dep.Model, dep.Cluster, dep.GPUs, task)
			if err != nil {
				t.Fatal(err)
			}
			bounds, err := d.FTBounds()
			if err != nil {
				t.Fatal(err)
			}
			for _, group := range defaultPolicyGroups() {
				many, err := d.Sch.FindBestMany(group, bounds)
				if err != nil {
					t.Fatal(err)
				}
				for i, b := range bounds {
					fresh, err := d.Redeploy(d.In, d.Out)
					if err != nil {
						t.Fatal(err)
					}
					one, err := fresh.Sch.FindBest(group, b)
					if err != nil {
						t.Fatal(err)
					}
					selections++
					m := many[i]
					if m.Found == one.Found && m.Best.Config == one.Best.Config &&
						math.Float64bits(m.Best.Throughput) == math.Float64bits(one.Best.Throughput) &&
						math.Float64bits(m.Best.Latency) == math.Float64bits(one.Best.Latency) {
						continue
					}
					mismatches++
					switch {
					case !m.Found && one.Found:
						manyNS++
					case m.Found && one.Found && m.Best.Throughput == one.Best.Throughput:
						ties++
					}
					t.Logf("%s/%dx%s %s %s bound %.4g: many %s, single %s",
						dep.Model.Name, dep.GPUs, dep.Cluster.GPU.Name, task.ID, policyGroupName(group), b,
						show(m), show(one))
				}
			}
		}
	}
	want := len(sched.DefaultDeployments) * len(workload.Tasks) * len(defaultPolicyGroups()) * 4
	if selections != want {
		t.Fatalf("compared %d selections, want %d", selections, want)
	}
	t.Logf("%d of %d selections differ: %d equal-throughput ties, %d multi-bound NS",
		mismatches, selections, ties, manyNS)
	if mismatches > maxMismatches {
		t.Errorf("%d selections differ, band allows %d", mismatches, maxMismatches)
	}
	if manyNS > maxManyNS {
		t.Errorf("%d multi-bound NS where FindBest finds a schedule, band allows %d", manyNS, maxManyNS)
	}
}
