package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"exegpt/internal/core"
	"exegpt/internal/experiments"
	"exegpt/internal/sched"
	"exegpt/internal/workload"
)

// searchCost is §7.7's scheduling cost: a cold FindBestMany per policy
// group at the four FT-derived bounds, on a fresh Redeploy of every
// Table 2 deployment for the five synthetic tasks and the three dataset
// emulations. Only the FindBestMany call is timed per search.
type searchCost struct {
	deps  []sched.Deployment
	tasks []workload.Task
	cells []setupCell
}

var searchGroups = [][]sched.Policy{{sched.RRA}, {sched.WAAC, sched.WAAM}}

func newSearchCost(toy bool) *searchCost {
	w := &searchCost{
		deps:  sched.DefaultDeployments,
		tasks: append(append([]workload.Task(nil), workload.Tasks...), workload.RealDatasets...),
	}
	if toy {
		w.deps, w.tasks = w.deps[1:2], w.tasks[:1]
	}
	return w
}

func (w *searchCost) workers() int { return 1 }

// setup ignores the seed: search inputs are the task distributions.
func (w *searchCost) setup() (err error) {
	w.cells, err = coldSetup(42, w.deps, w.tasks)
	return err
}

func (w *searchCost) warmup(*result) (passOut, error) { return w.pass(nil) }

func (w *searchCost) pass(tr *tracer) (passOut, error) {
	out := newPassOut()
	for _, c := range w.cells {
		for _, group := range searchGroups {
			trace := "search:" + c.name + "/" + groupName(group)
			root := tr.begin(0, trace, "bench.search")
			var nd *experiments.Deployment
			err := tr.call(root, trace, "experiments.redeploy", func() (err error) {
				nd, err = c.d.Redeploy(c.d.In, c.d.Out)
				return err
			})
			var ress []core.Result
			var took time.Duration
			if err == nil {
				err = tr.call(root, trace, "core.find_best_many", func() (err error) {
					t0 := time.Now()
					ress, err = nd.Sch.FindBestMany(group, c.bounds)
					took = time.Since(t0)
					return err
				})
			}
			tr.end(root)
			if err != nil {
				return out, fmt.Errorf("search %s: %w", trace, err)
			}
			out.opMs = append(out.opMs, float64(took.Nanoseconds())/1e6)
			out.add(trace, []byte(selectionKey(ress, nd.Sch.Evals)))
			out.counts["core.searches"]++
			out.counts["core.evals"] += float64(nd.Sch.Evals)
			out.counts["core.frontier_points"] += float64(nd.Sch.Frontier.Len())
		}
	}
	return out, nil
}

// selectionKey spells out what a search selected, bit for bit: per
// bound the config, throughput and latency bits, then the eval count.
func selectionKey(ress []core.Result, evals int) string {
	var b strings.Builder
	for _, r := range ress {
		fmt.Fprintf(&b, "%t %s %x %x\n", r.Found, r.Best.Config,
			math.Float64bits(r.Best.Throughput), math.Float64bits(r.Best.Latency))
	}
	fmt.Fprintf(&b, "evals %d\n", evals)
	return b.String()
}
