// Differential fuzz of a warm Evaluator against a fresh one: any config
// on any Table 2 deployment and task must give reflect.DeepEqual
// results (and identical errors) from a fresh Evaluator, whose every
// lookup is direct, and from a long-lived warm one.
package core

import (
	"reflect"
	"testing"

	"exegpt/internal/sched"
	"exegpt/internal/workload"
)

// fuzzTasks is every task a fuzz input can pick: the synthetic Table 3
// tasks, then the dataset emulations.
var fuzzTasks = append(append([]workload.Task(nil), workload.Tasks...), workload.RealDatasets...)

// fuzzDeployment is one (deployment, task) simulator with the warm
// Evaluator that accumulates memo state across fuzz inputs. Fuzz inputs
// run one at a time per process, so the Evaluator is never shared.
type fuzzDeployment struct {
	sim  *Simulator
	warm *Evaluator
}

var fuzzDeployments = map[[2]int]*fuzzDeployment{}

func fuzzDeploymentFor(t *testing.T, dep, task int) *fuzzDeployment {
	k := [2]int{dep, task}
	if fd, ok := fuzzDeployments[k]; ok {
		return fd
	}
	d := sched.DefaultDeployments[dep]
	sim := newSim(t, d.Model, d.GPUs, d.Cluster, fuzzTasks[task])
	fd := &fuzzDeployment{sim: sim, warm: NewEvaluator(sim)}
	fuzzDeployments[k] = fd
	return fd
}

// fuzzIndex returns the (DefaultDeployments, fuzzTasks) indices of a
// golden deployment.
func fuzzIndex(t testing.TB, g goldenDeployment) (dep, task int) {
	t.Helper()
	dep, task = -1, -1
	for i, d := range sched.DefaultDeployments {
		if d.Model.Name == g.model.Name && d.Cluster.Name == g.cluster.Name && d.GPUs == g.gpus {
			dep = i
		}
	}
	for i, tk := range fuzzTasks {
		if tk.ID == g.task.ID {
			task = i
		}
	}
	if dep < 0 || task < 0 {
		t.Fatalf("golden deployment %s is not a Table 2 deployment and task", g.label)
	}
	return dep, task
}

// FuzzEvaluatorMatchesSimulator compares the warm Evaluator with a
// fresh one over the same Simulator. The input picks a Table 2
// deployment, a task and a raw sched.Config. Out-of-range fields are
// kept as they are, so invalid configs exercise validation too. The
// seed corpus is every golden estimate config plus multi-node
// allocations whose stages straddle a node boundary.
func FuzzEvaluatorMatchesSimulator(f *testing.F) {
	index := map[string][2]int{}
	for _, g := range goldenDeployments {
		dep, task := fuzzIndex(f, g)
		index[g.label] = [2]int{dep, task}
	}
	for _, g := range loadGolden(f) {
		at, ok := index[g.Deployment]
		if !ok {
			f.Fatalf("unknown golden deployment %q", g.Deployment)
		}
		f.Add(uint8(at[0]), uint8(at[1]), uint8(g.Policy), uint8(g.TPDegree), uint8(g.TPGPUs),
			uint16(g.BD), uint16(g.BE), uint8(g.ND), uint8(g.Bm))
	}
	// GPT3-39B/16xA40 (index 2): RRA stages at the node boundary and at
	// the wrap-around differ only in their pipeline link class; WAA-C at
	// TP 4x8 has a decode group spanning both nodes beside one that does
	// not. GPT3-175B/32xA40 (index 5) spans four nodes.
	f.Add(uint8(2), uint8(1), uint8(sched.RRA), uint8(1), uint8(0), uint16(512), uint16(1), uint8(24), uint8(0))
	f.Add(uint8(2), uint8(1), uint8(sched.WAAC), uint8(4), uint8(8), uint16(1), uint16(16), uint8(0), uint8(3))
	f.Add(uint8(5), uint8(0), uint8(sched.WAAM), uint8(4), uint8(8), uint16(1), uint16(8), uint8(0), uint8(8))
	f.Add(uint8(5), uint8(4), uint8(sched.RRA), uint8(2), uint8(16), uint16(2048), uint16(1), uint8(64), uint8(0))
	f.Fuzz(func(t *testing.T, dep, task, policy, tpDegree, tpGPUs uint8, bd, be uint16, nd, bm uint8) {
		fd := fuzzDeploymentFor(t, int(dep)%len(sched.DefaultDeployments), int(task)%len(fuzzTasks))
		cfg := sched.Config{
			Policy: sched.Policy(policy % 8),
			BE:     int(be), BD: int(bd), Bm: int(bm), ND: int(nd),
			TP: sched.TPSpec{Degree: int(tpDegree), GPUs: int(tpGPUs)},
		}
		cold, coldErr := NewEvaluator(fd.sim).Estimate(cfg)
		warm, warmErr := fd.warm.Estimate(cfg)
		if (warmErr == nil) != (coldErr == nil) || warmErr != nil && warmErr.Error() != coldErr.Error() {
			t.Fatalf("%+v: warm evaluator error %v, fresh %v", cfg, warmErr, coldErr)
		}
		if !reflect.DeepEqual(warm, cold) {
			t.Fatalf("%+v: warm evaluator diverged\n fresh %+v\n warm  %+v", cfg, cold, warm)
		}
	})
}
