package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"exegpt/internal/hw"
	"exegpt/internal/sched"
)

// commonFlags must plumb the shared flags into the context.
func TestCommonFlagsPlumbContext(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	newCtx := commonFlags(fs)
	if err := fs.Parse([]string{"-quick", "-seed", "7", "-workers", "3", "-requests", "9"}); err != nil {
		t.Fatal(err)
	}
	c := newCtx()
	if !c.Quick || c.Seed != 7 || c.Workers != 3 || c.Requests != 9 {
		t.Fatalf("context not plumbed: %+v", c)
	}
}

// -cpuprofile and -memprofile write profiles once the command stops;
// without them nothing is started.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	err := cmdSweep([]string{"-quick", "-models", "OPT-13B", "-tasks", "S", "-cpuprofile", cpu, "-memprofile", mem})
	if perr := prof.stop(); err == nil {
		err = perr
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Fatalf("profile %s missing or empty: %v", path, err)
		}
	}
	if prof != (profiler{}) {
		t.Fatalf("profiler not reset after stop: %+v", prof)
	}
	if err := prof.stop(); err != nil {
		t.Fatalf("stop with no profile requested: %v", err)
	}
}

func TestParsePolicies(t *testing.T) {
	rra, err := parsePolicies("rra")
	if err != nil || len(rra) != 1 || len(rra[0]) != 1 || rra[0][0] != sched.RRA {
		t.Fatalf("rra: %v %v", rra, err)
	}
	waa, err := parsePolicies("WAA")
	if err != nil || len(waa) != 1 || len(waa[0]) != 2 {
		t.Fatalf("waa: %v %v", waa, err)
	}
	// "all" (and the empty spelling) is exactly the paper's three
	// families: the experimental DISAGG family is opt-in only.
	want := []sched.Policy{sched.RRA, sched.WAAC, sched.WAAM}
	for _, name := range []string{"all", ""} {
		groups, err := parsePolicies(name)
		if err != nil || len(groups) != 2 {
			t.Fatalf("%q: %v %v", name, groups, err)
		}
		if got := flattenPolicies(groups); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q flattened = %v, want %v", name, got, want)
		}
	}
	if _, err := parsePolicies("bogus"); err == nil {
		t.Fatal("bogus policy set should error")
	}
}

// resolveTarget fills the cluster and GPU count from the model's
// Table 2 deployment, takes explicit overrides, and names whatever it
// cannot resolve.
func TestResolveTarget(t *testing.T) {
	tgt, err := resolveTarget("OPT-13B", "", 0, "S")
	if err != nil || tgt.model.Name != "OPT-13B" || tgt.cluster.Name != hw.A40Cluster.Name || tgt.gpus != 4 || tgt.task.ID != "S" {
		t.Fatalf("defaults: %+v %v", tgt, err)
	}
	tgt, err = resolveTarget("OPT-13B", "a100", 8, "T")
	if err != nil || tgt.cluster.Name != hw.A100Cluster.Name || tgt.gpus != 8 || tgt.task.ID != "T" {
		t.Fatalf("overrides: %+v %v", tgt, err)
	}
	for _, c := range []struct {
		name, model, cluster string
		gpus                 int
		task, want           string
	}{
		{"unknown model", "GPT-9000", "", 0, "S", "GPT-9000"},
		{"unknown model with cluster and gpus", "GPT-9000", "A40", 4, "S", "GPT-9000"},
		{"unknown cluster", "OPT-13B", "H100", 0, "S", "H100"},
		{"unknown task", "OPT-13B", "", 0, "nope", "nope"},
	} {
		if _, err := resolveTarget(c.model, c.cluster, c.gpus, c.task); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.want)
		}
	}
}

func TestClusterByName(t *testing.T) {
	for _, name := range []string{"A40", "a100"} {
		c, err := clusterByName(name)
		if err != nil || c.TotalGPUs() == 0 {
			t.Fatalf("%s: %v %v", name, c, err)
		}
	}
	if _, err := clusterByName("H100"); err == nil {
		t.Fatal("unknown cluster should error")
	}
}

func TestTasksByIDs(t *testing.T) {
	tasks, err := tasksByIDs("")
	if err != nil || len(tasks) != 5 {
		t.Fatalf("default tasks: %d %v", len(tasks), err)
	}
	tasks, err = tasksByIDs("S, T")
	if err != nil || len(tasks) != 2 || tasks[0].ID != "S" || tasks[1].ID != "T" {
		t.Fatalf("S,T: %v %v", tasks, err)
	}
	if _, err := tasksByIDs("nope"); err == nil {
		t.Fatal("unknown task should error")
	}
	for _, list := range []string{"S,S", "S,T, S"} {
		if _, err := tasksByIDs(list); err == nil || !strings.Contains(err.Error(), `"S"`) {
			t.Fatalf("%q: repeated task not rejected by name: %v", list, err)
		}
	}
}

func TestModelsByNames(t *testing.T) {
	all, err := modelsByNames("")
	if err != nil || len(all) == 0 {
		t.Fatalf("default models: %v %v", all, err)
	}
	seen := map[string]bool{}
	for _, m := range all {
		if seen[m.Name] {
			t.Fatalf("duplicate default model %s", m.Name)
		}
		seen[m.Name] = true
	}
	one, err := modelsByNames("OPT-13B")
	if err != nil || len(one) != 1 || one[0].Name != "OPT-13B" {
		t.Fatalf("OPT-13B: %v %v", one, err)
	}
	if _, err := modelsByNames("GPT-9000"); err == nil {
		t.Fatal("unknown model should error")
	}
	for _, list := range []string{"OPT-13B,OPT-13B", "OPT-13B,T5-11B, OPT-13B"} {
		if _, err := modelsByNames(list); err == nil || !strings.Contains(err.Error(), `"OPT-13B"`) {
			t.Fatalf("%q: repeated model not rejected by name: %v", list, err)
		}
	}
}

func TestSweepDeployments(t *testing.T) {
	deps, err := sweepDeployments("OPT-13B", "2,4")
	if err != nil || len(deps) != 2 || deps[0].GPUs != 2 || deps[1].GPUs != 4 {
		t.Fatalf("-gpus 2,4: %v %v", deps, err)
	}
	for _, list := range []string{"4,4", "04,4", "2, 4,+4"} {
		if _, err := sweepDeployments("OPT-13B", list); err == nil || !strings.Contains(err.Error(), "size 4 listed twice") {
			t.Fatalf("-gpus %q: repeated size not rejected: %v", list, err)
		}
	}
	if _, err := sweepDeployments("OPT-13B", "0"); err == nil {
		t.Fatal("-gpus 0 should error")
	}
	if _, err := sweepDeployments("OPT-13B", "4096"); err == nil {
		t.Fatal("-gpus larger than every cluster should leave an empty grid and error")
	}
}

// TestSweepSmokeMatchesGolden is `make sweep-smoke` in tier-1: the
// smoke grid's -json artifact must match the committed golden byte for
// byte.
func TestSweepSmokeMatchesGolden(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sweep.json")
	if err := cmdSweep([]string{"-quick", "-models", "OPT-13B", "-tasks", "S,T", "-json", out}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../GOLDEN_sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("sweep artifact differs from GOLDEN_sweep.json; regenerate it with `make sweep-golden` only for a deliberate change")
	}
}
