package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strconv"
	"testing"

	"exegpt/internal/core"
	"exegpt/internal/hw"
	"exegpt/internal/metrics"
	"exegpt/internal/model"
	"exegpt/internal/profile"
	"exegpt/internal/sched"
	"exegpt/internal/workload"
)

// Golden batch-run outcomes: every registered family's schedule on two
// deployments and three tasks, selected without a latency bound and at
// 1.5x the family's lowest latency (a family with no feasible
// schedule pins "NS", and one that fails at runtime pins "failed"), plus the KV-pressured RRA
// run of BenchmarkEngineRun (deferred admission and compaction on every
// cycle). Each case pins Engine.Run's Result, and the completion
// records and Table 7 stage times of the same execution with a
// recording sink and the sampling on (recordedRun). Every float is
// pinned bit for bit. Regenerate with UPDATE_GOLDEN=1 after an
// intentional execution change.
const goldenRunPath = "testdata/golden_run.json"

// goldenRun is one pinned execution. Floats are kept as shortest
// round-trip strings so NaN and Inf survive JSON.
type goldenRun struct {
	Case              string            `json:"case"`
	Config            string            `json:"config"`
	Failed            bool              `json:"failed,omitempty"`
	Stats             map[string]string `json:"stats,omitempty"`
	Iterations        int               `json:"iterations"`
	Compactions       int               `json:"compactions"`
	CompactionSeconds string            `json:"compaction_seconds"`
	PeakDecMemPerGPU  int64             `json:"peak_dec_mem_per_gpu"`
	EncStage          goldenSamples     `json:"enc_stage"`
	DecStage          goldenSamples     `json:"dec_stage"`
	RecordsSHA256     string            `json:"records_sha256"`
}

type goldenSamples struct {
	Count   int    `json:"count"`
	Mean    string `json:"mean"`
	Range99 string `json:"pctl_range_99"`
}

func goldenFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func goldenSamplesOf(r *metrics.Recorder) goldenSamples {
	return goldenSamples{Count: r.Count(), Mean: goldenFloat(r.Mean()), Range99: goldenFloat(r.PctlRange(0.99))}
}

// goldenStats renders every RunStats field by name, so a field added
// later is pinned without touching this test.
func goldenStats(s metrics.RunStats) map[string]string {
	out := map[string]string{}
	v := reflect.ValueOf(s)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Float64:
			out[v.Type().Field(i).Name] = goldenFloat(f.Float())
		case reflect.Int:
			out[v.Type().Field(i).Name] = strconv.FormatInt(f.Int(), 10)
		default:
			panic("goldenStats: unhandled RunStats field kind " + f.Kind().String())
		}
	}
	return out
}

// recordsDigest hashes every record field in completion order.
func recordsDigest(records []QueryRecord) string {
	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for _, r := range records {
		put(uint64(r.ID))
		put(math.Float64bits(r.Start))
		put(math.Float64bits(r.End))
		put(uint64(r.InLen))
		put(uint64(r.OutLen))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenOf runs one case: Engine.Run for the Result, then recordedRun
// for the records and stage times.
func goldenOf(t *testing.T, name string, e *Engine, cfg sched.Config, alloc sched.Allocation, reqs []workload.Request) goldenRun {
	t.Helper()
	res, err := e.Run(cfg, alloc, reqs)
	if err != nil {
		return goldenRun{Case: name, Config: cfg.String(), Failed: true}
	}
	records, st := recordedRun(t, e, cfg, alloc, reqs)
	return goldenRun{
		Case:              name,
		Config:            cfg.String(),
		Stats:             goldenStats(res.Stats),
		Iterations:        res.Iterations,
		Compactions:       res.Compactions,
		CompactionSeconds: goldenFloat(res.CompactionSeconds),
		PeakDecMemPerGPU:  res.PeakDecMemPerGPU,
		EncStage:          goldenSamplesOf(st.enc),
		DecStage:          goldenSamplesOf(st.dec),
		RecordsSHA256:     recordsDigest(records),
	}
}

// goldenSelections are the latency bounds a family's schedule is
// selected at, as a slack over the family's lowest latency.
var goldenSelections = []struct {
	name  string
	slack float64
}{{"max", math.Inf(1)}, {"1.5xmin", 1.5}}

// familySchedule selects the policy's highest-throughput schedule whose
// latency is within slack x the policy's lowest latency.
func familySchedule(t *testing.T, sim *core.Simulator, p sched.Policy, slack float64) (core.Estimate, bool) {
	t.Helper()
	s := core.NewScheduler(sim)
	policies := []sched.Policy{p}
	bound := slack
	if !math.IsInf(bound, 1) {
		min, err := s.MinLatency(policies)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		bound *= min
	}
	res, err := s.FindBest(policies, bound)
	if err != nil {
		t.Fatalf("%v: %v", p, err)
	}
	return res.Best, res.Found
}

// goldenRuns executes every pinned case on the current engine.
func goldenRuns(t *testing.T) []goldenRun {
	t.Helper()
	var out []goldenRun
	deployments := []struct {
		m    model.Model
		gpus int
	}{{model.OPT13B, 4}, {model.GPT339B, 16}}
	for _, dep := range deployments {
		sub, err := hw.A40Cluster.Sub(dep.gpus)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := profile.New(dep.m, sub)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(dep.m, sub, prof.Run())
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range []workload.Task{workload.Summarization, workload.Translation, workload.ConvQA2} {
			in, outDist, err := task.Dists()
			if err != nil {
				t.Fatal(err)
			}
			sim, err := core.NewSimulator(dep.m, sub, prof.Run(), in, outDist)
			if err != nil {
				t.Fatal(err)
			}
			reqs := requests(t, task, 400, 61)
			for _, f := range registeredFamilies() {
				for _, sel := range goldenSelections {
					name := dep.m.Name + "/" + strconv.Itoa(dep.gpus) + "xA40/" + task.ID + "/" + f.Name + "/" + sel.name
					best, found := familySchedule(t, sim, f.Policy, sel.slack)
					if !found {
						out = append(out, goldenRun{Case: name, Config: "NS"})
						continue
					}
					out = append(out, goldenOf(t, name, e, best.Config, best.Alloc, reqs))
				}
			}
		}
	}
	// BenchmarkEngineRun's KV-pressured RRA run.
	e := engine(t, model.OPT13B, 4, hw.A40Cluster)
	cfg := rraConfig(2048, 8)
	g := goldenOf(t, "OPT-13B/4xA40/S/RRA-kv-pressured", e, cfg, rraAlloc(t, e, cfg.TP), requests(t, workload.Summarization, 1500, 53))
	if g.Failed {
		t.Fatal("the KV-pressured RRA run failed")
	}
	return append(out, g)
}

// TestRunGolden pins the batch engine's outcome on every golden case to
// the committed rows.
func TestRunGolden(t *testing.T) {
	got := goldenRuns(t)
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenRunPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenRunPath)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	if bytes.Equal(data, want) {
		return
	}
	var rows []goldenRun
	if err := json.Unmarshal(want, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(got) {
		t.Fatalf("%d golden rows, %d runs", len(rows), len(got))
	}
	for i := range rows {
		if !reflect.DeepEqual(rows[i], got[i]) {
			t.Errorf("%s diverged from the golden\ngot:  %+v\nwant: %+v", got[i].Case, got[i], rows[i])
		}
	}
	t.Fatal("Run output diverged from " + goldenRunPath)
}

// registeredFamilies returns the families registered in sched, in
// Policy order. Policy values are small consecutive integers, so a scan
// of the first 64 finds every registration.
func registeredFamilies() []sched.Family {
	var fs []sched.Family
	for p := sched.Policy(0); p < 64; p++ {
		if f, ok := sched.FamilyOf(p); ok {
			fs = append(fs, f)
		}
	}
	return fs
}
