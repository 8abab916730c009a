package experiments

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

	"exegpt/internal/baselines"
	"exegpt/internal/hw"
	"exegpt/internal/metrics"
	"exegpt/internal/model"
	"exegpt/internal/sched"
	"exegpt/internal/workload"
)

// goldenBaselinesPath pins every baseline system's execution on two
// Table 2 deployments and three tasks, at the batch PickBatch chooses
// for each FT-derived bound. Every float is pinned bit for bit.
// Regenerate with UPDATE_GOLDEN=1 after an intentional baseline change.
const goldenBaselinesPath = "testdata/golden_baselines.json"

// goldenBaselineCell is one deployment × task × system: the FT bounds,
// a digest of the unsorted per-batch bound latencies PickBatch searches,
// and one run per bound.
type goldenBaselineCell struct {
	Case      string              `json:"case"`
	FTBounds  []string            `json:"ft_bounds"`
	MeanInOut [2]string           `json:"mean_in_out"`
	BoundLen  int                 `json:"bound_len"`
	MaxBatch  int                 `json:"max_batch"`
	SweepLen  int                 `json:"latency_sweep_len"`
	SweepSHA  string              `json:"latency_sweep_sha256"`
	Runs      []goldenBaselineRun `json:"runs"`
}

// goldenBaselineRun is one bound's pick and execution. Batch 0 is NS.
type goldenBaselineRun struct {
	Bound      string            `json:"bound"`
	Batch      int               `json:"batch"`
	Failed     bool              `json:"failed,omitempty"`
	Stats      map[string]string `json:"stats,omitempty"`
	Iterations int               `json:"iterations,omitempty"`
	PeakMem    int64             `json:"peak_mem,omitempty"`
}

// goldenRunStats renders every RunStats field by name as a shortest
// round-trip string, so a field added later is pinned too.
func goldenRunStats(s metrics.RunStats) map[string]string {
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
			panic("goldenRunStats: unhandled RunStats field kind " + f.Kind().String())
		}
	}
	return out
}

// goldenBaselineCells executes every pinned cell.
func goldenBaselineCells(t *testing.T) []goldenBaselineCell {
	t.Helper()
	c := quick()
	var out []goldenBaselineCell
	deployments := []struct {
		m    model.Model
		gpus int
	}{{model.OPT13B, 4}, {model.GPT339B, 16}}
	for _, dep := range deployments {
		for _, task := range []workload.Task{workload.Summarization, workload.Translation, workload.ConvQA2} {
			d, err := c.Deploy(dep.m, hw.A40Cluster, dep.gpus, task)
			if err != nil {
				t.Fatal(err)
			}
			bounds, err := d.FTBounds()
			if err != nil {
				t.Fatal(err)
			}
			var boundStrs []string
			for _, b := range bounds {
				boundStrs = append(boundStrs, goldenFloat(b))
			}
			reqs, err := c.RequestStream(task, 0)
			if err != nil {
				t.Fatal(err)
			}
			meanIn, meanOut := d.In.Mean(), d.Out.Mean()
			for _, sys := range []baselines.System{baselines.FT, baselines.DSI, baselines.ORCA, baselines.VLLM} {
				e, err := baselines.New(sys, d.Model, d.Cluster, d.Prof)
				if err != nil {
					t.Fatal(err)
				}
				// The same bound length RunBaseline holds the system to.
				boundLen := d.Task.Out.Max
				if sys == baselines.ORCA || sys == baselines.VLLM {
					boundLen = d.Out.Percentile(0.99)
				}
				cell := goldenBaselineCell{
					Case:      dep.m.Name + "/" + strconv.Itoa(dep.gpus) + "xA40/" + task.ID + "/" + sys.String(),
					FTBounds:  boundStrs,
					MaxBatch:  e.MaxFeasibleBatch(meanIn, d.Task.Out.Max, 512),
					BoundLen:  boundLen,
					MeanInOut: [2]string{goldenFloat(meanIn), goldenFloat(meanOut)},
				}
				h := sha256.New()
				var buf [8]byte
				for b := 4; b <= cell.MaxBatch; b += 4 {
					lat, err := e.LatencyForBound(b, meanIn, meanOut, boundLen)
					if err != nil {
						t.Fatal(err)
					}
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(lat))
					h.Write(buf[:])
					cell.SweepLen++
				}
				cell.SweepSHA = hex.EncodeToString(h.Sum(nil))
				// Adjacent bounds often pick the same batch: run it once.
				ran := map[int]goldenBaselineRun{}
				for _, bound := range bounds {
					b, err := e.PickBatch(bound, meanIn, meanOut, boundLen, d.Task.Out.Max)
					if err != nil {
						t.Fatal(err)
					}
					run, ok := ran[b]
					if !ok && b > 0 {
						res, err := e.Run(b, reqs, d.Task.Out.Max)
						if err != nil {
							run.Failed = true
						} else {
							run.Stats = goldenRunStats(res.Stats)
							run.Iterations = res.Iterations
							run.PeakMem = res.PeakMem
						}
						ran[b] = run
					}
					run.Bound, run.Batch = goldenFloat(bound), b
					cell.Runs = append(cell.Runs, run)
				}
				out = append(out, cell)
			}
		}
	}
	return out
}

// TestBaselinesGolden pins FT, DSI, ORCA and vLLM: the FT bounds, the
// bound-latency sweep PickBatch searches, and every picked run's stats,
// iterations and peak memory.
func TestBaselinesGolden(t *testing.T) {
	got := goldenBaselineCells(t)
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenBaselinesPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenBaselinesPath)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	if bytes.Equal(data, want) {
		return
	}
	var cells []goldenBaselineCell
	if err := json.Unmarshal(want, &cells); err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(got) {
		t.Fatalf("%d golden cells, %d run", len(cells), len(got))
	}
	for i := range cells {
		if !reflect.DeepEqual(cells[i], got[i]) {
			t.Errorf("%s diverged from the golden\ngot:  %+v\nwant: %+v", got[i].Case, got[i], cells[i])
		}
	}
	t.Fatal("baseline output diverged from " + goldenBaselinesPath)
}

// TestLatencyForBoundMonotoneInBatch guards PickBatch's binary search,
// which assumes the bound latency never falls as the batch grows: on
// every Table 2 deployment and task, for every system, at every
// multiple of four up to the largest batch whose KV fits (uncapped, a
// superset of the 512-capped range PickBatch searches).
func TestLatencyForBoundMonotoneInBatch(t *testing.T) {
	c := quick()
	steps := 0
	for _, dep := range sched.DefaultDeployments {
		for _, task := range workload.Tasks {
			d, err := c.Deploy(dep.Model, dep.Cluster, dep.GPUs, task)
			if err != nil {
				t.Fatal(err)
			}
			meanIn, meanOut := d.In.Mean(), d.Out.Mean()
			for _, sys := range []baselines.System{baselines.FT, baselines.DSI, baselines.ORCA, baselines.VLLM} {
				e, err := baselines.New(sys, d.Model, d.Cluster, d.Prof)
				if err != nil {
					t.Fatal(err)
				}
				boundLen := d.Task.Out.Max
				if sys == baselines.ORCA || sys == baselines.VLLM {
					boundLen = d.Out.Percentile(0.99)
				}
				prev := math.Inf(-1)
				for b := 4; b <= e.MaxFeasibleBatch(meanIn, d.Task.Out.Max, 0); b += 4 {
					lat, err := e.LatencyForBound(b, meanIn, meanOut, boundLen)
					if err != nil {
						t.Fatal(err)
					}
					if lat < prev {
						t.Errorf("%s/%dx%s %s %v: bound latency falls from %v at batch %d to %v at %d",
							dep.Model.Name, dep.GPUs, dep.Cluster.GPU.Name, task.ID, sys, prev, b-4, lat, b)
					}
					prev = lat
					steps++
				}
			}
		}
	}
	t.Logf("%d batch steps checked", steps)
}
