package baselines

import (
	"math"
	"testing"

	"exegpt/internal/hw"
	"exegpt/internal/kvcache"
	"exegpt/internal/model"
	"exegpt/internal/profile"
	"exegpt/internal/workload"
)

func engine(t testing.TB, sys System, m model.Model, gpus int, cluster hw.Cluster) *Engine {
	t.Helper()
	sub, err := cluster.Sub(gpus)
	if err != nil {
		t.Fatal(err)
	}
	p, err := profile.New(m, sub)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(sys, m, sub, p.Run())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func reqs(t testing.TB, task workload.Task, n int, seed int64) []workload.Request {
	t.Helper()
	g, err := workload.NewGenerator(task, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g.Batch(n)
}

func TestSystemString(t *testing.T) {
	names := map[System]string{FT: "FasterTransformer", DSI: "DeepSpeed-Inference", ORCA: "ORCA", VLLM: "vLLM"}
	for sys, want := range names {
		if sys.String() != want {
			t.Fatalf("%d: %s", sys, sys.String())
		}
	}
	if System(9).String() == "" {
		t.Fatal("unknown system should render")
	}
}

func TestNewValidates(t *testing.T) {
	sub, _ := hw.A40Cluster.Sub(4)
	if _, err := New(FT, model.Model{}, sub, &profile.Table{TPDegrees: []int{1}}); err == nil {
		t.Fatal("bad model should fail")
	}
	if _, err := New(FT, model.OPT13B, hw.Cluster{}, nil); err == nil {
		t.Fatal("bad cluster should fail")
	}
	if _, err := New(FT, model.OPT13B, sub, nil); err == nil {
		t.Fatal("nil profile should fail")
	}
}

func TestParallelConfig(t *testing.T) {
	// 4 GPUs on one node: full TP, single pipeline stage.
	e := engine(t, FT, model.OPT13B, 4, hw.A40Cluster)
	if e.TP() != 4 || len(e.stages) != 1 {
		t.Fatalf("TP=%d PP=%d, want 4/1", e.TP(), len(e.stages))
	}
	// 16 GPUs over two nodes: TP=8 within nodes, two pipeline stages.
	e16 := engine(t, FT, model.GPT339B, 16, hw.A40Cluster)
	if e16.TP() != 8 || len(e16.stages) != 2 {
		t.Fatalf("TP=%d PP=%d, want 8/2", e16.TP(), len(e16.stages))
	}
}

func TestFTCompletesAll(t *testing.T) {
	e := engine(t, FT, model.OPT13B, 4, hw.A40Cluster)
	rs := reqs(t, workload.Summarization, 120, 5)
	res, err := e.Run(24, rs, workload.Summarization.Out.Max)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Completed != len(rs) {
		t.Fatalf("completed %d of %d", res.Stats.Completed, len(rs))
	}
	if res.Stats.Throughput <= 0 {
		t.Fatal("no throughput")
	}
}

// Result.WeightBytes is exactly what newKV charged before the run, so
// PeakMem - WeightBytes is the run's KV peak (Figure 9's split). T5-11B
// on 8 A40s is a deployment where a TP-within-node, PP-across-nodes
// formula disagrees with the engine's stages.
func TestRunReportsChargedWeights(t *testing.T) {
	for _, sys := range []System{FT, VLLM} {
		e := engine(t, sys, model.T511B, 8, hw.A40Cluster)
		mem, _, err := e.newKV()
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(8, reqs(t, workload.Translation, 40, 3), workload.Translation.Out.Max)
		if err != nil {
			t.Fatal(err)
		}
		if res.WeightBytes != mem.Peak() || res.PeakMem <= res.WeightBytes {
			t.Fatalf("%v: weights %d, charged %d, peak %d", sys, res.WeightBytes, mem.Peak(), res.PeakMem)
		}
	}
}

// FT pays for completed queries: iterations per batch equal the batch's
// longest output, so a long-tailed batch wastes compute (the
// diminishing-batches problem, §2).
func TestFTNoEarlyTermination(t *testing.T) {
	e := engine(t, FT, model.OPT13B, 4, hw.A40Cluster)
	short := workload.Request{ID: 0, InLen: 64, OutLen: 4}
	long := workload.Request{ID: 1, InLen: 64, OutLen: 200}
	res, err := e.Run(2, []workload.Request{short, long}, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 200 {
		t.Fatalf("iterations = %d, want 200 (no early exit)", res.Iterations)
	}
}

// ORCA early-terminates and refills: on the same long-tailed pair it
// finishes in fewer total iterations than FT only when there is refill
// work; with 2 queries it still runs 200 iterations but the completed
// query stops consuming a slot.
func TestORCAEarlyTermination(t *testing.T) {
	e := engine(t, ORCA, model.OPT13B, 4, hw.A40Cluster)
	var stream []workload.Request
	for i := 0; i < 40; i++ {
		stream = append(stream, workload.Request{ID: i, InLen: 64, OutLen: 4 + (i%5)*40})
	}
	res, err := e.Run(8, stream, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Completed != len(stream) {
		t.Fatalf("completed %d", res.Stats.Completed)
	}
	ft := engine(t, FT, model.OPT13B, 4, hw.A40Cluster)
	ftRes, err := ft.Run(8, stream, 200)
	if err != nil {
		t.Fatal(err)
	}
	// ORCA's iteration-level scheduling should beat FT's fixed batches
	// on this spread of output lengths when latency is unconstrained...
	// except ORCA pays prefill inside iterations. At minimum it must not
	// waste FT's completed-query compute.
	if res.Stats.Throughput < ftRes.Stats.Throughput*0.5 {
		t.Fatalf("ORCA %.2f collapsed vs FT %.2f", res.Stats.Throughput, ftRes.Stats.Throughput)
	}
}

func TestVLLMOneprefillPerIteration(t *testing.T) {
	e := engine(t, VLLM, model.OPT13B, 4, hw.A40Cluster)
	rs := reqs(t, workload.Summarization, 60, 7)
	res, err := e.Run(16, rs, workload.Summarization.Out.Max)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Completed != len(rs) {
		t.Fatalf("completed %d", res.Stats.Completed)
	}
	// One admission per iteration: at least as many iterations as
	// requests.
	if res.Iterations < len(rs) {
		t.Fatalf("iterations %d < requests %d", res.Iterations, len(rs))
	}
}

// vLLM's paged cache admits larger batches than FT's worst-case
// reservation.
func TestVLLMFitsLargerBatches(t *testing.T) {
	ft := engine(t, FT, model.OPT13B, 4, hw.A40Cluster)
	maxFT := ft.MaxFeasibleBatch(256, 640, 0)
	vl := engine(t, VLLM, model.OPT13B, 4, hw.A40Cluster)
	// Paged feasibility is bounded by actual tokens, not worst case:
	// run an actual large batch that FT could not reserve.
	big := maxFT + 40
	rs := reqs(t, workload.Summarization, big, 11)
	if _, err := vl.Run(big, rs, workload.ConvQA2.Out.Max); err != nil {
		t.Fatalf("vLLM should page through batch %d: %v", big, err)
	}
}

// Under latency bounds FT outperforms DSI, ORCA and vLLM (Figure 7's
// ordering), because vLLM pays executor overhead, ORCA pays in-iteration
// prefill, and DSI's gains are marginal in this regime.
func TestFigure7Ordering(t *testing.T) {
	task := workload.Summarization
	rs := reqs(t, task, 200, 13)
	in, out, err := task.Dists()
	if err != nil {
		t.Fatal(err)
	}
	p99 := out.Percentile(0.99)

	ft := engine(t, FT, model.OPT13B, 4, hw.A40Cluster)
	// Latency bound from FT's sweep (bottom 70%).
	sweep, err := ft.LatencySweep(in.Mean(), out.Mean(), task.Out.Max, task.Out.Max)
	if err != nil {
		t.Fatal(err)
	}
	bound := sweep[len(sweep)*7/10]

	tput := map[System]float64{}
	for _, sys := range []System{FT, DSI, ORCA, VLLM} {
		e := engine(t, sys, model.OPT13B, 4, hw.A40Cluster)
		boundLen := task.Out.Max // FT/DSI: max length
		if sys == ORCA || sys == VLLM {
			boundLen = p99
		}
		b, err := e.PickBatch(bound, in.Mean(), out.Mean(), boundLen, task.Out.Max)
		if err != nil {
			t.Fatal(err)
		}
		if b == 0 {
			tput[sys] = 0
			continue
		}
		res, err := e.Run(b, rs, task.Out.Max)
		if err != nil {
			t.Fatal(err)
		}
		tput[sys] = res.Stats.Throughput
	}
	if tput[FT] < tput[VLLM] {
		t.Fatalf("FT %.2f should beat vLLM %.2f under latency bounds", tput[FT], tput[VLLM])
	}
	if tput[FT] < tput[ORCA]*0.95 {
		t.Fatalf("FT %.2f should be at least competitive with ORCA %.2f", tput[FT], tput[ORCA])
	}
	if tput[FT] <= 0 {
		t.Fatal("FT found no feasible batch")
	}
}

func TestLatencyMonotoneInBatch(t *testing.T) {
	e := engine(t, FT, model.OPT13B, 4, hw.A40Cluster)
	prev := 0.0
	for _, b := range []int{4, 8, 16, 32, 64} {
		lat, err := e.LatencyForBound(b, 256, 32, 80)
		if err != nil {
			t.Fatal(err)
		}
		if lat <= prev {
			t.Fatalf("latency not increasing at batch %d: %v after %v", b, lat, prev)
		}
		prev = lat
	}
}

func TestPickBatchRespectsBound(t *testing.T) {
	e := engine(t, FT, model.OPT13B, 4, hw.A40Cluster)
	for _, bound := range []float64{2, 5, 20, math.Inf(1)} {
		b, err := e.PickBatch(bound, 256, 32, 80, 80)
		if err != nil {
			t.Fatal(err)
		}
		if b == 0 {
			continue
		}
		if b%4 != 0 {
			t.Fatalf("batch %d not a multiple of 4", b)
		}
		if math.IsInf(bound, 1) {
			continue
		}
		lat, err := e.LatencyForBound(b, 256, 32, 80)
		if err != nil {
			t.Fatal(err)
		}
		if lat >= bound {
			t.Fatalf("picked batch %d violates bound: %v >= %v", b, lat, bound)
		}
		// The next size up must violate (maximality), unless capped.
		if b+4 <= e.MaxFeasibleBatch(256, 80, 512) {
			lat2, err := e.LatencyForBound(b+4, 256, 32, 80)
			if err != nil {
				t.Fatal(err)
			}
			if lat2 < bound {
				t.Fatalf("batch %d also fits bound %v; PickBatch not maximal", b+4, bound)
			}
		}
	}
}

func TestPickBatchTighterBoundSmallerBatch(t *testing.T) {
	e := engine(t, FT, model.OPT13B, 4, hw.A40Cluster)
	loose, err := e.PickBatch(60, 256, 32, 80, 80)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := e.PickBatch(3, 256, 32, 80, 80)
	if err != nil {
		t.Fatal(err)
	}
	if tight > loose {
		t.Fatalf("tight bound batch %d > loose bound batch %d", tight, loose)
	}
}

func TestLatencySweepSortedPositive(t *testing.T) {
	e := engine(t, FT, model.OPT13B, 4, hw.A40Cluster)
	sweep, err := e.LatencySweep(256, 32, 80, 80)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) < 4 {
		t.Fatalf("sweep too short: %d", len(sweep))
	}
	for i := 1; i < len(sweep); i++ {
		if sweep[i] < sweep[i-1] || sweep[i] <= 0 {
			t.Fatalf("sweep not sorted/positive at %d", i)
		}
	}
}

func TestRunInputValidation(t *testing.T) {
	e := engine(t, FT, model.OPT13B, 4, hw.A40Cluster)
	if _, err := e.Run(0, reqs(t, workload.Summarization, 4, 1), 80); err == nil {
		t.Fatal("batch 0 should fail")
	}
	if _, err := e.Run(4, nil, 80); err == nil {
		t.Fatal("no requests should fail")
	}
}

// Every system completes every request of a long-tailed stream exactly
// once, and its KV cache then holds nothing: no request is still
// admitted, and after a final compaction the tracker holds only the
// weights. Every completion is one request's: FT/DSI count a batch's
// completions from its output lengths, and ORCA/vLLM release each
// completed request's cache by ID, which fails for a request released
// twice.
func TestRunConservation(t *testing.T) {
	for _, sys := range []System{FT, DSI, ORCA, VLLM} {
		e := engine(t, sys, model.OPT13B, 4, hw.A40Cluster)
		weights, _ := e.maxStageMem()
		for _, task := range []workload.Task{workload.Summarization, workload.ConvQA2} {
			rs := reqs(t, task, 240, 29)
			mem, kv, err := e.newKV()
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.run(24, rs, task.Out.Max, mem, kv)
			if err != nil {
				t.Fatalf("%v %s: %v", sys, task.ID, err)
			}
			if res.Stats.Completed != len(rs) {
				t.Fatalf("%v %s: completed %d of %d", sys, task.ID, res.Stats.Completed, len(rs))
			}
			for _, r := range rs {
				if kv.Release(r.ID) == nil {
					t.Fatalf("%v %s: request %d still holds KV after the run", sys, task.ID, r.ID)
				}
			}
			if c, ok := kv.(*kvcache.Compacting); ok {
				c.Compact()
			}
			if mem.Used() != weights || kv.LiveTokens() != 0 {
				t.Fatalf("%v %s: %d bytes (%d live tokens) after the run, want the weights only (%d)",
					sys, task.ID, mem.Used(), kv.LiveTokens(), weights)
			}
		}
	}
}

func TestDSIFasterThanFTSmallBatch(t *testing.T) {
	ft := engine(t, FT, model.OPT13B, 4, hw.A40Cluster)
	dsi := engine(t, DSI, model.OPT13B, 4, hw.A40Cluster)
	rs := reqs(t, workload.Summarization, 48, 17)
	ftRes, err := ft.Run(8, rs, workload.Summarization.Out.Max)
	if err != nil {
		t.Fatal(err)
	}
	dsiRes, err := dsi.Run(8, rs, workload.Summarization.Out.Max)
	if err != nil {
		t.Fatal(err)
	}
	if dsiRes.Stats.Throughput < ftRes.Stats.Throughput {
		t.Fatalf("DSI small-batch kernels should not lose to FT: %.2f vs %.2f",
			dsiRes.Stats.Throughput, ftRes.Stats.Throughput)
	}
}

func BenchmarkFTRun(b *testing.B) {
	e := engine(b, FT, model.OPT13B, 4, hw.A40Cluster)
	rs := reqs(b, workload.Summarization, 100, 19)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(20, rs, 80); err != nil {
			b.Fatal(err)
		}
	}
}
