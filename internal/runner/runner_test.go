package runner

import (
	"math"
	"testing"

	"exegpt/internal/hw"
	"exegpt/internal/metrics"
	"exegpt/internal/model"
	"exegpt/internal/profile"
	"exegpt/internal/sched"
	"exegpt/internal/workload"
)

func engine(t testing.TB, m model.Model, gpus int, cluster hw.Cluster) *Engine {
	t.Helper()
	sub, err := cluster.Sub(gpus)
	if err != nil {
		t.Fatal(err)
	}
	p, err := profile.New(m, sub)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(m, sub, p.Run())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func requests(t testing.TB, task workload.Task, n int, seed int64) []workload.Request {
	t.Helper()
	g, err := workload.NewGenerator(task, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g.Batch(n)
}

// recordedRun executes the schedule as Engine.Run does, with a sink that
// keeps every completion and Table 7's stage-time sampling on. It
// returns the completions in completion order and the samples.
func recordedRun(t testing.TB, e *Engine, cfg sched.Config, alloc sched.Allocation, reqs []workload.Request) ([]QueryRecord, *stageTimes) {
	t.Helper()
	st := &stageTimes{enc: metrics.NewRecorder(), dec: metrics.NewRecorder()}
	var records []QueryRecord
	if _, err := e.runAll(cfg, alloc, reqs, func(r QueryRecord) { records = append(records, r) }, st); err != nil {
		t.Fatal(err)
	}
	return records, st
}

func rraConfig(bd, nd int) sched.Config {
	return sched.Config{Policy: sched.RRA, BE: 1, BD: bd, ND: nd, TP: sched.TPSpec{Degree: 1}}
}

func rraAlloc(t testing.TB, e *Engine, tp sched.TPSpec) sched.Allocation {
	t.Helper()
	a, err := sched.AllocateRRA(e.Model, e.Cluster, tp)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func waaAlloc(t testing.TB, e *Engine, enc, dec int, tp sched.TPSpec) sched.Allocation {
	t.Helper()
	a, err := sched.AllocateWAA(e.Model, e.Cluster, sched.WAAM, enc, dec, tp)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewValidates(t *testing.T) {
	sub, _ := hw.A40Cluster.Sub(4)
	if _, err := New(model.Model{}, sub, &profile.Table{}); err == nil {
		t.Fatal("bad model should fail")
	}
	if _, err := New(model.OPT13B, hw.Cluster{}, &profile.Table{}); err == nil {
		t.Fatal("bad cluster should fail")
	}
	if _, err := New(model.OPT13B, sub, nil); err == nil {
		t.Fatal("nil profile should fail")
	}
}

func TestRunValidatesInputs(t *testing.T) {
	e := engine(t, model.OPT13B, 4, hw.A40Cluster)
	alloc := rraAlloc(t, e, sched.TPSpec{Degree: 1})
	if _, err := e.Run(sched.Config{}, alloc, requests(t, workload.Summarization, 4, 1)); err == nil {
		t.Fatal("invalid config should fail")
	}
	if _, err := e.Run(rraConfig(8, 4), alloc, nil); err == nil {
		t.Fatal("no requests should fail")
	}
}

func TestRRACompletesAllRequests(t *testing.T) {
	e := engine(t, model.OPT13B, 4, hw.A40Cluster)
	reqs := requests(t, workload.Summarization, 300, 7)
	cfg, alloc := rraConfig(64, 8), rraAlloc(t, e, sched.TPSpec{Degree: 1})
	res, err := e.Run(cfg, alloc, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Completed != len(reqs) {
		t.Fatalf("completed %d of %d", res.Stats.Completed, len(reqs))
	}
	if res.Stats.Throughput <= 0 || res.Stats.Elapsed <= 0 {
		t.Fatalf("stats: %+v", res.Stats)
	}
	records, st := recordedRun(t, e, cfg, alloc, reqs)
	if len(records) != len(reqs) {
		t.Fatalf("records %d", len(records))
	}
	for _, r := range records {
		if r.End <= r.Start {
			t.Fatalf("record %d has nonpositive latency", r.ID)
		}
	}
	if res.Iterations == 0 || st.enc.Count() == 0 || st.dec.Count() == 0 {
		t.Fatal("missing stage samples")
	}
}

func TestRRADeterministic(t *testing.T) {
	e := engine(t, model.OPT13B, 4, hw.A40Cluster)
	reqs := requests(t, workload.Translation, 150, 3)
	alloc := rraAlloc(t, e, sched.TPSpec{Degree: 1})
	r1, err := e.Run(rraConfig(32, 8), alloc, reqs)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Run(rraConfig(32, 8), alloc, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.Elapsed != r2.Stats.Elapsed || r1.Stats.P99Lat != r2.Stats.P99Lat {
		t.Fatalf("nondeterministic: %+v vs %+v", r1.Stats, r2.Stats)
	}
}

func TestWAACompletesAllRequests(t *testing.T) {
	e := engine(t, model.OPT13B, 4, hw.A40Cluster)
	reqs := requests(t, workload.Summarization, 300, 9)
	cfg := sched.Config{Policy: sched.WAAM, BE: 4, BD: 128, Bm: 2, TP: sched.TPSpec{Degree: 1}}
	alloc := waaAlloc(t, e, 1, 3, sched.TPSpec{Degree: 1})
	res, err := e.Run(cfg, alloc, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Completed != len(reqs) {
		t.Fatalf("completed %d of %d", res.Stats.Completed, len(reqs))
	}
	enc, dec, err := e.StageTimes(cfg, alloc, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if enc.Count() == 0 || dec.Count() == 0 {
		t.Fatal("missing stage samples")
	}
}

func TestWAADeterministic(t *testing.T) {
	e := engine(t, model.OPT13B, 4, hw.A40Cluster)
	reqs := requests(t, workload.Summarization, 120, 11)
	cfg := sched.Config{Policy: sched.WAAM, BE: 4, BD: 128, Bm: 2, TP: sched.TPSpec{Degree: 1}}
	alloc := waaAlloc(t, e, 1, 3, sched.TPSpec{Degree: 1})
	r1, err := e.Run(cfg, alloc, reqs)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Run(cfg, alloc, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.Elapsed != r2.Stats.Elapsed {
		t.Fatalf("nondeterministic: %v vs %v", r1.Stats.Elapsed, r2.Stats.Elapsed)
	}
}

// Early termination + refill keeps RRA's decode batches near BD; the
// same workload under a "no refill" discipline (huge ND) sees decaying
// batches and worse throughput.
func TestRefillBeatsDecayingBatches(t *testing.T) {
	e := engine(t, model.OPT13B, 4, hw.A40Cluster)
	reqs := requests(t, workload.Translation, 400, 13)
	alloc := rraAlloc(t, e, sched.TPSpec{Degree: 1})
	refill, err := e.Run(rraConfig(96, 8), alloc, reqs)
	if err != nil {
		t.Fatal(err)
	}
	decay, err := e.Run(rraConfig(96, 400), alloc, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if refill.Stats.Throughput <= decay.Stats.Throughput {
		t.Fatalf("refill %.2f should beat decaying batches %.2f",
			refill.Stats.Throughput, decay.Stats.Throughput)
	}
}

// Compaction actually runs under early termination.
func TestCompactionHappens(t *testing.T) {
	e := engine(t, model.OPT13B, 4, hw.A40Cluster)
	reqs := requests(t, workload.Translation, 200, 17)
	res, err := e.Run(rraConfig(64, 8), rraAlloc(t, e, sched.TPSpec{Degree: 1}), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Compactions == 0 || res.CompactionSeconds <= 0 {
		t.Fatalf("expected compactions, got %d (%.4fs)", res.Compactions, res.CompactionSeconds)
	}
}

// fixedTake is the default formation with §5.2 adjustment off: every
// batch takes the scheduled encoder batch size.
type fixedTake struct{}

func (fixedTake) Take(q Queue, want int, _ float64, _, _ int) []workload.Request {
	batch := q.Peek(max(want, 1))
	q.Advance(len(batch))
	return batch
}

// admitBatch admits the longest prefix that fits in KV memory, in
// order: the first request that does not fit and everything behind it
// are deferred, even requests that would fit on their own.
func TestAdmitBatchDefersTail(t *testing.T) {
	e := engine(t, model.OPT13B, 4, hw.A40Cluster)
	states, err := e.newStageStates(rraAlloc(t, e, sched.TPSpec{Degree: 1}))
	if err != nil {
		t.Fatal(err)
	}
	batch := []workload.Request{{ID: 1, InLen: 100}, {ID: 2, InLen: 200}, {ID: 3, InLen: 1 << 30}, {ID: 4, InLen: 50}}
	admitted, tokens, deferred := admitBatch(states, batch)
	if len(admitted) != 2 || admitted[0].ID != 1 || admitted[1].ID != 2 || tokens != 300 || deferred != 2 {
		t.Fatalf("admitted %v, %d tokens, %d deferred; want IDs 1,2, 300 tokens, 2 deferred", admitted, tokens, deferred)
	}
	for i, st := range states {
		if got := st.kv.LiveTokens(); got != 300 {
			t.Fatalf("stage %d caches %d tokens after the failed admission, want 300", i, got)
		}
	}
	if admitted, tokens, deferred = admitBatch(states, batch[3:]); len(admitted) != 1 || tokens != 50 || deferred != 0 {
		t.Fatalf("fitting batch: admitted %v, %d tokens, %d deferred", admitted, tokens, deferred)
	}
}

// Dynamic adjustment (§5.2) reduces decoder-workload variance.
func TestDynamicAdjustmentReducesVariance(t *testing.T) {
	reqs := requests(t, workload.Translation, 500, 19)
	cfg := rraConfig(64, 8)

	run := func(adjust bool) *metrics.Recorder {
		e := engine(t, model.OPT13B, 4, hw.A40Cluster)
		if !adjust {
			e.Formation = fixedTake{}
		}
		_, dec, err := e.StageTimes(cfg, rraAlloc(t, e, sched.TPSpec{Degree: 1}), reqs)
		if err != nil {
			t.Fatal(err)
		}
		return dec
	}
	with := run(true)
	without := run(false)
	// Relative decoder stage-time spread should not get worse with
	// adjustment enabled.
	relWith := with.Std() / with.Mean()
	relWithout := without.Std() / without.Mean()
	if relWith > relWithout*1.1 {
		t.Fatalf("adjustment increased variance: %.4f vs %.4f", relWith, relWithout)
	}
}

// Decoder stage-time variance is small (Table 7: < ~6%).
func TestDecoderVarianceSmall(t *testing.T) {
	e := engine(t, model.OPT13B, 4, hw.A40Cluster)
	reqs := requests(t, workload.Summarization, 600, 23)
	_, dec, err := e.StageTimes(rraConfig(96, 8), rraAlloc(t, e, sched.TPSpec{Degree: 1}), reqs)
	if err != nil {
		t.Fatal(err)
	}
	rel := dec.PctlRange(0.99) / dec.Mean()
	if rel > 0.25 {
		t.Fatalf("decoder 99th pctl range %.1f%% of mean, want small", rel*100)
	}
}

// A schedule whose KV cannot fit even one query fails loudly.
func TestOOMFailsLoudly(t *testing.T) {
	e := engine(t, model.GPT3175B, 16, hw.A100Cluster)
	// Single-GPU stage must hold 96/16 layers of a 175B model: weights
	// fit, but a WAA allocation with 15 encode / 1 decode GPU cannot
	// hold the decode-side copy.
	if _, err := sched.AllocateWAA(e.Model, e.Cluster, sched.WAAM, 15, 1, sched.TPSpec{Degree: 1}); err != nil {
		t.Skip("allocation rejected earlier")
	}
	alloc, _ := sched.AllocateWAA(e.Model, e.Cluster, sched.WAAM, 15, 1, sched.TPSpec{Degree: 1})
	cfg := sched.Config{Policy: sched.WAAM, BE: 4, BD: 64, Bm: 1, TP: sched.TPSpec{Degree: 1}}
	_, err := e.Run(cfg, alloc, requests(t, workload.ConvQA2, 50, 29))
	if err == nil {
		t.Fatal("expected an OOM error")
	}
}

// WAA throughput benefits from decoupled pipelines versus serializing
// encode and decode on the same GPUs with tiny ND.
func TestWAAOverlapsEncodeDecode(t *testing.T) {
	e := engine(t, model.OPT13B, 4, hw.A40Cluster)
	reqs := requests(t, workload.Summarization, 300, 31)
	waaRes, err := e.Run(
		sched.Config{Policy: sched.WAAM, BE: 6, BD: 190, Bm: 2, TP: sched.TPSpec{Degree: 1}},
		waaAlloc(t, e, 1, 3, sched.TPSpec{Degree: 1}), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if waaRes.Stats.Throughput <= 0 {
		t.Fatal("WAA made no progress")
	}
	// Sanity: mean latency below the full-run elapsed time.
	if waaRes.Stats.MeanLat >= waaRes.Stats.Elapsed {
		t.Fatal("latency accounting broken")
	}
}

// Partial TP at runtime reduces p99 latency on large models.
func TestRunnerTPLatency(t *testing.T) {
	e := engine(t, model.GPT339B, 16, hw.A40Cluster)
	reqs := requests(t, workload.Summarization, 150, 37)
	noTP, err := e.Run(rraConfig(32, 8), rraAlloc(t, e, sched.TPSpec{Degree: 1}), reqs)
	if err != nil {
		t.Fatal(err)
	}
	cfgTP := sched.Config{Policy: sched.RRA, BE: 1, BD: 32, ND: 8, TP: sched.TPSpec{Degree: 8, GPUs: 16}}
	withTP, err := e.Run(cfgTP, rraAlloc(t, e, sched.TPSpec{Degree: 8, GPUs: 16}), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if withTP.Stats.P99Lat >= noTP.Stats.P99Lat {
		t.Fatalf("TP should cut p99 latency: %.2f vs %.2f", withTP.Stats.P99Lat, noTP.Stats.P99Lat)
	}
}

// The runner's measured throughput should land in the ballpark of the
// XSimulator estimate (they share the cost substrate); we allow a wide
// band since the runner sees sampled (not expected) workloads.
func TestRunnerMatchesSimulatorShape(t *testing.T) {
	e := engine(t, model.OPT13B, 4, hw.A40Cluster)
	reqs := requests(t, workload.Summarization, 500, 41)
	res, err := e.Run(rraConfig(64, 8), rraAlloc(t, e, sched.TPSpec{Degree: 1}), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Throughput < 1 || res.Stats.Throughput > 1000 {
		t.Fatalf("throughput %v implausible", res.Stats.Throughput)
	}
	if math.IsNaN(res.Stats.P99Lat) || res.Stats.P99Lat <= 0 {
		t.Fatalf("p99 %v", res.Stats.P99Lat)
	}
}

func BenchmarkRunRRA(b *testing.B) {
	e := engine(b, model.OPT13B, 4, hw.A40Cluster)
	reqs := requests(b, workload.Summarization, 200, 43)
	alloc := rraAlloc(b, e, sched.TPSpec{Degree: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(rraConfig(64, 8), alloc, reqs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunWAA(b *testing.B) {
	e := engine(b, model.OPT13B, 4, hw.A40Cluster)
	reqs := requests(b, workload.Summarization, 1200, 43)
	cfg := sched.Config{Policy: sched.WAAM, BE: 4, BD: 128, Bm: 2, TP: sched.TPSpec{Degree: 1}}
	alloc := waaAlloc(b, e, 1, 3, cfg.TP)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(cfg, alloc, reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReqFIFO pins the index-cursor queue semantics the encode path
// relies on: batches come out in order, and a rewind restores the tail
// of the last batch to the queue front without disturbing order.
func TestReqFIFO(t *testing.T) {
	reqs := requests(t, workload.Summarization, 10, 47)
	q := newReqFIFO(reqs)
	if q.Len() != 10 {
		t.Fatalf("len = %d, want 10", q.Len())
	}
	first := q.Peek(4)
	if len(first) != 4 || first[0].ID != reqs[0].ID {
		t.Fatalf("peek returned %v", first)
	}
	q.Advance(4)
	// Admission failed after 1 of the 4: rewind the other 3.
	q.Rewind(3)
	if q.Len() != 9 {
		t.Fatalf("len after rewind = %d, want 9", q.Len())
	}
	var got []int
	for q.Len() > 0 {
		b := q.Peek(3)
		q.Advance(len(b))
		for _, r := range b {
			got = append(got, r.ID)
		}
	}
	for i, id := range got {
		if id != reqs[i+1].ID {
			t.Fatalf("order broken at %d: got %d, want %d", i, id, reqs[i+1].ID)
		}
	}
	// Oversized peek clamps.
	q2 := newReqFIFO(reqs[:2])
	if len(q2.Peek(100)) != 2 {
		t.Fatal("peek must clamp to queue length")
	}
}

// TestRunAllocs pins the batch engine's bookkeeping, the batch
// counterpart of TestOpenServeSteadyStateAllocs: on BenchmarkEngineRun's
// schedule, doubling the request stream adds at most the amortized
// growth of the decoder heap and the KV tables (a slice that doubles
// allocates once per doubling), never an allocation per completion.
// Run's latency and end-time buffers are presized to the stream.
func TestRunAllocs(t *testing.T) {
	e := engine(t, model.OPT13B, 4, hw.A40Cluster)
	alloc := rraAlloc(t, e, sched.TPSpec{Degree: 1})
	cfg := rraConfig(2048, 8)
	allocs := func(n int) float64 {
		reqs := requests(t, workload.Summarization, n, 53)
		return testing.AllocsPerRun(3, func() {
			if _, err := e.Run(cfg, alloc, reqs); err != nil {
				t.Fatal(err)
			}
		})
	}
	const n, growth = 1500, 4
	if base, doubled := allocs(n), allocs(2*n); doubled-base > growth {
		t.Fatalf("Run allocates %v objects on %d requests and %v on %d: doubling may add at most %d",
			base, n, doubled, 2*n, growth)
	}
}

// BenchmarkEngineRun pins the end-to-end engine cost on a KV-pressured
// deployment: BD far above what memory admits, so every encoding phase
// exercises the deferred-admission requeue path that used to copy the
// whole pending queue.
func BenchmarkEngineRun(b *testing.B) {
	e := engine(b, model.OPT13B, 4, hw.A40Cluster)
	reqs := requests(b, workload.Summarization, 1500, 53)
	alloc := rraAlloc(b, e, sched.TPSpec{Degree: 1})
	cfg := rraConfig(2048, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(cfg, alloc, reqs); err != nil {
			b.Fatal(err)
		}
	}
}
