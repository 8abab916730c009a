// Package runner implements XRunner: the execution engine that enforces
// a schedule produced by XScheduler (§3).
//
// The engine executes over the simulated GPU cluster in virtual time.
// It implements the paper's runtime mechanisms:
//
//   - early termination of completed queries with key/value-cache
//     compaction;
//   - decoupled encoding/decoding with KV handover through host memory
//     for WAA scheduling;
//   - decoder micro-batches and partial tensor parallelism;
//   - dynamic workload adjustment (§5.2): the encoder batch is grown or
//     shrunk to keep the encoder token workload and the decoder batch
//     near their scheduled averages.
//
// RRA executes as a synchronized phase loop (one encoding phase then ND
// decoding iterations, Figure 4(a)); WAA runs the encoder and decoder
// pipelines asynchronously on a discrete-event simulator (Figure 4(b)).
package runner

import (
	"fmt"
	"math"

	"exegpt/internal/eventsim"
	"exegpt/internal/hw"
	"exegpt/internal/kvcache"
	"exegpt/internal/metrics"
	"exegpt/internal/model"
	"exegpt/internal/profile"
	"exegpt/internal/sched"
	"exegpt/internal/workload"
)

// Engine executes schedules for one model deployment.
//
// Concurrency: Run reads the Engine's fields and the profile Table (both
// immutable after construction) and builds all mutable execution state —
// stage KV trackers, metric recorders, the event simulator — per call.
// Separate Engine instances are therefore fully independent, and even a
// single Engine supports concurrent Run calls provided its exported
// knobs are not mutated mid-flight. The parallel sweep in
// internal/experiments drives one Engine per deployment.
type Engine struct {
	Model   model.Model
	Cluster hw.Cluster
	Prof    *profile.Table
	// DynamicAdjust enables §5.2 runtime workload adjustment.
	DynamicAdjust bool
	// Theta is the workload threshold of §5.2 (fractional deviation
	// tolerated before adjusting), default 0.1.
	Theta float64
	// CompactFrac triggers KV compaction when fragmentation exceeds this
	// fraction of live bytes.
	CompactFrac float64
	// Formation overrides the batch-formation policy; nil selects the
	// §5.2 adaptive default (see policy.go).
	Formation BatchFormation
	// Victims overrides victim/admission selection; nil selects the
	// FIFO defer-tail default (admit in order, the unadmitted tail
	// yields).
	Victims VictimSelector
}

// New returns an engine with paper-default runtime options.
func New(m model.Model, cluster hw.Cluster, prof *profile.Table) (*Engine, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	if prof == nil {
		return nil, fmt.Errorf("runner: nil profile")
	}
	return &Engine{Model: m, Cluster: cluster, Prof: prof,
		DynamicAdjust: true, Theta: 0.1, CompactFrac: 0.10}, nil
}

// QueryRecord is the per-query outcome.
type QueryRecord struct {
	ID         int
	Start, End float64 // virtual seconds (generation latency = End-Start)
	InLen      int
	OutLen     int
}

// Result summarizes one execution.
type Result struct {
	Stats   metrics.RunStats
	Records []QueryRecord
	// EncStage and DecStage record per-phase/iteration single-stage
	// execution times (Table 7 variance analysis).
	EncStage, DecStage *metrics.Recorder
	// PeakDecMemPerGPU is the high-water KV+weight bytes on the most
	// loaded decode-role GPU.
	PeakDecMemPerGPU int64
	// Compactions counts cache-compaction events; CompactionSeconds is
	// the total time they consumed.
	Compactions       int
	CompactionSeconds float64
	// Iterations counts decode iterations executed.
	Iterations int
}

// query is the in-flight state of one request.
type query struct {
	req   workload.Request
	start float64
	pos   int // generated tokens so far
}

// decoder is the decode side the three engines share: the active
// queries, the running sum of their context lengths, and the per-stage
// KV caches they occupy.
type decoder struct {
	model  model.Model
	states []*stageState
	active []query
	ctxSum int
}

// add makes an admitted request active, its latency counted from start.
func (d *decoder) add(r workload.Request, start float64) {
	d.ctxSum += d.model.ContextLen(r.InLen, 0)
	d.active = append(d.active, query{req: r, start: start})
}

// meanCtx returns the mean context length over the active queries.
func (d *decoder) meanCtx() float64 {
	if len(d.active) == 0 {
		return 1
	}
	return float64(d.ctxSum) / float64(len(d.active))
}

// step applies one finished decode iteration at virtual time now: every
// active query generates a token; queries that reach their output length
// are released on every stage and appended to rec and records; the
// survivors' contexts and caches then grow by that token, with one
// AppendAll per stage. It returns the number of records appended.
// Release never returns bytes to a stage's tracker, so the bulk charge
// fails exactly when one of the per-query charges it replaces would have.
func (d *decoder) step(now float64, rec *metrics.Recorder, records *[]QueryRecord) (int, error) {
	kept := 0
	for i := range d.active {
		q := &d.active[i]
		q.pos++
		if q.pos < q.req.OutLen {
			d.active[kept] = *q
			kept++
			continue
		}
		d.ctxSum -= d.model.ContextLen(q.req.InLen, q.pos-1)
		release(d.states, q.req.ID)
		rec.Add(now - q.start)
		*records = append(*records, QueryRecord{
			ID: q.req.ID, Start: q.start, End: now,
			InLen: q.req.InLen, OutLen: q.req.OutLen,
		})
	}
	done := len(d.active) - kept
	d.active = d.active[:kept]
	d.ctxSum += kept // ContextLen grows by one per generated token
	for _, st := range d.states {
		if err := st.kv.AppendAll(); err != nil {
			return done, err
		}
	}
	return done, nil
}

// stageState holds the per-decode-stage memory bookkeeping.
type stageState struct {
	stage sched.Stage
	mem   *hw.MemTracker
	kv    *kvcache.Compacting
}

// newStageStates builds KV managers for the decode-role stages, charging
// weights up front.
func (e *Engine) newStageStates(alloc sched.Allocation) ([]*stageState, error) {
	var states []*stageState
	for _, st := range alloc.Stages {
		if st.DecLayers == 0 {
			continue
		}
		mem := hw.NewMemTracker(e.Cluster.GPU.MemoryBytes)
		if err := mem.Alloc(sched.WeightBytesPerGPU(e.Model, st)); err != nil {
			return nil, fmt.Errorf("runner: weights do not fit on stage at rank %d: %w", st.FirstRank, err)
		}
		perToken := e.Model.KVBytesPerTokenLayer() * int64(st.DecLayers) / int64(st.TP)
		states = append(states, &stageState{
			stage: st,
			mem:   mem,
			kv:    kvcache.NewCompacting(mem, perToken),
		})
	}
	if len(states) == 0 {
		return nil, fmt.Errorf("runner: allocation has no decode stages")
	}
	return states, nil
}

// admit reserves KV space for a query's cached prompt tokens on every
// decode stage; on failure it rolls back.
func admit(states []*stageState, id, promptTokens int) error {
	for i, st := range states {
		if err := st.kv.Admit(id, promptTokens, 0); err != nil {
			for _, prev := range states[:i] {
				_ = prev.kv.Release(id)
				prev.kv.Compact()
			}
			return err
		}
	}
	return nil
}

// release frees a completed query everywhere.
func release(states []*stageState, id int) {
	for _, st := range states {
		_ = st.kv.Release(id)
	}
}

// maybeCompact compacts fragmented stages and returns the time cost
// (bytes moved at device bandwidth) and whether compaction ran.
func (e *Engine) maybeCompact(states []*stageState) (float64, bool) {
	var cost float64
	ran := false
	for _, st := range states {
		live := st.kv.LiveTokens() * int64(e.Model.KVBytesPerTokenLayer()) * int64(st.stage.DecLayers) / int64(st.stage.TP)
		if live < 1 {
			live = 1
		}
		if float64(st.kv.FragBytes()) > e.CompactFrac*float64(live) {
			moved := st.kv.Compact()
			cost = math.Max(cost, float64(moved)/e.Cluster.GPU.MemBandwidth)
			ran = true
		}
	}
	return cost, ran
}

func peakMem(states []*stageState) int64 {
	var peak int64
	for _, st := range states {
		if p := st.mem.Peak(); p > peak {
			peak = p
		}
	}
	return peak
}

// promptTokens returns the tokens a request pins in the decode-side KV
// cache after prefill.
func (e *Engine) promptTokens(r workload.Request) int {
	// Both decoder-only (self-attention over the prompt) and
	// encoder-decoder models (cross-attention memoization) cache one
	// entry per input token.
	return r.InLen
}

// Run dispatches on the schedule's policy through the execution-driver
// registry (driver.go).
func (e *Engine) Run(cfg sched.Config, alloc sched.Allocation, reqs []workload.Request) (Result, error) {
	if err := cfg.Validate(e.Cluster.TotalGPUs()); err != nil {
		return Result{}, err
	}
	if len(reqs) == 0 {
		return Result{}, fmt.Errorf("runner: no requests")
	}
	d, err := driverFor(cfg.Policy)
	if err != nil {
		return Result{}, err
	}
	states, err := e.newStageStates(alloc)
	if err != nil {
		return Result{}, err
	}
	return d.runBatch(e, cfg, alloc, reqs, states)
}

// rraMicroBatches matches Figure 4(a)'s two interleaved mini-batches.
const rraMicroBatches = 2

// reqFIFO is an index-cursor FIFO over an immutable request slice.
// Batches come out as subslices (no copying) and a failed admission
// rewinds the cursor, so deferred admission is O(1) instead of the old
// re-prepend (`append(copy(batch[i:]), pending...)`), which copied the
// whole remaining queue on every stall.
type reqFIFO struct {
	items []workload.Request
	head  int
}

// newReqFIFO copies reqs once: the backing array must stay immutable
// while subslices of it are in flight as encode batches.
func newReqFIFO(reqs []workload.Request) reqFIFO {
	return reqFIFO{items: append([]workload.Request(nil), reqs...)}
}

// Len returns the number of queued requests.
func (q *reqFIFO) Len() int { return len(q.items) - q.head }

// Peek returns the next n queued requests (fewer when the queue is
// shorter) without consuming them.
func (q *reqFIFO) Peek(n int) []workload.Request {
	if n > q.Len() {
		n = q.Len()
	}
	return q.items[q.head : q.head+n]
}

// Advance consumes the first n queued requests.
func (q *reqFIFO) Advance(n int) { q.head += n }

// Rewind un-consumes the last n consumed requests; they return to the
// queue front in their original order (they are still contiguous in
// the backing array).
func (q *reqFIFO) Rewind(n int) { q.head -= n }

// push appends a newly arrived request to the queue tail (open-loop
// runs grow the queue incrementally instead of pre-drawing it). When
// the consumed prefix dominates the backing array it is compacted into
// a fresh allocation, which leaves any in-flight batch subslices on the
// old array untouched; appending into spare capacity is equally safe
// because in-flight subslices are never read past their length.
func (q *reqFIFO) push(r workload.Request) {
	if q.head > 64 && q.head > len(q.items)/2 {
		q.items = append([]workload.Request(nil), q.items[q.head:]...)
		q.head = 0
	}
	q.items = append(q.items, r)
}

// runRRA executes the synchronized encode/decode phase loop.
func (e *Engine) runRRA(cfg sched.Config, alloc sched.Allocation, reqs []workload.Request, states []*stageState) (Result, error) {
	res := Result{EncStage: metrics.NewRecorder(), DecStage: metrics.NewRecorder()}
	rec := metrics.NewRecorder()

	pending := newReqFIFO(reqs)
	dec := decoder{model: e.Model, states: states}
	meanIn := meanInLen(reqs)
	now := 0.0
	kern := profile.NewStages(e.Prof, e.Cluster, alloc.Stages)
	var times []float64

	// decSample buffers per-iteration decode stage times so the Table 7
	// variance stats can be restricted to steady state after the fact:
	// the sustainable decoder batch is only known once the run is over.
	type decSample struct {
		active int
		times  []float64
	}
	var decSamples []decSample

	for pending.Len() > 0 || len(dec.active) > 0 {
		// Encoding phase (skipped while draining).
		if pending.Len() > 0 {
			batch := e.formation().Take(&pending, cfg.BE, meanIn, len(dec.active), cfg.BD)
			admitted, tokens, deferred := e.admitBatch(states, batch)
			if deferred > 0 {
				// Out of memory: rewind the deferred victims onto the
				// queue front and proceed with what fits.
				pending.Rewind(deferred)
			}
			if len(admitted) == 0 && len(dec.active) == 0 {
				return Result{}, fmt.Errorf("runner: query %d does not fit in KV memory even on an idle system", batch[0].ID)
			}
			if len(admitted) > 0 {
				// The phase runs as rraMicroBatches interleaved
				// mini-batches (Figure 4(a)); stage times are per micro.
				microTokens := tokens / rraMicroBatches
				if microTokens < 1 {
					microTokens = 1
				}
				var err error
				times, err = kern.Encode(times, microTokens, meanIn, 1)
				if err != nil {
					return Result{}, err
				}
				// Stage-time variance (Table 7) is a steady-state
				// property: skip the drain tail where batches shrink.
				if pending.Len() > 0 {
					for _, t := range times {
						res.EncStage.Add(t)
					}
				}
				now += profile.PipelinePeriod(times, rraMicroBatches)
				for _, r := range admitted {
					dec.add(r, now)
				}
			}
		}

		// ND decoding iterations.
		for u := 0; u < cfg.ND && len(dec.active) > 0; u++ {
			ctx := dec.meanCtx()
			micro := len(dec.active) / rraMicroBatches
			if micro < 1 {
				micro = 1
			}
			var err error
			times, err = kern.Decode(times, micro, ctx, 1)
			if err != nil {
				return Result{}, err
			}
			// Stage-time variance (Table 7) is a steady-state property:
			// skip the drain tail now and the ramp-up in the post-pass
			// below (the achieved steady batch is only known at the end).
			if pending.Len() > 0 {
				decSamples = append(decSamples, decSample{
					active: len(dec.active),
					times:  append([]float64(nil), times...),
				})
			}
			now += profile.PipelinePeriod(times, rraMicroBatches)
			res.Iterations++

			if _, err := dec.step(now, rec, &res.Records); err != nil {
				return Result{}, fmt.Errorf("runner: decode OOM: %w", err)
			}
			if cost, ran := e.maybeCompact(states); ran {
				now += cost
				res.Compactions++
				res.CompactionSeconds += cost
			}
		}
	}
	// Keep only iterations where the decoder ran within Theta of the
	// largest batch it achieved: that is the schedule's operating point,
	// whether or not the request stream ever filled the nominal BD.
	peakActive := 0
	for _, s := range decSamples {
		if s.active > peakActive {
			peakActive = s.active
		}
	}
	floor := float64(peakActive) * (1 - e.Theta)
	for _, s := range decSamples {
		if float64(s.active) >= floor {
			for _, t := range s.times {
				res.DecStage.Add(t)
			}
		}
	}
	res.Stats = metrics.Summarize(rec, now, completionTimes(res.Records))
	res.PeakDecMemPerGPU = peakMem(states)
	return res, nil
}

// completionTimes extracts the End timestamps of the records.
func completionTimes(records []QueryRecord) []float64 {
	ends := make([]float64, len(records))
	for i, r := range records {
		ends[i] = r.End
	}
	return ends
}

// runWAA executes the asynchronous encoder/decoder pipelines on the
// discrete-event simulator.
func (e *Engine) runWAA(cfg sched.Config, alloc sched.Allocation, reqs []workload.Request, states []*stageState) (Result, error) {
	encStages := alloc.EncStages()
	decStages := alloc.DecStages()
	if len(encStages) == 0 || len(decStages) == 0 {
		return Result{}, fmt.Errorf("runner: WAA needs dedicated encode and decode stages")
	}
	bm := cfg.Bm
	if bm > len(decStages) {
		bm = len(decStages)
	}

	res := Result{EncStage: metrics.NewRecorder(), DecStage: metrics.NewRecorder()}
	rec := metrics.NewRecorder()
	sim := eventsim.New()
	sim.MaxSteps = 50_000_000

	pending := newReqFIFO(reqs)
	meanIn := meanInLen(reqs)
	dec := decoder{model: e.Model, states: states}
	kern := profile.NewStages(e.Prof, e.Cluster, alloc.Stages)
	var times []float64
	type arrival struct {
		batch []workload.Request
		start float64
	}
	var inbox []arrival
	inflight := 0 // encoder batches not yet merged by the decoder
	// The encoder pipeline naturally holds one batch per stage, and the
	// KV handover keeps more in flight; bound the buffer so the encoder
	// is never throttled below its steady issue rate but cannot run
	// unboundedly ahead of the decoder.
	maxInflight := len(encStages) + 3
	encDone := false
	var runErr error

	var startEncode func()
	var iterate func()
	decoding := false
	decodeDone := func() {
		res.Iterations++
		if _, err := dec.step(sim.Now(), rec, &res.Records); err != nil {
			runErr = fmt.Errorf("runner: WAA decode OOM: %w", err)
			return
		}
		iterate()
	}

	startEncode = func() {
		if runErr != nil {
			return
		}
		if pending.Len() == 0 {
			encDone = true
			if !decoding {
				iterate()
			}
			return
		}
		if inflight >= maxInflight {
			// Encoder stalls until the decoder drains the buffer; the
			// decoder restarts it.
			return
		}
		batch := e.formation().Take(&pending, cfg.BE, meanIn, len(dec.active), cfg.BD)
		tokens := 0
		for _, r := range batch {
			tokens += r.InLen
		}
		var terr error
		times, terr = kern.Encode(times, tokens, meanIn, 1)
		if terr != nil {
			runErr = terr
			return
		}
		for _, t := range times {
			res.EncStage.Add(t)
		}
		period := profile.Slowest(times)
		handover := profile.Traversal(times) + e.Prof.KVTransfer(tokens)
		start := sim.Now()
		inflight++
		sim.After(handover, func() {
			inbox = append(inbox, arrival{batch: batch, start: start})
			if !decoding {
				iterate()
			}
		})
		// Pipelined issue: the next batch enters the first stage after
		// one stage period.
		sim.After(period, startEncode)
	}

	iterate = func() {
		if runErr != nil {
			return
		}
		// Merge arrivals (§4.1: encoded batches merge with previously
		// decoded data). Arrivals that do not fit yet wait for capacity
		// freed by completing queries. The waiting list compacts in
		// place (the write index never passes the read index) and
		// leftover batches stay subslices, so a stalled decoder never
		// copies queued requests.
		waiting := inbox[:0]
		merged := false
		sel := e.victims()
		tryAdmit := func(r workload.Request) error {
			return admit(states, r.ID, e.promptTokens(r))
		}
		for _, a := range inbox {
			admitted, deferred := sel.Admit(a.batch, tryAdmit)
			for _, r := range admitted {
				dec.add(r, a.start)
				merged = true
			}
			if deferred > 0 {
				i := len(a.batch) - deferred
				if len(dec.active) == 0 {
					runErr = fmt.Errorf("runner: WAA query %d does not fit in KV memory even on an idle decoder", a.batch[i].ID)
					return
				}
				waiting = append(waiting, arrival{batch: a.batch[i:], start: a.start})
			} else {
				inflight--
			}
		}
		restartEnc := merged
		inbox = waiting
		if restartEnc && !encDone {
			startEncode()
		}
		if len(dec.active) == 0 {
			decoding = false
			if encDone && inflight == 0 {
				return // finished
			}
			return // wait for arrivals
		}
		decoding = true

		micro := len(dec.active) / bm
		if micro < 1 {
			micro = 1
		}
		ctx := dec.meanCtx()
		var terr error
		times, terr = kern.Decode(times, micro, ctx, 1)
		if terr != nil {
			runErr = terr
			return
		}
		if !encDone {
			for _, t := range times {
				res.DecStage.Add(t)
			}
		}
		dur := profile.PipelinePeriod(times, bm)
		if cost, ran := e.maybeCompact(states); ran {
			dur += cost
			res.Compactions++
			res.CompactionSeconds += cost
		}
		sim.After(dur, decodeDone)
	}

	startEncode()
	end := sim.Run()
	if runErr != nil {
		return Result{}, runErr
	}
	res.Stats = metrics.Summarize(rec, end, completionTimes(res.Records))
	res.PeakDecMemPerGPU = peakMem(states)
	if res.Stats.Completed != len(reqs) {
		return Result{}, fmt.Errorf("runner: WAA completed %d of %d requests (stall)", res.Stats.Completed, len(reqs))
	}
	return res, nil
}

func meanInLen(reqs []workload.Request) float64 {
	if len(reqs) == 0 {
		return 1
	}
	t := 0
	for _, r := range reqs {
		t += r.InLen
	}
	return float64(t) / float64(len(reqs))
}
