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
// One engine executes every schedule: OpenRun (open.go), an event
// chain on the discrete-event simulator fed from a live queue. RRA runs
// its synchronized cycle (one encoding phase then ND decoding
// iterations, Figure 4(a)) as a chain of events; WAA runs the encoder
// and decoder pipelines asynchronously (Figure 4(b)). The serving loop
// pushes arrivals into it over time; Engine.Run queues a whole
// pre-drawn request stream at t=0 and drains it. Either way every
// completion goes to one sink, OpenRun.OnComplete: the serving loop's
// windowed recorders, or the one Engine.Run installs to summarize the
// run into Result.Stats. No engine keeps per-query history; Table 7's
// stage-time samples are taken only by Engine.StageTimes.
package runner

import (
	"fmt"
	"math"

	"exegpt/internal/hw"
	"exegpt/internal/kvcache"
	"exegpt/internal/metrics"
	"exegpt/internal/model"
	"exegpt/internal/profile"
	"exegpt/internal/sched"
	"exegpt/internal/workload"
)

// theta is the workload threshold of §5.2: the fractional deviation
// from the average workload tolerated before adjusting.
const theta = 0.1

// compactFrac triggers KV compaction when fragmentation exceeds this
// fraction of live bytes.
const compactFrac = 0.10

// Engine executes schedules for one model deployment.
//
// Concurrency: Run and Open read the Engine's fields and the profile
// Table (both immutable after construction) and build all mutable
// execution state — stage KV trackers, metric recorders, the event
// simulator — per call.
// Separate Engine instances are therefore fully independent, and even a
// single Engine supports concurrent Run calls provided its exported
// knobs are not mutated mid-flight. The parallel sweep in
// internal/experiments drives one Engine per deployment.
type Engine struct {
	Model   model.Model
	Cluster hw.Cluster
	Prof    *profile.Table
	// Formation overrides the batch-formation policy; nil selects the
	// §5.2 adaptive default (see policy.go).
	Formation BatchFormation
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
	return &Engine{Model: m, Cluster: cluster, Prof: prof}, nil
}

// QueryRecord is the per-query outcome. Start is when the query's
// latency clock starts: its admission under Engine.Run, its arrival
// under OpenRun.
type QueryRecord struct {
	ID         int
	Start, End float64 // virtual seconds (generation latency = End-Start)
	InLen      int
	OutLen     int
}

// Result summarizes one execution. An OpenRun keeps only its counters
// (Iterations, Compactions, CompactionSeconds); Engine.Run adds Stats,
// summarized from the completions as they stream past, and
// PeakDecMemPerGPU. It holds no per-query records.
type Result struct {
	Stats metrics.RunStats
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
	req    workload.Request
	start  float64
	finish int // the decode iteration that generates its last token
	seq    int // admission order
}

// decoder is the engine's decode side: the active queries, the running
// sum of their context lengths, and the per-stage KV caches they occupy.
// A query's output length fixes the iteration it completes at, so
// active is a binary min-heap on (finish, seq) and a step touches only
// the queries completing in it.
type decoder struct {
	model  model.Model
	states []*stageState
	active []query
	ctxSum int
	iter   int // decode iterations stepped
	seq    int // queries added
}

// add makes an admitted request active, its latency counted from start.
// It generates a token at each of the next max(OutLen, 1) steps.
func (d *decoder) add(r workload.Request, start float64) {
	d.ctxSum += d.model.ContextLen(r.InLen, 0)
	d.active = append(d.active, query{req: r, start: start, finish: d.iter + max(r.OutLen, 1), seq: d.seq})
	d.seq++
	d.siftUp(len(d.active) - 1)
}

// before orders the heap: earlier finish first, then admission order.
func (d *decoder) before(i, j int) bool {
	a, b := &d.active[i], &d.active[j]
	return a.finish < b.finish || (a.finish == b.finish && a.seq < b.seq)
}

func (d *decoder) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !d.before(i, parent) {
			return
		}
		d.active[i], d.active[parent] = d.active[parent], d.active[i]
		i = parent
	}
}

// popMin removes the heap's first query.
func (d *decoder) popMin() {
	last := len(d.active) - 1
	d.active[0] = d.active[last]
	d.active = d.active[:last]
	for i := 0; ; {
		least, l := i, 2*i+1
		if l < last && d.before(l, least) {
			least = l
		}
		if r := l + 1; r < last && d.before(r, least) {
			least = r
		}
		if least == i {
			return
		}
		d.active[i], d.active[least] = d.active[least], d.active[i]
		i = least
	}
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
// are released on every stage and handed to sink (when not nil), in
// admission order; the survivors' contexts and caches then grow by that
// token, with one AppendAll per stage. Release never returns bytes to a
// stage's tracker, so the bulk charge fails exactly when one of the
// per-query charges it replaces would have.
func (d *decoder) step(now float64, sink func(QueryRecord)) error {
	d.iter++
	for len(d.active) > 0 && d.active[0].finish <= d.iter {
		q := d.active[0]
		d.popMin()
		// Its last token was generated at context position
		// max(OutLen, 1)-1.
		d.ctxSum -= d.model.ContextLen(q.req.InLen, max(q.req.OutLen, 1)-1)
		release(d.states, q.req.ID)
		if sink != nil {
			sink(QueryRecord{
				ID: q.req.ID, Start: q.start, End: now,
				InLen: q.req.InLen, OutLen: q.req.OutLen,
			})
		}
	}
	d.ctxSum += len(d.active) // ContextLen grows by one per generated token
	for _, st := range d.states {
		if err := st.kv.AppendAll(); err != nil {
			return err
		}
	}
	return nil
}

// stageState holds the per-decode-stage memory bookkeeping. kvLayers
// is the KV bytes one token caches across the stage's decode layers
// (KVBytesPerTokenLayer·DecLayers) and tp the stage's tensor-parallel
// degree, kept so maybeCompact prices live bytes without touching the
// model.
type stageState struct {
	stage    sched.Stage
	mem      *hw.MemTracker
	kv       *kvcache.Compacting
	kvLayers int64
	tp       int64
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
		kvLayers, tp := e.Model.KVBytesPerTokenLayer()*int64(st.DecLayers), int64(st.TP)
		states = append(states, &stageState{
			stage:    st,
			mem:      mem,
			kv:       kvcache.NewCompacting(mem, kvLayers/tp),
			kvLayers: kvLayers,
			tp:       tp,
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
		live := st.kv.LiveTokens() * st.kvLayers / st.tp
		if live < 1 {
			live = 1
		}
		if float64(st.kv.FragBytes()) > compactFrac*float64(live) {
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

// Run executes the schedule on a pre-drawn request stream and drains
// it to empty. It is the open engine with every request queued at t=0
// before its one wake, plus a rule of its own: a query's latency runs
// from its admission (the end of its RRA encoding phase, or its WAA
// encode issue), not from its arrival. Its completion sink keeps only
// each query's latency and end time, from which it summarizes Stats.
func (e *Engine) Run(cfg sched.Config, alloc sched.Allocation, reqs []workload.Request) (Result, error) {
	// Every request completes once: one allocation holds each series.
	lat, ends := make([]float64, 0, len(reqs)), make([]float64, 0, len(reqs))
	o, err := e.runAll(cfg, alloc, reqs, func(r QueryRecord) {
		lat = append(lat, r.End-r.Start)
		ends = append(ends, r.End)
	}, nil)
	if err != nil {
		return Result{}, err
	}
	res := o.res
	res.Stats = metrics.Summarize(lat, o.sim.Now()-o.startAt, ends)
	return res, nil
}

// StageTimes executes the schedule as Run does and returns the
// steady-state single-stage execution times of its encode batches and
// decode iterations, one sample per stage each (Table 7's variance
// analysis). It is Run's execution with the sampling on and the
// completions dropped.
func (e *Engine) StageTimes(cfg sched.Config, alloc sched.Allocation, reqs []workload.Request) (enc, dec *metrics.Recorder, err error) {
	st := &stageTimes{enc: metrics.NewRecorder(), dec: metrics.NewRecorder()}
	if _, err := e.runAll(cfg, alloc, reqs, nil, st); err != nil {
		return nil, nil, err
	}
	return st.enc, st.dec, nil
}

// stageTimes collects Table 7's stage-time samples during a batch run.
// Encode batches are sampled while requests are still queued, skipping
// the drain tail where batches shrink; WAA decode iterations while the
// encoder still feeds the decoder. RRA decode samples are buffered
// instead — decTimes holds the stage times of each iteration whose
// active batch is in decActive — and keepOperatingPoint filters them by
// the achieved batch once the run is over.
type stageTimes struct {
	enc, dec  *metrics.Recorder
	decActive []int
	decTimes  []float64
}

// keepOperatingPoint moves into dec the buffered RRA decode iterations
// where the decoder ran within theta of the largest batch it achieved:
// that is the schedule's operating point, whether or not the request
// stream ever filled the nominal BD. stride is the number of decode
// stages, one time each per iteration.
func (s *stageTimes) keepOperatingPoint(stride int) {
	peakActive := 0
	for _, a := range s.decActive {
		peakActive = max(peakActive, a)
	}
	floor := float64(peakActive) * (1 - theta)
	for i, a := range s.decActive {
		if float64(a) >= floor {
			for _, t := range s.decTimes[i*stride : (i+1)*stride] {
				s.dec.Add(t)
			}
		}
	}
}

// runAll opens a batch-mode engine, queues every request at t=0, wakes
// it once and runs it until every request completed. Every completion
// goes to sink (nil drops them); with st not nil the engine samples
// Table 7's stage times into it.
func (e *Engine) runAll(cfg sched.Config, alloc sched.Allocation, reqs []workload.Request, sink func(QueryRecord), st *stageTimes) (*OpenRun, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("runner: no requests")
	}
	o, err := e.Open(cfg, alloc, 0)
	if err != nil {
		return nil, err
	}
	o.batchRun = true
	o.stages = st
	o.OnComplete = sink
	o.queue = newReqFIFO(reqs)
	for _, r := range reqs {
		o.totalIn += int64(r.InLen)
	}
	o.arrivals = int64(len(reqs))
	o.parked = false
	o.wake()
	if err := o.Finish(); err != nil {
		return nil, err
	}
	if left := o.QueueDepth(); left > 0 {
		return nil, fmt.Errorf("runner: %v completed %d of %d requests (stall)", cfg.Policy, len(reqs)-left, len(reqs))
	}
	if st != nil {
		st.keepOperatingPoint(len(o.dec.states))
	}
	o.res.PeakDecMemPerGPU = peakMem(o.dec.states)
	return o, nil
}

// rraMicroBatches matches Figure 4(a)'s two interleaved mini-batches.
const rraMicroBatches = 2

// reqFIFO is an index-cursor FIFO of queued requests. Batches come out
// as subslices (no copying) and a failed admission rewinds the cursor,
// so deferred admission is O(1). at holds each pushed request's arrival
// time, parallel to items; a queue built by newReqFIFO has none.
// newReqFIFO's items are the caller's slice, so nothing may write to
// them: a batch from Peek is read-only, and push, the queue's one
// writer, runs only on the queues open runs grow.
type reqFIFO struct {
	items []workload.Request
	at    []float64
	head  int
}

// newReqFIFO queues reqs in place, without a copy: the queue of a batch
// run, which is never pushed to, only reads the caller's slice, so
// concurrent runs may share one request stream.
func newReqFIFO(reqs []workload.Request) reqFIFO {
	return reqFIFO{items: reqs}
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

// arrivals returns the arrival times of the n requests from position
// from of the backing array, or nil when the queue has none.
func (q *reqFIFO) arrivals(from, n int) []float64 {
	if q.at == nil {
		return nil
	}
	return q.at[from : from+n]
}

// push appends a request that arrived at at to the queue tail (open
// runs grow the queue incrementally instead of pre-drawing it). A full
// backing array whose consumed prefix is at least as long as the queue
// shifts the queue to its front instead of growing, so once it has
// grown to twice the longest queue, pushing allocates nothing. The
// shift overwrites consumed slots: a batch taken from the queue must be
// used, or copied, before the next push.
func (q *reqFIFO) push(r workload.Request, at float64) {
	if q.head > 0 && q.head >= q.Len() && len(q.items) == cap(q.items) {
		n := copy(q.items, q.items[q.head:])
		copy(q.at, q.at[q.head:])
		q.items, q.at, q.head = q.items[:n], q.at[:n], 0
	}
	q.items = append(q.items, r)
	q.at = append(q.at, at)
}
