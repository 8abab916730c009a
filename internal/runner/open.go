// The execution engine: OpenRun, which every schedule runs on.
//
// An OpenRun owns a long-lived event simulation that requests are
// pushed into as they arrive: the engine admits from the live queue,
// goes idle when there is no work, wakes on the next arrival, and can
// be drained at any point so a controller can switch schedules —
// in-flight queries finish under the old schedule, queued ones carry
// over to the successor engine with their original arrival timestamps.
// Its latency is measured from arrival (queueing included), which is
// what per-window SLO attainment reports need. The online serving mode
// (`exegpt serve`) drives it directly; Engine.Run queues a pre-drawn
// request stream at t=0 and measures latency from admission instead.
// Completions leave through one sink, OnComplete, under either driver:
// the engine keeps no per-query history, and each queued request
// carries its arrival time with it, so its state is the work in the
// system and nothing more. Table 7's stage-time samples are the one
// extra, taken only for Engine.StageTimes.
//
// RRA runs its synchronized encode-then-ND-decodes cycle as a chain of
// simulator events; WAA runs the asynchronous encoder and decoder
// pipelines, the encoder issuing one batch per stage period. Everything
// is virtual-time and single-goroutine, so a run is bit-for-bit
// deterministic.
package runner

import (
	"fmt"

	"exegpt/internal/eventsim"
	"exegpt/internal/profile"
	"exegpt/internal/sched"
	"exegpt/internal/workload"
)

// Arrival pairs a request with its arrival time in virtual seconds.
type Arrival struct {
	Req workload.Request
	At  float64
}

// dueItem is a value waiting in a dueQueue: its due time and the
// simulator sequence number it took when it was queued.
type dueItem[T any] struct {
	at  float64
	seq eventsim.Seq
	v   T
}

// dueQueue holds an engine's future events of one kind — pushed
// arrivals, WAA handovers — in firing order: by due time, then queueing
// order. Only its head has a simulator event, armed; fire is the
// engine's callback for it, and it takes the head with next. Items are
// mostly queued in due-time order, so an insert is an append. A full
// backing array whose consumed prefix is at least as long as the live
// items shifts them to its front instead of growing, so once it has
// grown to twice the most items ever pending, queueing allocates
// nothing.
type dueQueue[T any] struct {
	items []dueItem[T]
	head  int
	armed eventsim.Handle
	fire  func()
}

func (q *dueQueue[T]) len() int { return len(q.items) - q.head }

// insert places a after every queued item due at or before a.at and
// returns its position, 0 when it is the new head.
func (q *dueQueue[T]) insert(a dueItem[T]) int {
	if q.head > 0 && q.head >= q.len() && len(q.items) == cap(q.items) {
		q.items = q.items[:copy(q.items, q.items[q.head:])]
		q.head = 0
	}
	live := q.items[q.head:]
	i := len(live)
	for i > 0 && live[i-1].at > a.at {
		i--
	}
	q.items = append(q.items, a)
	if i < len(live) {
		live = q.items[q.head:]
		copy(live[i+1:], live[i:])
		live[i] = a
	}
	return i
}

func (q *dueQueue[T]) peek() dueItem[T] { return q.items[q.head] }

func (q *dueQueue[T]) pop() dueItem[T] {
	a := q.items[q.head]
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return a
}

// add queues v due at at. It ties with the engine's own events as if
// it were scheduled now: at the same instant it fires after events
// scheduled before the call and before events scheduled after it.
func (q *dueQueue[T]) add(sim *eventsim.Sim, at float64, v T) {
	a := dueItem[T]{at: at, seq: sim.Reserve(), v: v}
	if q.insert(a) == 0 {
		q.armed.Cancel()
		q.armed = sim.AtSeq(at, a.seq, q.fire)
	}
}

// next takes the head, whose event is firing, and arms the event of the
// item after it.
func (q *dueQueue[T]) next(sim *eventsim.Sim) dueItem[T] {
	a := q.pop()
	if q.len() > 0 {
		n := q.peek()
		q.armed = sim.AtSeq(n.at, n.seq, q.fire)
	}
	return a
}

// OpenRun is one schedule's live execution. It keeps no per-query
// history: each completion goes to OnComplete and nowhere else, so its
// bookkeeping stays the size of the work in the system however many
// requests pass through. It is not safe for concurrent use; the serving
// loop drives it from one goroutine.
type OpenRun struct {
	eng *Engine
	cfg sched.Config
	sim *eventsim.Sim
	dec decoder // query.start is the arrival (admission under Engine.Run)

	queue    reqFIFO
	totalIn  int64
	arrivals int64

	// future holds the pushed arrivals not due yet; its event applies
	// the earliest.
	future dueQueue[workload.Request]

	res     Result // the run's counters; Engine.Run fills the rest
	startAt float64

	// batchRun is set only for a batch run (Engine.Run, StageTimes). It
	// starts each query's latency clock at its admission instead of its
	// arrival. stages is not nil only under StageTimes, which has the
	// engine sample Table 7's stage times into it.
	batchRun bool
	stages   *stageTimes

	// admitting is cleared by Drain: the engine stops taking requests
	// off the queue but finishes everything already admitted/encoded.
	admitting bool
	// parked is set when the admission side has no work and its event
	// chain has ended; the next arrival restarts it.
	parked bool
	err    error

	// OnComplete is the engine's completion sink: every completion is
	// handed to it as it happens, and the engine keeps no other record
	// of it. The serving loop feeds its windowed recorders from it;
	// Engine.Run installs one that keeps each latency and end time for
	// Result.Stats. Nil drops completions.
	OnComplete func(QueryRecord)

	// kern prices the allocation's stages into the reused times buffer.
	kern  *profile.Stages
	times []float64

	// Event callbacks, bound once by Open so that scheduling an event
	// allocates nothing. wake restarts admission when work arrives at a
	// parked engine: rraCycle for shared-pool families, startEncode for
	// dedicated-pool ones.
	onDecode, onStep, onEncode, wake func()

	// rraIter is the decode iteration of the current RRA cycle.
	rraIter int

	// Dedicated-pool pipeline state; populated by Open. handovers holds
	// the encoded batches in KV handover, due when their KV reaches the
	// decoder; inbox the arrived ones waiting to merge; spare the
	// buffers of merged batches, reused by the next issues.
	bm           int
	handovers    dueQueue[encoded]
	inbox        []encoded
	spare        []encoded
	inflight     int // encoder batches not yet fully merged
	inflightReqs int // requests encoded but not yet active
	maxInflight  int
	decoding     bool
}

// encoded is an encoded batch in KV handover or waiting for decoder
// capacity. It owns its storage, so the queue it was taken from can
// reuse its slots meanwhile. reqs[merged:] are still to merge; at holds
// each request's arrival time (empty under Engine.Run, whose latency
// clock starts at issued, the encode issue time).
type encoded struct {
	reqs   []workload.Request
	at     []float64
	merged int
	issued float64
}

// Open starts an open-loop execution of the schedule with the engine's
// clock positioned at startAt (the serving loop uses one global virtual
// timeline across successive engines).
func (e *Engine) Open(cfg sched.Config, alloc sched.Allocation, startAt float64) (*OpenRun, error) {
	if err := cfg.Validate(e.Cluster.TotalGPUs()); err != nil {
		return nil, err
	}
	states, err := e.newStageStates(alloc)
	if err != nil {
		return nil, err
	}
	o := &OpenRun{
		eng: e, cfg: cfg,
		sim:       eventsim.New(),
		dec:       decoder{model: e.Model, states: states},
		startAt:   startAt,
		admitting: true,
		parked:    true,
		kern:      profile.NewStages(e.Prof, e.Cluster, alloc.Stages),
	}
	o.sim.MaxSteps = 500_000_000
	o.future.fire = o.arrive
	// The family's capabilities pick the execution loop (Validate has
	// checked that the policy is registered): shared pools run the
	// synchronized phase loop, dedicated pools the asynchronous encoder
	// and decoder pipelines.
	if f, _ := sched.FamilyOf(cfg.Policy); f.Caps.DedicatedPools {
		encStages, decStages := alloc.EncStages(), alloc.DecStages()
		if len(encStages) == 0 || len(decStages) == 0 {
			return nil, fmt.Errorf("runner: WAA needs dedicated encode and decode stages")
		}
		o.bm = min(cfg.Bm, len(decStages))
		// The encoder pipeline naturally holds one batch per stage, and
		// the KV handover keeps more in flight; bound the buffer so the
		// encoder is never throttled below its steady issue rate but
		// cannot run unboundedly ahead of the decoder.
		o.maxInflight = len(encStages) + 3
		o.onEncode, o.onStep, o.wake = o.startEncode, o.waaStep, o.startEncode
		o.handovers.fire = o.handover
	} else {
		o.onDecode, o.onStep, o.wake = o.rraDecode, o.rraStep, o.rraCycle
	}
	if startAt > 0 {
		o.sim.RunUntil(startAt)
	}
	return o, nil
}

// Now returns the engine's current virtual time.
func (o *OpenRun) Now() float64 { return o.sim.Now() }

// Config returns the schedule being executed.
func (o *OpenRun) Config() sched.Config { return o.cfg }

// QueueDepth returns all requests in the system: queued, encoded
// in-flight (WAA handover), and actively decoding.
func (o *OpenRun) QueueDepth() int {
	return o.queue.Len() + o.inflightReqs + len(o.dec.active)
}

// Done reports whether no work remains anywhere in the engine.
func (o *OpenRun) Done() bool {
	return o.queue.Len() == 0 && o.inflightReqs == 0 && len(o.dec.active) == 0
}

// meanIn is the running mean input length over everything that arrived
// (under Engine.Run, the whole stream's mean).
func (o *OpenRun) meanIn() float64 {
	if o.arrivals == 0 {
		return 1
	}
	return float64(o.totalIn) / float64(o.arrivals)
}

// Push delivers a request to the engine. An arrival at or before the
// engine's clock is applied immediately (the serving loop replays
// backlog from a predecessor engine this way — at keeps the original
// arrival time so queueing latency carries across a schedule switch).
// A future arrival waits in the engine's arrival queue and is applied
// when the clock reaches at: arrivals apply in time order whatever the
// push order, and arrivals at the same time in push order. Against the
// engine's own events an arrival ties as if it were scheduled at Push:
// at the same instant it applies after events scheduled before the
// Push and before events scheduled after it.
func (o *OpenRun) Push(req workload.Request, at float64) {
	if o.err != nil {
		return
	}
	if at <= o.sim.Now() {
		o.applyArrival(req, at)
		return
	}
	o.future.add(o.sim, at, req)
}

// arrive applies the earliest future arrival.
func (o *OpenRun) arrive() {
	a := o.future.next(o.sim)
	o.applyArrival(a.v, a.at)
}

func (o *OpenRun) applyArrival(req workload.Request, at float64) {
	o.queue.push(req, at)
	o.arrivals++
	o.totalIn += int64(req.InLen)
	if o.parked {
		o.parked = false
		o.wake()
	}
}

// RunUntil advances the engine's virtual time to t, processing every
// event due by then.
func (o *OpenRun) RunUntil(t float64) error {
	o.sim.RunUntil(t)
	return o.err
}

// Finish runs the engine until every pushed request — including ones
// whose arrival events have not fired yet — has been admitted and
// completed. Use Drain instead to cut admission at a schedule switch.
func (o *OpenRun) Finish() error {
	o.sim.Run()
	return o.err
}

// Drain stops admission and runs the engine until every admitted (and,
// for WAA, already-encoded) request completes. Requests still queued
// unadmitted are returned with their original arrival times so they can
// be replayed into a successor engine. The engine must not be used
// after Drain except to read results.
func (o *OpenRun) Drain() ([]Arrival, error) {
	o.admitting = false
	o.sim.Run()
	if o.err != nil {
		return nil, o.err
	}
	n := o.queue.Len()
	reqs, at := o.queue.Peek(n), o.queue.arrivals(o.queue.head, n)
	leftover := make([]Arrival, n)
	for i, r := range reqs {
		leftover[i] = Arrival{Req: r, At: at[i]}
	}
	o.queue.Advance(n)
	return leftover, nil
}

// hasEncodeWork reports whether the admission side may take requests.
func (o *OpenRun) hasEncodeWork() bool {
	return o.admitting && o.queue.Len() > 0
}

// takeBatch forms the next encode batch from the live queue through the
// engine's batch-formation policy — the single admission call site both
// execution loops share — and returns it with its arrival times.
func (o *OpenRun) takeBatch() ([]workload.Request, []float64) {
	from := o.queue.head
	batch := o.eng.formation().Take(&o.queue, o.cfg.BE, o.meanIn(), len(o.dec.active), o.cfg.BD)
	return batch, o.queue.arrivals(from, len(batch))
}

// activate makes admitted requests active. at holds their arrival
// times, the latency clock of an open run; under Engine.Run the clock
// is admittedAt, their admission time.
func (o *OpenRun) activate(admitted []workload.Request, at []float64, admittedAt float64) {
	for i, r := range admitted {
		start := admittedAt
		if !o.batchRun {
			start = at[i]
		}
		o.dec.add(r, start)
	}
}

// complete applies one decode iteration's survivors/completions at the
// current virtual time, handing each completion to the sink.
func (o *OpenRun) complete() {
	if err := o.dec.step(o.sim.Now(), o.OnComplete); err != nil {
		o.err = fmt.Errorf("runner: decode OOM: %w", err)
	}
}

// rraCycle runs one RRA cycle: an encoding phase over whatever has
// arrived (skipped when the queue is empty or admission stopped), then
// up to ND decode iterations. With no work at all the engine parks.
func (o *OpenRun) rraCycle() {
	if o.err != nil {
		return
	}
	if !o.hasEncodeWork() && len(o.dec.active) == 0 {
		o.parked = true
		return
	}
	var encDur float64
	if o.hasEncodeWork() {
		batch, at := o.takeBatch()
		admitted, tokens, deferred := admitBatch(o.dec.states, batch)
		if deferred > 0 {
			// Out of memory: the deferred tail returns to the queue
			// front and the phase proceeds with what fits.
			o.queue.Rewind(deferred)
		}
		if len(admitted) == 0 && len(o.dec.active) == 0 {
			o.err = fmt.Errorf("runner: RRA query %d does not fit in KV memory even on an idle system", batch[0].ID)
			return
		}
		if len(admitted) > 0 {
			// The phase runs as rraMicroBatches interleaved
			// mini-batches (Figure 4(a)); stage times are per micro.
			microTokens := tokens / rraMicroBatches
			if microTokens < 1 {
				microTokens = 1
			}
			var err error
			o.times, err = o.kern.Encode(o.times, microTokens, o.meanIn(), 1)
			if err != nil {
				o.err = err
				return
			}
			// Stage-time variance (Table 7) is a steady-state property:
			// skip the drain tail where batches shrink.
			if o.stages != nil && o.queue.Len() > 0 {
				for _, t := range o.times {
					o.stages.enc.Add(t)
				}
			}
			encDur = profile.PipelinePeriod(o.times, rraMicroBatches)
			o.activate(admitted, at, o.sim.Now()+encDur)
		}
	}
	o.rraIter = 0
	o.sim.After(encDur, o.onDecode)
}

// rraDecode runs decode iteration rraIter of the current cycle, or
// starts the next cycle once ND iterations ran or the decoder emptied.
func (o *OpenRun) rraDecode() {
	if o.err != nil {
		return
	}
	if o.rraIter >= o.cfg.ND || len(o.dec.active) == 0 {
		o.rraCycle()
		return
	}
	ctx := o.dec.meanCtx()
	micro := len(o.dec.active) / rraMicroBatches
	if micro < 1 {
		micro = 1
	}
	var err error
	o.times, err = o.kern.Decode(o.times, micro, ctx, 1)
	if err != nil {
		o.err = err
		return
	}
	// Skip the drain tail now and the ramp-up in keepOperatingPoint.
	if o.stages != nil && o.queue.Len() > 0 {
		o.stages.decActive = append(o.stages.decActive, len(o.dec.active))
		o.stages.decTimes = append(o.stages.decTimes, o.times...)
	}
	o.sim.After(profile.PipelinePeriod(o.times, rraMicroBatches), o.onStep)
}

// rraStep finishes one RRA decode iteration: completions, then a
// compaction when the caches fragmented, then the next iteration.
func (o *OpenRun) rraStep() {
	o.res.Iterations++
	o.complete()
	if o.err != nil {
		return
	}
	o.rraIter++
	if cost, ran := o.eng.maybeCompact(o.dec.states); ran {
		o.res.Compactions++
		o.res.CompactionSeconds += cost
		o.sim.After(cost, o.onDecode)
		return
	}
	o.rraDecode()
}

// startEncode issues one WAA encoder batch from the live queue and
// pipelines the next issue one stage period later; with nothing to take
// it parks (arrival wakes it), and at the in-flight cap it stops (the
// decoder restarts it on merge). The batch is copied into a spare
// buffer for its KV handover.
func (o *OpenRun) startEncode() {
	if o.err != nil {
		return
	}
	if !o.hasEncodeWork() {
		o.parked = true
		return
	}
	if o.inflight >= o.maxInflight {
		return
	}
	batch, at := o.takeBatch()
	tokens := 0
	for _, r := range batch {
		tokens += r.InLen
	}
	var terr error
	o.times, terr = o.kern.Encode(o.times, tokens, o.meanIn(), 1)
	if terr != nil {
		o.err = terr
		return
	}
	if o.stages != nil {
		for _, t := range o.times {
			o.stages.enc.Add(t)
		}
	}
	period := profile.Slowest(o.times)
	handover := profile.Traversal(o.times) + o.eng.Prof.KVTransfer(tokens)
	o.inflight++
	o.inflightReqs += len(batch)
	var b encoded
	if n := len(o.spare); n > 0 {
		b = o.spare[n-1]
		o.spare = o.spare[:n-1]
	}
	b.reqs = append(b.reqs[:0], batch...)
	b.at = append(b.at[:0], at...)
	b.merged, b.issued = 0, o.sim.Now()
	o.handovers.add(o.sim, o.sim.Now()+handover, b)
	o.sim.After(period, o.onEncode)
}

// handover delivers the earliest batch whose KV handover completed to
// the decoder's inbox, and restarts a parked decoder.
func (o *OpenRun) handover() {
	o.inbox = append(o.inbox, o.handovers.next(o.sim).v)
	if !o.decoding {
		o.iterate()
	}
}

// iterate is the WAA decoder loop: merge arrived batches that fit (§4.1:
// encoded batches merge with previously decoded data), run one
// iteration, reschedule. Batches that do not fit yet wait for capacity
// freed by completing queries; the waiting list compacts in place, and
// a fully merged batch's buffers go back to spare.
func (o *OpenRun) iterate() {
	if o.err != nil {
		return
	}
	waiting := o.inbox[:0]
	merged := false
	for _, a := range o.inbox {
		at := a.at
		if len(at) > 0 {
			at = at[a.merged:]
		}
		admitted, _, deferred := admitBatch(o.dec.states, a.reqs[a.merged:])
		o.activate(admitted, at, a.issued)
		o.inflightReqs -= len(admitted)
		merged = merged || len(admitted) > 0
		a.merged += len(admitted)
		if deferred > 0 {
			if len(o.dec.active) == 0 {
				o.err = fmt.Errorf("runner: WAA query %d does not fit in KV memory even on an idle decoder", a.reqs[a.merged].ID)
				return
			}
			waiting = append(waiting, a)
		} else {
			o.inflight--
			o.spare = append(o.spare, a)
		}
	}
	o.inbox = waiting
	if merged {
		// In-flight capacity just freed: restart the encoder, whether it
		// stopped on the cap or parked on an empty queue (startEncode
		// re-parks if there is still nothing to take).
		o.parked = false
		o.startEncode()
	}
	if o.err != nil {
		return
	}
	if len(o.dec.active) == 0 {
		o.decoding = false
		return // park the decoder; the next merge restarts it
	}
	o.decoding = true

	micro := len(o.dec.active) / o.bm
	if micro < 1 {
		micro = 1
	}
	ctx := o.dec.meanCtx()
	var terr error
	o.times, terr = o.kern.Decode(o.times, micro, ctx, 1)
	if terr != nil {
		o.err = terr
		return
	}
	// Table 7 samples the decoder while the encoder still feeds it.
	if o.stages != nil && !o.parked {
		for _, t := range o.times {
			o.stages.dec.Add(t)
		}
	}
	dur := profile.PipelinePeriod(o.times, o.bm)
	if cost, ran := o.eng.maybeCompact(o.dec.states); ran {
		dur += cost
		o.res.Compactions++
		o.res.CompactionSeconds += cost
	}
	o.sim.After(dur, o.onStep)
}

// waaStep finishes one WAA decode iteration and runs the next.
func (o *OpenRun) waaStep() {
	o.res.Iterations++
	o.complete()
	if o.err != nil {
		return
	}
	o.iterate()
}
