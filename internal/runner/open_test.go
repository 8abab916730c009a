package runner

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"exegpt/internal/core"
	"exegpt/internal/eventsim"
	"exegpt/internal/hw"
	"exegpt/internal/metrics"
	"exegpt/internal/model"
	"exegpt/internal/sched"
	"exegpt/internal/workload"
)

func openEngine(t *testing.T) *Engine {
	t.Helper()
	m, err := model.ByName("OPT-13B")
	if err != nil {
		t.Fatal(err)
	}
	return engine(t, m, 4, hw.A40Cluster)
}

// completions collects an engine's completions in completion order.
type completions struct{ recs []QueryRecord }

// collect installs a sink on o that keeps every completion.
func collect(o *OpenRun) *completions {
	c := &completions{}
	o.OnComplete = func(r QueryRecord) { c.recs = append(c.recs, r) }
	return c
}

// pushAll feeds arrivals spaced gap seconds apart and returns the last
// arrival time.
func pushAll(o *OpenRun, reqs []workload.Request, start, gap float64) float64 {
	at := start
	for _, r := range reqs {
		o.Push(r, at)
		at += gap
	}
	return at - gap
}

func TestOpenRRACompletesAll(t *testing.T) {
	e := openEngine(t)
	reqs := requests(t, workload.Summarization, 64, 7)
	cfg := rraConfig(16, 4)
	alloc := rraAlloc(t, e, cfg.TP)

	o, err := e.Open(cfg, alloc, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := collect(o)
	last := pushAll(o, reqs, 0, 0.05)
	if err := o.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(done.recs) != len(reqs) {
		t.Fatalf("completed %d of %d", len(done.recs), len(reqs))
	}
	if !o.Done() {
		t.Fatal("engine not Done after drain")
	}
	if o.Now() < last {
		t.Fatalf("clock %v did not reach last arrival %v", o.Now(), last)
	}
	for _, r := range done.recs {
		if r.End <= r.Start {
			t.Fatalf("record %d: End %v <= Start %v", r.ID, r.End, r.Start)
		}
	}
}

func TestOpenWAACompletesAll(t *testing.T) {
	e := openEngine(t)
	reqs := requests(t, workload.Summarization, 64, 7)
	cfg := sched.Config{Policy: sched.WAAM, BE: 8, BD: 64, Bm: 2, ND: 1, TP: sched.TPSpec{Degree: 1}}
	alloc := waaAlloc(t, e, 1, 3, cfg.TP)

	o, err := e.Open(cfg, alloc, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := collect(o)
	pushAll(o, reqs, 0, 0.05)
	if err := o.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(done.recs) != len(reqs) {
		t.Fatalf("completed %d of %d", len(done.recs), len(reqs))
	}
	if !o.Done() {
		t.Fatal("engine not Done after drain")
	}
}

// TestOpenLatencyIncludesQueueing pins that Start is the arrival time:
// a request arriving into a busy system must show more latency than the
// same request hitting an idle one.
func TestOpenLatencyIncludesQueueing(t *testing.T) {
	e := openEngine(t)
	reqs := requests(t, workload.Summarization, 40, 3)
	cfg := rraConfig(8, 4)
	alloc := rraAlloc(t, e, cfg.TP)

	o, err := e.Open(cfg, alloc, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := collect(o)
	// Everything arrives at t=0: the tail of the queue waits.
	for _, r := range reqs {
		o.Push(r, 0)
	}
	if err := o.Finish(); err != nil {
		t.Fatal(err)
	}
	recs := done.recs
	if len(recs) != len(reqs) {
		t.Fatalf("completed %d of %d", len(recs), len(reqs))
	}
	for _, r := range recs {
		if r.Start != 0 {
			t.Fatalf("record %d Start = %v, want arrival time 0", r.ID, r.Start)
		}
	}
}

// TestOpenIdleWake pins parking: with a long gap between arrivals the
// engine must quiesce (complete the first request) and then wake for
// the second, rather than spinning or stalling.
func TestOpenIdleWake(t *testing.T) {
	e := openEngine(t)
	reqs := requests(t, workload.Summarization, 2, 11)
	for _, cfg := range []sched.Config{
		rraConfig(4, 2),
		{Policy: sched.WAAM, BE: 2, BD: 16, Bm: 2, ND: 1, TP: sched.TPSpec{Degree: 1}},
	} {
		var alloc sched.Allocation
		if cfg.Policy.IsWAA() {
			alloc = waaAlloc(t, e, 1, 3, cfg.TP)
		} else {
			alloc = rraAlloc(t, e, cfg.TP)
		}
		o, err := e.Open(cfg, alloc, 0)
		if err != nil {
			t.Fatal(err)
		}
		done := collect(o)
		o.Push(reqs[0], 0)
		o.Push(reqs[1], 1000)
		if err := o.RunUntil(999); err != nil {
			t.Fatal(err)
		}
		if got := len(done.recs); got != 1 {
			t.Fatalf("%v: %d completions before the gap, want 1", cfg.Policy, got)
		}
		if !o.Done() {
			t.Fatalf("%v: engine busy during idle gap (depth %d)", cfg.Policy, o.QueueDepth())
		}
		if err := o.Finish(); err != nil {
			t.Fatal(err)
		}
		if got := len(done.recs); got != 2 {
			t.Fatalf("%v: %d total completions, want 2", cfg.Policy, got)
		}
		if second := done.recs[1]; second.Start != 1000 || second.End <= 1000 {
			t.Fatalf("%v: second record %+v not anchored at its arrival", cfg.Policy, second)
		}
	}
}

// TestOpenDrainCarriesBacklog pins the schedule-switch seam: draining
// mid-run finishes admitted work and hands back the queued remainder
// with original arrival times, and a successor engine at a later start
// time finishes the job with queueing latency preserved.
func TestOpenDrainCarriesBacklog(t *testing.T) {
	e := openEngine(t)
	reqs := requests(t, workload.Summarization, 48, 5)
	cfg := rraConfig(4, 4)
	alloc := rraAlloc(t, e, cfg.TP)

	o, err := e.Open(cfg, alloc, 0)
	if err != nil {
		t.Fatal(err)
	}
	first := collect(o)
	for _, r := range reqs {
		o.Push(r, 0)
	}
	if err := o.RunUntil(0.5); err != nil {
		t.Fatal(err)
	}
	leftover, err := o.Drain()
	if err != nil {
		t.Fatal(err)
	}
	done := len(first.recs)
	if done == 0 || len(leftover) == 0 {
		t.Fatalf("drain split %d done / %d leftover; want both non-zero", done, len(leftover))
	}
	if done+len(leftover) != len(reqs) {
		t.Fatalf("done %d + leftover %d != %d", done, len(leftover), len(reqs))
	}
	for _, a := range leftover {
		if a.At != 0 {
			t.Fatalf("leftover arrival time %v, want 0", a.At)
		}
	}

	resume := o.Now() + 2.0 // drain + modeled reconfiguration downtime
	o2, err := e.Open(cfg, alloc, resume)
	if err != nil {
		t.Fatal(err)
	}
	if o2.Now() != resume {
		t.Fatalf("successor clock %v, want %v", o2.Now(), resume)
	}
	second := collect(o2)
	for _, a := range leftover {
		o2.Push(a.Req, a.At)
	}
	if err := o2.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := len(second.recs); got != len(leftover) {
		t.Fatalf("successor completed %d of %d", got, len(leftover))
	}
	for _, r := range second.recs {
		if r.Start != 0 || r.End <= resume {
			t.Fatalf("successor record %+v lost its queueing latency", r)
		}
	}
}

// TestOpenDeterministic pins byte-identical replay: same requests, same
// arrival times, same schedule => identical records.
func TestOpenDeterministic(t *testing.T) {
	e := openEngine(t)
	reqs := requests(t, workload.Summarization, 64, 9)
	for _, cfg := range []sched.Config{
		rraConfig(8, 4),
		{Policy: sched.WAAM, BE: 4, BD: 32, Bm: 2, ND: 1, TP: sched.TPSpec{Degree: 1}},
	} {
		var alloc sched.Allocation
		if cfg.Policy.IsWAA() {
			alloc = waaAlloc(t, e, 1, 3, cfg.TP)
		} else {
			alloc = rraAlloc(t, e, cfg.TP)
		}
		run := func() []QueryRecord {
			o, err := e.Open(cfg, alloc, 0)
			if err != nil {
				t.Fatal(err)
			}
			done := collect(o)
			pushAll(o, reqs, 0, 0.02)
			if err := o.Finish(); err != nil {
				t.Fatal(err)
			}
			return done.recs
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: records differ across identical runs", cfg.Policy)
		}
	}
}

// TestOpenMatchesBatchThroughput runs every registered family's
// schedules (OPT-13B/4xA40, tasks S and T, selected as in the runner
// golden) through Run and through OpenRun with every request pushed at
// t=0. Both are one engine, so they finish the same requests and their
// throughput differs only through the first encode batch: OpenRun wakes
// on the first Push and encodes that request alone. The per-family bands
// hold today's worst gap and only tighten.
func TestOpenMatchesBatchThroughput(t *testing.T) {
	bands := map[string][2]float64{
		"RRA":    {0.9863, 1},      // T RRA{BE=7 BD=51 ND=13}
		"WAA-C":  {0.9999, 1},      // S WAA-C{BE=2 BD=65 Bm=1}
		"WAA-M":  {0.9999, 1.0798}, // S WAA-M{BE=12 BD=387 Bm=1}
		"DISAGG": {0.9999, 1.0332}, // S DISAGG{BE=7 BD=226 Bm=1}
	}
	e := openEngine(t)
	for _, task := range []workload.Task{workload.Summarization, workload.Translation} {
		in, out, err := task.Dists()
		if err != nil {
			t.Fatal(err)
		}
		sim, err := core.NewSimulator(e.Model, e.Cluster, e.Prof, in, out)
		if err != nil {
			t.Fatal(err)
		}
		reqs := requests(t, task, 200, 13)
		for _, f := range registeredFamilies() {
			band, ok := bands[f.Name]
			if !ok {
				t.Fatalf("family %s has no throughput band", f.Name)
			}
			for _, sel := range goldenSelections {
				est, found := familySchedule(t, sim, f.Policy, sel.slack)
				if !found {
					t.Fatalf("%s/%s/%s: no feasible schedule", task.ID, f.Name, sel.name)
				}
				batch, err := e.Run(est.Config, est.Alloc, reqs)
				if err != nil {
					t.Fatalf("%s %s: %v", task.ID, est.Config, err)
				}
				o, err := e.Open(est.Config, est.Alloc, 0)
				if err != nil {
					t.Fatal(err)
				}
				done := collect(o)
				for _, r := range reqs {
					o.Push(r, 0)
				}
				if err := o.Finish(); err != nil {
					t.Fatal(err)
				}
				if len(done.recs) != batch.Stats.Completed {
					t.Fatalf("%s %s: open completed %d, batch %d", task.ID, est.Config, len(done.recs), batch.Stats.Completed)
				}
				open := metrics.Throughput(len(done.recs), o.Now())
				ratio := open / batch.Stats.Throughput
				if math.IsNaN(ratio) || ratio < band[0] || ratio > band[1] {
					t.Errorf("%s %s: open tput %.4f vs batch %.4f (ratio %.6f) outside [%v, %v]",
						task.ID, est.Config, open, batch.Stats.Throughput, ratio, band[0], band[1])
				}
			}
		}
	}
}

type openSchedule struct {
	cfg   sched.Config
	alloc sched.Allocation
}

// openConfigs are one RRA and one WAA schedule on openEngine, for the
// arrival-order tests. Their expected orders were recorded with one
// simulator event per pushed arrival, so they pin that the arrival
// queue, with one event per engine, applies arrivals in that order.
func openConfigs(t *testing.T, e *Engine) []openSchedule {
	rra := rraConfig(4, 2)
	waa := sched.Config{Policy: sched.WAAM, BE: 2, BD: 16, Bm: 2, ND: 1, TP: sched.TPSpec{Degree: 1}}
	return []openSchedule{
		{rra, rraAlloc(t, e, rra.TP)},
		{waa, waaAlloc(t, e, 1, 3, waa.TP)},
	}
}

// completionOrder returns the record IDs in completion order and checks
// that each record's Start is the time its request was pushed for.
func completionOrder(t *testing.T, recs []QueryRecord, pushedAt map[int]float64) []int {
	t.Helper()
	ids := make([]int, len(recs))
	for i, r := range recs {
		if r.Start != pushedAt[r.ID] {
			t.Errorf("record %d Start = %v, want its arrival %v", r.ID, r.Start, pushedAt[r.ID])
		}
		ids[i] = r.ID
	}
	return ids
}

// TestOpenOutOfOrderPush pushes future arrivals earlier than the queued
// tail and earlier than the armed head, before and after the clock
// moves. Arrivals apply in time order, ties in push order.
func TestOpenOutOfOrderPush(t *testing.T) {
	e := openEngine(t)
	reqs := requests(t, workload.Summarization, 10, 21)
	want := map[string][]int{
		"RRA":   {0, 8, 6, 4, 5, 1, 3, 9, 7, 2},
		"WAA-M": {0, 8, 6, 4, 5, 1, 3, 9, 7, 2},
	}
	for _, c := range openConfigs(t, e) {
		o, err := e.Open(c.cfg, c.alloc, 0)
		if err != nil {
			t.Fatal(err)
		}
		done := collect(o)
		pushedAt := map[int]float64{}
		push := func(i int, at float64) {
			pushedAt[reqs[i].ID] = at
			o.Push(reqs[i], at)
		}
		push(0, 0) // applied now
		push(1, 2) // head
		push(2, 4) // tail
		push(3, 3) // before the tail
		push(4, 1) // before the armed head
		push(5, 1) // ties the new head: after it
		if err := o.RunUntil(1.5); err != nil {
			t.Fatal(err)
		}
		push(6, 1.7) // before the armed head, after the clock moved
		push(7, 5)
		push(8, 1.7)
		push(9, 3)
		if err := o.Finish(); err != nil {
			t.Fatal(err)
		}
		got := completionOrder(t, done.recs, pushedAt)
		if name := c.cfg.Policy.String(); !reflect.DeepEqual(got, want[name]) {
			t.Errorf("%s: completion order %v, want %v", name, got, want[name])
		}
	}
}

// TestOpenEqualTimePushes pushes batches of arrivals at one instant,
// including a later batch at an earlier instant: each batch applies in
// push order.
func TestOpenEqualTimePushes(t *testing.T) {
	e := openEngine(t)
	reqs := requests(t, workload.Summarization, 16, 23)
	want := map[string][]int{
		"RRA":   {7, 6, 0, 5, 11, 8, 10, 2, 1, 3, 4, 9, 12, 14, 15, 13},
		"WAA-M": {6, 7, 0, 5, 11, 10, 8, 4, 2, 3, 1, 9, 14, 12, 15, 13},
	}
	for _, c := range openConfigs(t, e) {
		o, err := e.Open(c.cfg, c.alloc, 0)
		if err != nil {
			t.Fatal(err)
		}
		done := collect(o)
		pushedAt := map[int]float64{}
		for i, at := range []float64{1, 1, 1, 1, 1, 1, 0.5, 0.5, 0.5, 0.5, 1, 1, 2, 2, 0.5, 2} {
			pushedAt[reqs[i].ID] = at
			o.Push(reqs[i], at)
		}
		if err := o.Finish(); err != nil {
			t.Fatal(err)
		}
		got := completionOrder(t, done.recs, pushedAt)
		if name := c.cfg.Policy.String(); !reflect.DeepEqual(got, want[name]) {
			t.Errorf("%s: completion order %v, want %v", name, got, want[name])
		}
	}
}

// TestOpenDrainDeliversFutureArrivals drains an engine with future
// arrivals still queued, pushed out of order and with ties: Drain
// applies every one of them in order and hands them all back.
func TestOpenDrainDeliversFutureArrivals(t *testing.T) {
	e := openEngine(t)
	reqs := requests(t, workload.Summarization, 10, 25)
	type left struct {
		id int
		at float64
	}
	want := map[string][]left{
		"RRA":   {{1, 0}, {2, 0}, {3, 0}, {8, 1}, {5, 3}, {6, 3}, {4, 5}, {9, 5}, {7, 7}},
		"WAA-M": {{8, 1}, {5, 3}, {6, 3}, {4, 5}, {9, 5}, {7, 7}},
	}
	for _, c := range openConfigs(t, e) {
		o, err := e.Open(c.cfg, c.alloc, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reqs[:4] {
			o.Push(r, 0)
		}
		if err := o.RunUntil(0.1); err != nil {
			t.Fatal(err)
		}
		for i, at := range []float64{5, 3, 3, 7, 1, 5} {
			o.Push(reqs[4+i], at)
		}
		leftover, err := o.Drain()
		if err != nil {
			t.Fatal(err)
		}
		if o.Now() < 7 {
			t.Errorf("%s: clock %v after Drain, before the last arrival at 7", c.cfg.Policy, o.Now())
		}
		var got []left
		for _, a := range leftover {
			got = append(got, left{a.Req.ID, a.At})
		}
		if name := c.cfg.Policy.String(); !reflect.DeepEqual(got, want[name]) {
			t.Errorf("%s: leftovers %v, want %v", name, got, want[name])
		}
	}
}

// TestOpenArrivalTiesEngineEvent pins the tie between an arrival and an
// engine event at the same instant: the arrival was pushed before the
// engine scheduled the event, so it applies first. Here the event is
// the RRA decode step that ends a cycle, and the arrival X at that
// instant joins the next cycle's encode batch with Y, which arrived
// mid-cycle; both have the same lengths, so they complete together.
// X is not the earliest future arrival when pushed, so only its place
// in the push order puts it before the step.
func TestOpenArrivalTiesEngineEvent(t *testing.T) {
	e := openEngine(t)
	cfg := sched.Config{Policy: sched.RRA, BE: 2, BD: 4, ND: 2, TP: sched.TPSpec{Degree: 1}}
	alloc := rraAlloc(t, e, cfg.TP)
	long := workload.Request{ID: 0, InLen: 64, OutLen: 32}
	y := workload.Request{ID: 1, InLen: 64, OutLen: 4}
	x := workload.Request{ID: 2, InLen: 64, OutLen: 4}

	// Probe the decode step instants of the long request alone.
	probe, err := e.Open(cfg, alloc, 0)
	if err != nil {
		t.Fatal(err)
	}
	var steps []float64
	step := probe.onStep
	probe.onStep = func() {
		steps = append(steps, probe.Now())
		step()
	}
	probe.Push(long, 0)
	if err := probe.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(steps) < 4 {
		t.Fatalf("probe ran %d decode steps, want at least 4", len(steps))
	}
	// The step at steps[3] ends the second cycle; it was scheduled at
	// steps[2], before Y (pushed first, so the head) arrives.
	o, err := e.Open(cfg, alloc, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := collect(o)
	o.Push(long, 0)
	o.Push(y, (steps[2]+steps[3])/2)
	o.Push(x, steps[3])
	if err := o.Finish(); err != nil {
		t.Fatal(err)
	}
	end := map[int]float64{}
	for _, r := range done.recs {
		end[r.ID] = r.End
	}
	if len(end) != 3 || end[x.ID] != end[y.ID] {
		t.Fatalf("X completed at %v, Y at %v; want one batch (records %+v)", end[x.ID], end[y.ID], done.recs)
	}
}

// TestOpenFuturePushAllocs pins the arrival queue's cost: once its
// backing array has grown, a future-arrival Push allocates nothing.
func TestOpenFuturePushAllocs(t *testing.T) {
	e := openEngine(t)
	cfg := rraConfig(4, 2)
	o, err := e.Open(cfg, rraAlloc(t, e, cfg.TP), 0)
	if err != nil {
		t.Fatal(err)
	}
	req := requests(t, workload.Summarization, 1, 27)[0]
	at := 1.0
	for i := 0; i < 256; i++ {
		o.Push(req, at)
		at += 1e-3
	}
	if err := o.Finish(); err != nil {
		t.Fatal(err)
	}
	at = o.Now() + 1
	if got := testing.AllocsPerRun(200, func() {
		o.Push(req, at)
		at += 1e-3
	}); got != 0 {
		t.Fatalf("future-arrival Push allocates %v objects, want 0", got)
	}
}

// TestOpenServeSteadyStateAllocs pins the serve path's bookkeeping:
// once an open engine's buffers have grown, pushing requests and running
// them to completion allocates nothing, for RRA and for WAA-C, whose
// encoded batches carry their arrival times through the KV handover in
// recycled buffers. The request queue compacts in place, and the
// handover callback is bound once.
func TestOpenServeSteadyStateAllocs(t *testing.T) {
	e := openEngine(t)
	waa := sched.Config{Policy: sched.WAAC, BE: 2, BD: 16, Bm: 1, ND: 1, TP: sched.TPSpec{Degree: 1}}
	waaAllocC, err := sched.AllocateWAA(e.Model, e.Cluster, sched.WAAC, 1, 3, waa.TP)
	if err != nil {
		t.Fatal(err)
	}
	rra := rraConfig(8, 4)
	reqs := requests(t, workload.Summarization, 64, 29)
	for _, c := range []openSchedule{{rra, rraAlloc(t, e, rra.TP)}, {waa, waaAllocC}} {
		o, err := e.Open(c.cfg, c.alloc, 0)
		if err != nil {
			t.Fatal(err)
		}
		o.OnComplete = func(QueryRecord) {}
		id := 0
		// wave pushes the requests as fresh arrivals ahead of the clock
		// and runs the engine until every one of them completed.
		wave := func() {
			at := o.Now()
			for _, r := range reqs {
				r.ID = id
				id++
				at += 0.02
				o.Push(r, at)
			}
			if err := o.Finish(); err != nil {
				t.Fatal(err)
			}
			if !o.Done() {
				t.Fatalf("%v: work left after Finish", c.cfg.Policy)
			}
		}
		for i := 0; i < 8; i++ {
			wave()
		}
		if got := testing.AllocsPerRun(20, wave); got != 0 {
			t.Errorf("%v: a wave of %d requests allocates %v objects, want 0", c.cfg.Policy, len(reqs), got)
		}
	}
}

// TestArrivalFIFO checks the due queue that holds future arrivals and
// WAA handovers against a stable sort by time under random
// interleavings of inserts and pops, including out-of-order and
// equal-time inserts and the shift-down of the live items.
func TestArrivalFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var q dueQueue[workload.Request]
	var ref []dueItem[workload.Request]
	for op := 0; op < 5000; op++ {
		if len(ref) > 0 && rng.Intn(20) < 9 {
			got, want := q.pop(), ref[0]
			ref = ref[1:]
			if got != want {
				t.Fatalf("op %d: pop %+v, want %+v", op, got, want)
			}
			continue
		}
		a := dueItem[workload.Request]{at: float64(rng.Intn(16)), seq: eventsim.Seq(op), v: workload.Request{ID: op}}
		pos := q.insert(a)
		i := sort.Search(len(ref), func(k int) bool { return ref[k].at > a.at })
		ref = append(ref[:i], append([]dueItem[workload.Request]{a}, ref[i:]...)...)
		if pos != i {
			t.Fatalf("op %d: insert at %d, want %d", op, pos, i)
		}
		if q.len() != len(ref) || q.peek() != ref[0] {
			t.Fatalf("op %d: len %d head %+v, want %d %+v", op, q.len(), q.peek(), len(ref), ref[0])
		}
	}
}
