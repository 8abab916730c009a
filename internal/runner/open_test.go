package runner

import (
	"math"
	"reflect"
	"testing"

	"exegpt/internal/core"
	"exegpt/internal/hw"
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
	last := pushAll(o, reqs, 0, 0.05)
	if err := o.Finish(); err != nil {
		t.Fatal(err)
	}
	res := o.Result()
	if res.Stats.Completed != len(reqs) {
		t.Fatalf("completed %d of %d", res.Stats.Completed, len(reqs))
	}
	if !o.Done() {
		t.Fatal("engine not Done after drain")
	}
	if o.Now() < last {
		t.Fatalf("clock %v did not reach last arrival %v", o.Now(), last)
	}
	for _, r := range res.Records {
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
	pushAll(o, reqs, 0, 0.05)
	if err := o.Finish(); err != nil {
		t.Fatal(err)
	}
	res := o.Result()
	if res.Stats.Completed != len(reqs) {
		t.Fatalf("completed %d of %d", res.Stats.Completed, len(reqs))
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
	// Everything arrives at t=0: the tail of the queue waits.
	for _, r := range reqs {
		o.Push(r, 0)
	}
	if err := o.Finish(); err != nil {
		t.Fatal(err)
	}
	recs := o.Records()
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
		o.Push(reqs[0], 0)
		o.Push(reqs[1], 1000)
		if err := o.RunUntil(999); err != nil {
			t.Fatal(err)
		}
		if got := len(o.Records()); got != 1 {
			t.Fatalf("%v: %d completions before the gap, want 1", cfg.Policy, got)
		}
		if !o.Done() {
			t.Fatalf("%v: engine busy during idle gap (depth %d)", cfg.Policy, o.QueueDepth())
		}
		if err := o.Finish(); err != nil {
			t.Fatal(err)
		}
		if got := len(o.Records()); got != 2 {
			t.Fatalf("%v: %d total completions, want 2", cfg.Policy, got)
		}
		if second := o.Records()[1]; second.Start != 1000 || second.End <= 1000 {
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
	done := len(o.Records())
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
	for _, a := range leftover {
		o2.Push(a.Req, a.At)
	}
	if err := o2.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := len(o2.Records()); got != len(leftover) {
		t.Fatalf("successor completed %d of %d", got, len(leftover))
	}
	for _, r := range o2.Records() {
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
			pushAll(o, reqs, 0, 0.02)
			if err := o.Finish(); err != nil {
				t.Fatal(err)
			}
			return o.Records()
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
		for _, f := range sched.Families() {
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
				for _, r := range reqs {
					o.Push(r, 0)
				}
				if err := o.Finish(); err != nil {
					t.Fatal(err)
				}
				open := o.Result()
				if open.Stats.Completed != batch.Stats.Completed {
					t.Fatalf("%s %s: open completed %d, batch %d", task.ID, est.Config, open.Stats.Completed, batch.Stats.Completed)
				}
				ratio := open.Stats.Throughput / batch.Stats.Throughput
				if math.IsNaN(ratio) || ratio < band[0] || ratio > band[1] {
					t.Errorf("%s %s: open tput %.4f vs batch %.4f (ratio %.6f) outside [%v, %v]",
						task.ID, est.Config, open.Stats.Throughput, batch.Stats.Throughput, ratio, band[0], band[1])
				}
			}
		}
	}
}
