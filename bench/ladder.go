package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"exegpt/internal/experiments"
	"exegpt/internal/hw"
	"exegpt/internal/model"
	"exegpt/internal/sched"
	"exegpt/internal/serve"
	"exegpt/internal/workload"
)

// serveLadder is `exegpt serve` with Poisson arrivals on OPT-13B/4xA40
// at fixed rates: an open loop in virtual time, so each request's
// latency runs from its scheduled arrival and the generator is never
// late. Every rung starts from a fresh Redeploy, so its initial schedule
// search is cold, as in one `exegpt serve` invocation.
type serveLadder struct {
	seed     int64
	duration float64
	rungs    []rung
	bases    map[string]*experiments.Deployment
}

type rung struct {
	task workload.Task
	slo  float64
	rate float64
}

func (r rung) name() string { return fmt.Sprintf("rung:%s@%g", r.task.ID, r.rate) }

// ladderRungs are the rates of the ladder: task S (SLO 5 s) and the long
// conversational task C2 (SLO 60 s), each from light load past a
// meltdown rung. C2 stops at 6 req/s: at 7 the selected schedule runs
// out of KV memory on some seeds, which fails the rung.
func ladderRungs() []rung {
	var rs []rung
	for _, rate := range []float64{4, 8, 12, 16, 20, 24} {
		rs = append(rs, rung{task: workload.Summarization, slo: 5, rate: rate})
	}
	for rate := 1.0; rate <= 6; rate++ {
		rs = append(rs, rung{task: workload.ConvQA2, slo: 60, rate: rate})
	}
	return rs
}

func newServeLadder(seed int64, toy bool) *serveLadder {
	w := &serveLadder{seed: seed, duration: 3600, rungs: ladderRungs()}
	if toy {
		w.duration, w.rungs = 60, w.rungs[2:3]
	}
	return w
}

func (w *serveLadder) workers() int { return 1 }

func (w *serveLadder) setup() error {
	dep, err := sched.DeploymentFor(model.OPT13B.Name)
	if err != nil {
		return err
	}
	cells, err := coldSetup(w.seed, []sched.Deployment{dep}, []workload.Task{workload.Summarization, workload.ConvQA2})
	if err != nil {
		return err
	}
	w.bases = map[string]*experiments.Deployment{}
	for _, c := range cells {
		w.bases[c.d.Task.ID] = c.d
	}
	return nil
}

func (w *serveLadder) options(r rung) serve.Options {
	return serve.Options{Arrival: "poisson", Rate: r.rate, Duration: w.duration, Seed: w.seed, SLO: r.slo}
}

// reportJSON renders a report as `exegpt serve -json` writes it.
func reportJSON(rep *serve.Report) ([]byte, error) {
	data, err := json.MarshalIndent(rep, "", "  ")
	return append(data, '\n'), err
}

// runRungs serves every rung once and returns the reports in rung order.
func (w *serveLadder) runRungs(tr *tracer) ([]*serve.Report, passOut, error) {
	out := newPassOut()
	reps := make([]*serve.Report, len(w.rungs))
	for i, r := range w.rungs {
		trace := r.name()
		root := tr.begin(0, trace, "bench.rung")
		var d *experiments.Deployment
		err := tr.call(root, trace, "experiments.redeploy", func() (err error) {
			base := w.bases[r.task.ID]
			d, err = base.Redeploy(base.In, base.Out)
			return err
		})
		if err == nil {
			err = tr.call(root, trace, "serve.run", func() (err error) {
				reps[i], err = serve.Run(d, w.options(r))
				return err
			})
		}
		tr.end(root)
		if err != nil {
			return nil, out, fmt.Errorf("%s: %w", trace, err)
		}
		data, err := reportJSON(reps[i])
		if err != nil {
			return nil, out, err
		}
		out.add(trace, data)
		out.counts["serve.searches"] += float64(reps[i].Totals.Searches)
		out.counts["serve.switches"] += float64(reps[i].Totals.Switches)
	}
	return reps, out, nil
}

func (w *serveLadder) pass(tr *tracer) (passOut, error) {
	_, out, err := w.runRungs(tr)
	return out, err
}

func (w *serveLadder) warmup(res *result) (passOut, error) {
	if err := checkServeGolden(); err != nil {
		res.fail("serve golden", err.Error())
	}
	res.Attempted++
	reps, out, err := w.runRungs(nil)
	if err != nil {
		return out, err
	}
	arrived, within := 0, 0
	held := map[string]bool{}
	for i, r := range w.rungs {
		t := reps[i].Totals
		arrived += t.Arrived
		within += t.Completed - t.SLOViolations
		// A rung counts only while every lower rung of its task held.
		key := "max_rate_" + r.task.ID + "_rps"
		if _, seen := held[key]; !seen {
			held[key] = true
			res.put(key, 0, "req/s")
		}
		if held[key] = held[key] && t.P99Lat <= r.slo; held[key] {
			res.put(key, r.rate, "req/s")
		}
		switch r.name() {
		case "rung:S@12":
			res.put("p99_S_12rps_s", t.P99Lat, "s")
		case "rung:C2@4":
			res.put("p99_C2_4rps_s", t.P99Lat, "s")
		}
	}
	res.put("slo_attain", float64(within)/math.Max(1, float64(arrived)), "share")
	return out, nil
}

// checkServeGolden reruns the `make serve-smoke` scenario and requires
// the committed GOLDEN_serve.json byte for byte.
func checkServeGolden() error {
	want, err := os.ReadFile(filepath.Join(root, "GOLDEN_serve.json"))
	if err != nil {
		return err
	}
	ctx := experiments.NewQuickContext()
	d, err := ctx.Deploy(model.OPT13B, hw.A40Cluster, 4, workload.Summarization)
	if err != nil {
		return err
	}
	rep, err := serve.Run(d, serve.Options{
		Arrival: "step", Rate: 1, StepAt: 40, StepFactor: 8, Duration: 120,
		Seed: ctx.Seed, SLO: 5, Window: 5, SwitchCost: 2, CheckEvery: 2,
	})
	if err != nil {
		return err
	}
	got, err := reportJSON(rep)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("serve-smoke scenario differs from GOLDEN_serve.json")
	}
	return nil
}
