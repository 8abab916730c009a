package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"exegpt/internal/experiments"
	"exegpt/internal/hw"
	"exegpt/internal/model"
	"exegpt/internal/sched"
	"exegpt/internal/workload"
)

// deploy builds a fresh quick deployment per run: the scheduler
// accumulates frontier/eval state across searches, so reports are only
// comparable when each starts from a clean deployment.
func deploy(t *testing.T, workers int) *experiments.Deployment {
	t.Helper()
	c := experiments.NewQuickContext()
	c.Workers = workers
	d, err := c.Deploy(model.OPT13B, hw.A40Cluster, 4, workload.Summarization)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// stepOpts is the shared drift scenario: 1 req/s stepping to 8 req/s at
// t=40, which moves the optimal operating point from the low-latency
// end of the frontier to the high-throughput end.
func stepOpts() Options {
	return Options{
		Arrival:    "step",
		Rate:       1.0,
		StepAt:     40,
		StepFactor: 8,
		Duration:   120,
		Seed:       42,
		SLO:        5,
		Window:     5,
		SwitchCost: 2,
		CheckEvery: 2,
		DriftTol:   0.25,
	}
}

// TestServeSwitchFires pins the switch-fires branch: an abrupt rate
// step makes a higher-throughput schedule worth the reconfiguration
// cost, so the controller drains and switches.
func TestServeSwitchFires(t *testing.T) {
	rep, err := Run(deploy(t, 0), stepOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Totals.Switches == 0 || len(rep.Switches) == 0 {
		t.Fatalf("no switch fired; decisions: %+v", rep.Decisions)
	}
	fired := false
	for _, d := range rep.Decisions {
		if d.Switched {
			fired = true
			if d.GainReqs <= d.CostReqs {
				t.Fatalf("switched with gain %v <= cost %v", d.GainReqs, d.CostReqs)
			}
		}
	}
	if !fired {
		t.Fatal("switch events recorded but no decision marked Switched")
	}
	sw := rep.Switches[0]
	if !(sw.DecidedAt <= sw.DrainEnd && sw.DrainEnd < sw.ResumeAt) {
		t.Fatalf("switch timeline out of order: %+v", sw)
	}
	if sw.ResumeAt-sw.DrainEnd != 2 {
		t.Fatalf("re-shard downtime %v, want the configured 2", sw.ResumeAt-sw.DrainEnd)
	}
	if sw.From.Config == sw.To.Config {
		t.Fatalf("switched to the same schedule: %+v", sw)
	}
	if rep.Totals.Completed != rep.Totals.Arrived {
		t.Fatalf("final drain lost requests: %d arrived, %d completed",
			rep.Totals.Arrived, rep.Totals.Completed)
	}
	winArrived := 0
	for _, w := range rep.Windows {
		winArrived += w.Arrived
	}
	if winArrived != rep.Totals.Arrived {
		t.Fatalf("windows account for %d arrivals, totals say %d", winArrived, rep.Totals.Arrived)
	}
}

// TestServeSwitchSuppressedByCost pins the other branch: the same drift
// with a prohibitive reconfiguration cost records the decision but does
// not switch.
func TestServeSwitchSuppressedByCost(t *testing.T) {
	opts := stepOpts()
	opts.SwitchCost = 1e6
	rep, err := Run(deploy(t, 0), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Decisions) == 0 {
		t.Fatal("drift never evaluated: no decisions recorded")
	}
	if rep.Totals.Switches != 0 || len(rep.Switches) != 0 {
		t.Fatalf("switch fired despite prohibitive cost: %+v", rep.Switches)
	}
	suppressed := false
	for _, d := range rep.Decisions {
		if d.Switched {
			t.Fatalf("decision marked Switched without a switch event: %+v", d)
		}
		if strings.Contains(d.Reason, "cost") && d.GainReqs <= d.CostReqs {
			suppressed = true
		}
	}
	if !suppressed {
		t.Fatalf("no decision was suppressed by cost: %+v", rep.Decisions)
	}
	if rep.Totals.Completed != rep.Totals.Arrived {
		t.Fatalf("final drain lost requests: %d arrived, %d completed",
			rep.Totals.Arrived, rep.Totals.Completed)
	}
}

// TestServeResearchOnLengthDrift drives the Redeploy + FindBestMany
// path: with a near-zero drift tolerance the empirical length estimate
// from completed requests deviates enough to force a re-search.
func TestServeResearchOnLengthDrift(t *testing.T) {
	opts := Options{
		Arrival:    "poisson",
		Rate:       3,
		Duration:   80,
		Seed:       42,
		SLO:        5,
		Window:     5,
		CheckEvery: 2,
		DriftTol:   0.005,
		MinSample:  32,
	}
	rep, err := Run(deploy(t, 0), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Totals.Searches < 2 {
		t.Fatalf("re-search never ran: %d searches", rep.Totals.Searches)
	}
	researched := false
	for _, d := range rep.Decisions {
		researched = researched || d.Researched
	}
	if !researched {
		t.Fatalf("no decision re-searched despite %d searches", rep.Totals.Searches)
	}
}

// TestServeArtifactByteIdentical pins the determinism contract: the
// same seed and options produce a byte-identical JSON artifact, even
// across scheduler worker counts.
func TestServeArtifactByteIdentical(t *testing.T) {
	opts := stepOpts()
	marshal := func(workers int) []byte {
		rep, err := Run(deploy(t, workers), opts)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b, c := marshal(0), marshal(0), marshal(4)
	if !bytes.Equal(a, b) {
		t.Fatal("identical runs produced different artifacts")
	}
	if !bytes.Equal(a, c) {
		t.Fatal("artifact differs across scheduler worker counts")
	}
}

// TestServeSummaryRenders smoke-tests the human formatter.
func TestServeSummaryRenders(t *testing.T) {
	rep, err := Run(deploy(t, 0), stepOpts())
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Summary()
	for _, want := range []string{"initial schedule", "totals:", "controller:", "window"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

// TestServeDefaultPolicySet pins serve's default search set to the
// paper's three families: the experimental DISAGG family is opt-in
// only.
func TestServeDefaultPolicySet(t *testing.T) {
	want := []sched.Policy{sched.RRA, sched.WAAC, sched.WAAM}
	if got := (Options{}).withDefaults().Policies; !reflect.DeepEqual(got, want) {
		t.Fatalf("default policies = %v, want %v", got, want)
	}
}

// TestServeRejectsBadOptions covers option validation.
func TestServeRejectsBadOptions(t *testing.T) {
	d := deploy(t, 0)
	if _, err := Run(d, Options{Rate: 1}); err == nil {
		t.Fatal("zero duration accepted")
	}
	if _, err := Run(d, Options{Rate: 0, Duration: 10}); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := Run(d, Options{Rate: 1, Duration: 10, Arrival: "nope"}); err == nil {
		t.Fatal("unknown arrival kind accepted")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, o := range map[string]Options{
			"switch cost":     {SwitchCost: v},
			"drift tolerance": {DriftTol: v},
		} {
			o.Rate, o.Duration = 1, 10
			_, err := Run(d, o)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%s %v", name, v)) {
				t.Errorf("%s %v: error %v, want one naming the value", name, v, err)
			}
		}
	}
}

// BenchmarkServeRung is one rung of the repository benchmark's serve
// ladder, shortened: Poisson arrivals at 24 req/s on OPT-13B/4xA40, task
// S under a 5 s SLO, for 600 virtual seconds. Each iteration serves from
// a fresh Redeploy, so its initial schedule search is cold, as in one
// `exegpt serve` invocation. Run it with -benchmem: its B/op and
// allocs/op are the serving loop's bookkeeping plus that one search.
func BenchmarkServeRung(b *testing.B) {
	base, err := experiments.NewContext().Deploy(model.OPT13B, hw.A40Cluster, 4, workload.Summarization)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Arrival: "poisson", Rate: 24, Duration: 600, Seed: 42, SLO: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := base.Redeploy(base.In, base.Out)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Run(d, opts); err != nil {
			b.Fatal(err)
		}
	}
}
