// Package serve is the online serving mode (`exegpt serve`): a
// long-lived simulated serving loop on the discrete-event substrate.
//
// Requests arrive open-loop from a seeded arrival process and are
// admitted incrementally into the runner's open-loop engine
// (runner.OpenRun). A controller watches windowed arrival-rate and
// length statistics; when the observed workload drifts from the
// distributions the current schedule was searched for, it re-runs the
// scheduler (core.Scheduler.FindBestMany, via
// experiments.Deployment.Redeploy for length drift) on the drifted
// estimate and switches schedules — but only when the projected
// service gain over a horizon exceeds the modeled reconfiguration cost
// (drain + TP re-shard downtime charged as virtual dead time). During
// a switch, in-flight queries finish under the old schedule and the
// unadmitted backlog carries its original arrival timestamps to the
// successor engine, so queueing latency is never dropped.
//
// Everything runs in one goroutine on virtual time (the scheduler's
// internal worker pool is itself deterministic across worker counts),
// so the same seed and options produce a byte-identical Report.
package serve

import (
	"fmt"
	"math"

	"exegpt/internal/core"
	"exegpt/internal/experiments"
	"exegpt/internal/metrics"
	"exegpt/internal/runner"
	"exegpt/internal/sched"
	"exegpt/internal/workload"
)

// benefitHorizon is the span in seconds over which a candidate
// schedule's service gain is projected, capped by the remaining
// duration.
const benefitHorizon = 120

// Options configures one serving run. The zero value is not usable;
// fill at least Rate and Duration and call Run.
type Options struct {
	// Arrival is the arrival-process kind: poisson, mmpp, diurnal or
	// step (see NewProcess). Default poisson.
	Arrival string
	// Rate is the mean arrival rate in requests/second.
	Rate float64
	// Duration is how long arrivals keep coming, in virtual seconds;
	// after that the engine drains to empty.
	Duration float64
	// Seed drives the arrival process and request sampling.
	Seed int64
	// SLO is the per-request latency bound used for the schedule
	// search, violation counting, and the controller's value model;
	// <= 0 means unbounded.
	SLO float64
	// Window is the stats/controller window width in seconds
	// (default 10).
	Window float64
	// SwitchCost is the modeled TP re-shard downtime in virtual
	// seconds charged on every schedule switch, on top of the drain
	// (default 5).
	SwitchCost float64
	// DriftTol is the relative drift in observed arrival rate or mean
	// sequence lengths that triggers a controller evaluation
	// (default 0.25).
	DriftTol float64
	// CheckEvery is the controller period in windows (default 3).
	CheckEvery int
	// MinSample is the minimum number of recent completions needed to
	// re-estimate length distributions (default 64).
	MinSample int
	// StepAt and StepFactor configure the step arrival kind.
	StepAt, StepFactor float64
	// Policies is the schedule search space (default all).
	Policies []sched.Policy
}

func (o Options) withDefaults() Options {
	if o.Arrival == "" {
		o.Arrival = "poisson"
	}
	if o.SLO <= 0 {
		o.SLO = math.Inf(1)
	}
	if o.Window <= 0 {
		o.Window = 10
	}
	if o.SwitchCost <= 0 {
		o.SwitchCost = 5
	}
	if o.DriftTol <= 0 {
		o.DriftTol = 0.25
	}
	if o.CheckEvery <= 0 {
		o.CheckEvery = 3
	}
	if o.MinSample <= 0 {
		o.MinSample = 64
	}
	if len(o.Policies) == 0 {
		o.Policies = []sched.Policy{sched.RRA, sched.WAAC, sched.WAAM}
	}
	return o
}

// ScheduleInfo is a serializable summary of one selected schedule.
type ScheduleInfo struct {
	Policy  string  `json:"policy"`
	Config  string  `json:"config"`
	Tput    float64 `json:"tput"`
	Latency float64 `json:"latency"`
}

func scheduleInfo(est core.Estimate) ScheduleInfo {
	return ScheduleInfo{
		Policy:  est.Config.Policy.String(),
		Config:  est.Config.String(),
		Tput:    est.Throughput,
		Latency: est.Latency,
	}
}

// Decision records one controller evaluation: drift was detected, a
// candidate was selected, and the switch either fired or was suppressed
// by the modeled reconfiguration cost.
type Decision struct {
	At         float64      `json:"at"`
	Window     int          `json:"window"`
	ObsRate    float64      `json:"obsRate"`
	ObsInMean  float64      `json:"obsInMean"`
	ObsOutMean float64      `json:"obsOutMean"`
	RateDrift  float64      `json:"rateDrift"`
	InDrift    float64      `json:"inDrift"`
	OutDrift   float64      `json:"outDrift"`
	Researched bool         `json:"researched"`
	Candidate  ScheduleInfo `json:"candidate"`
	GainReqs   float64      `json:"gainReqs"`
	CostReqs   float64      `json:"costReqs"`
	Switched   bool         `json:"switched"`
	Reason     string       `json:"reason"`
}

// SwitchEvent records one executed schedule switch.
type SwitchEvent struct {
	DecidedAt float64      `json:"decidedAt"`
	DrainEnd  float64      `json:"drainEnd"`
	ResumeAt  float64      `json:"resumeAt"`
	Downtime  float64      `json:"downtime"`
	Backlog   int          `json:"backlog"`
	From      ScheduleInfo `json:"from"`
	To        ScheduleInfo `json:"to"`
}

// Totals aggregates the whole run.
type Totals struct {
	Arrived       int     `json:"arrived"`
	Completed     int     `json:"completed"`
	DrainedAt     float64 `json:"drainedAt"`
	Throughput    float64 `json:"throughput"`
	SteadyTput    float64 `json:"steadyTput"`
	MeanLat       float64 `json:"meanLat"`
	P50Lat        float64 `json:"p50Lat"`
	P99Lat        float64 `json:"p99Lat"`
	MaxLat        float64 `json:"maxLat"`
	SLOViolations int     `json:"sloViolations"`
	Switches      int     `json:"switches"`
	Searches      int     `json:"searches"`
}

// Report is the run artifact. It contains only slices and fixed
// structs, so encoding/json renders it byte-identically for identical
// runs.
type Report struct {
	Arrival    string                `json:"arrival"`
	Rate       float64               `json:"rate"`
	Duration   float64               `json:"duration"`
	Seed       int64                 `json:"seed"`
	Window     float64               `json:"window"`
	SLO        float64               `json:"slo,omitempty"`
	SwitchCost float64               `json:"switchCost"`
	Model      string                `json:"model"`
	Cluster    string                `json:"cluster"`
	Task       string                `json:"task"`
	Initial    ScheduleInfo          `json:"initial"`
	Totals     Totals                `json:"totals"`
	Windows    []metrics.WindowStats `json:"windows"`
	Decisions  []Decision            `json:"decisions"`
	Switches   []SwitchEvent         `json:"switches"`
}

// sloFactor is the controller's service-quality weight: full credit at
// or under the SLO, proportionally discounted above it.
func sloFactor(lat, slo float64) float64 {
	if slo <= 0 || math.IsInf(slo, 1) || lat <= slo {
		return 1
	}
	return slo / lat
}

// serviceValue models a schedule's useful service in requests/second at
// the observed arrival rate: it can serve at most min(rate, tput), and
// service above the SLO is discounted.
func serviceValue(rate, tput, lat, slo float64) float64 {
	return math.Min(rate, tput) * sloFactor(lat, slo)
}

// pickSchedule selects the frontier point maximizing serviceValue at
// the given rate. Frontier order is deterministic and the comparison is
// strict, so ties resolve to the lowest-latency point — at low rates
// the controller prefers the cheapest schedule covering the load, at
// high rates it climbs toward the throughput end of the frontier.
func pickSchedule(f *core.Frontier, rate, slo float64) (core.Estimate, bool) {
	best, bestVal, ok := core.Estimate{}, -1.0, false
	for _, p := range f.Points {
		if v := serviceValue(rate, p.Throughput, p.Latency, slo); v > bestVal {
			best, bestVal, ok = p.Est, v, true
		}
	}
	return best, ok
}

// sampleRing keeps the most recent completed requests for empirical
// length re-estimation, rebuilt from their completion records.
type sampleRing struct {
	buf  []workload.Request
	next int
	full bool
}

func newSampleRing(n int) *sampleRing { return &sampleRing{buf: make([]workload.Request, n)} }

func (r *sampleRing) add(rec runner.QueryRecord) {
	r.buf[r.next] = workload.Request{ID: rec.ID, InLen: rec.InLen, OutLen: rec.OutLen}
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

func (r *sampleRing) sample() []workload.Request {
	if r.full {
		return r.buf
	}
	return r.buf[:r.next]
}

func relDrift(obs, assumed float64) float64 {
	if assumed == 0 {
		return 0
	}
	return math.Abs(obs-assumed) / assumed
}

// Run executes one serving run on the deployment.
func Run(dep *experiments.Deployment, opts Options) (*Report, error) {
	// withDefaults replaces only values <= 0, so NaN and +Inf would
	// pass through into the controller's value model.
	for _, o := range []struct {
		name string
		v    float64
	}{{"switch cost", opts.SwitchCost}, {"drift tolerance", opts.DriftTol}} {
		if math.IsNaN(o.v) || math.IsInf(o.v, 0) {
			return nil, fmt.Errorf("serve: %s %v must be finite", o.name, o.v)
		}
	}
	opts = opts.withDefaults()
	if opts.Duration <= 0 || math.IsInf(opts.Duration, 0) || math.IsNaN(opts.Duration) {
		return nil, fmt.Errorf("serve: duration %v must be positive and finite", opts.Duration)
	}
	proc, err := NewProcess(opts.Arrival, opts.Rate, opts.Seed, opts.StepAt, opts.StepFactor)
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(dep.Task, opts.Seed+1)
	if err != nil {
		return nil, err
	}
	if dep.Task.Rho > 0.5 {
		gen.RandomizeInputs = true
	}
	windowed, err := metrics.NewWindowed(opts.Window, opts.SLO)
	if err != nil {
		return nil, err
	}

	// Initial search populates the frontier the controller selects from.
	if _, err := dep.Sch.FindBestMany(opts.Policies, []float64{opts.SLO}); err != nil {
		return nil, err
	}
	searches := 1
	cur, ok := pickSchedule(&dep.Sch.Frontier, opts.Rate, opts.SLO)
	if !ok {
		return nil, fmt.Errorf("serve: no feasible schedule under SLO %v", opts.SLO)
	}

	rep := &Report{
		Arrival: proc.Name(), Rate: opts.Rate, Duration: opts.Duration,
		Seed: opts.Seed, Window: opts.Window, SwitchCost: opts.SwitchCost,
		Model: dep.Model.Name, Cluster: dep.Cluster.Name, Task: dep.Task.ID,
		Initial:   scheduleInfo(cur),
		Decisions: []Decision{}, Switches: []SwitchEvent{},
	}
	if !math.IsInf(opts.SLO, 1) {
		rep.SLO = opts.SLO
	}

	// Global (cross-engine) completion accounting.
	totalRec := metrics.NewRecorder()
	var completions []float64
	ring := newSampleRing(8 * opts.MinSample)
	onComplete := func(r runner.QueryRecord) {
		lat := r.End - r.Start
		windowed.Complete(r.End, lat)
		totalRec.Add(lat)
		completions = append(completions, r.End)
		ring.add(r)
	}

	eng, err := dep.Run.Open(cur.Config, cur.Alloc, 0)
	if err != nil {
		return nil, err
	}
	eng.OnComplete = onComplete

	// Controller assumptions: what the current schedule was picked for.
	curDep := dep
	assumedRate := opts.Rate
	assumedIn, assumedOut := curDep.In.Mean(), curDep.Out.Mean()

	arrived := 0
	arrivedAtCheck := 0
	lastCheck := 0.0
	nextArrival := proc.Next()
	numWin := int(math.Ceil(opts.Duration / opts.Window))

	for w := 0; w < numWin; w++ {
		winEnd := float64(w+1) * opts.Window
		for nextArrival <= opts.Duration && nextArrival < winEnd {
			windowed.Arrive(nextArrival)
			arrived++
			eng.Push(gen.Next(), nextArrival)
			nextArrival = proc.Next()
		}
		if err := eng.RunUntil(winEnd); err != nil {
			return nil, err
		}
		// Credit the boundary sample to the window that just closed.
		windowed.ObserveQueue(math.Nextafter(winEnd, 0), eng.QueueDepth())

		if (w+1)%opts.CheckEvery != 0 || w+1 >= numWin {
			continue
		}
		obsRate := float64(arrived-arrivedAtCheck) / (winEnd - lastCheck)
		arrivedAtCheck, lastCheck = arrived, winEnd

		obsInMean, obsOutMean := assumedIn, assumedOut
		var obsSample []workload.Request
		if s := ring.sample(); len(s) >= opts.MinSample {
			obsSample = s
			in, out := 0, 0
			for _, r := range s {
				in += r.InLen
				out += r.OutLen
			}
			obsInMean = float64(in) / float64(len(s))
			obsOutMean = float64(out) / float64(len(s))
		}
		rateDrift := relDrift(obsRate, assumedRate)
		inDrift := relDrift(obsInMean, assumedIn)
		outDrift := relDrift(obsOutMean, assumedOut)
		if rateDrift <= opts.DriftTol && inDrift <= opts.DriftTol && outDrift <= opts.DriftTol {
			continue
		}

		// Drift confirmed: pick a candidate. Length drift invalidates
		// the estimates behind the whole frontier, so re-search on the
		// empirical distributions; pure rate drift only moves the
		// operating point along the still-valid frontier.
		dec := Decision{
			At: winEnd, Window: w,
			ObsRate: obsRate, ObsInMean: obsInMean, ObsOutMean: obsOutMean,
			RateDrift: rateDrift, InDrift: inDrift, OutDrift: outDrift,
			Researched: (inDrift > opts.DriftTol || outDrift > opts.DriftTol) && obsSample != nil,
		}
		frontier := &curDep.Sch.Frontier
		if dec.Researched {
			empIn, empOut, derr := workload.EstimateDists(obsSample)
			if derr != nil {
				return nil, derr
			}
			newDep, derr := curDep.Redeploy(empIn, empOut)
			if derr != nil {
				return nil, derr
			}
			if _, derr := newDep.Sch.FindBestMany(opts.Policies, []float64{opts.SLO}); derr != nil {
				return nil, derr
			}
			searches++
			curDep = newDep
			frontier = &curDep.Sch.Frontier
		}

		// Re-anchor after every evaluation so a deliberate verdict —
		// switch or no-switch — is not re-litigated at the next check.
		assumedRate, assumedIn, assumedOut = obsRate, obsInMean, obsOutMean

		cand, found := pickSchedule(frontier, obsRate, opts.SLO)
		if !found {
			dec.Reason = "no feasible candidate"
			rep.Decisions = append(rep.Decisions, dec)
			continue
		}
		dec.Candidate = scheduleInfo(cand)
		horizon := math.Min(benefitHorizon, opts.Duration-winEnd)
		downtime := cur.Latency + opts.SwitchCost // drain estimate + re-shard
		gain := (serviceValue(obsRate, cand.Throughput, cand.Latency, opts.SLO) -
			serviceValue(obsRate, cur.Throughput, cur.Latency, opts.SLO)) * horizon
		cost := math.Min(obsRate, cand.Throughput) * downtime
		dec.GainReqs, dec.CostReqs = gain, cost
		switch {
		case cand.Config == cur.Config:
			dec.Reason = "candidate equals current schedule"
		case gain <= cost:
			dec.Reason = "projected gain does not cover reconfiguration cost"
		default:
			dec.Switched = true
			dec.Reason = "projected gain exceeds reconfiguration cost"
		}
		rep.Decisions = append(rep.Decisions, dec)
		if !dec.Switched {
			continue
		}

		leftover, derr := eng.Drain()
		if derr != nil {
			return nil, derr
		}
		drainEnd := eng.Now()
		resumeAt := drainEnd + opts.SwitchCost
		next, derr := curDep.Run.Open(cand.Config, cand.Alloc, resumeAt)
		if derr != nil {
			return nil, derr
		}
		next.OnComplete = onComplete
		for _, a := range leftover {
			next.Push(a.Req, a.At)
		}
		rep.Switches = append(rep.Switches, SwitchEvent{
			DecidedAt: winEnd, DrainEnd: drainEnd, ResumeAt: resumeAt,
			Downtime: resumeAt - winEnd, Backlog: len(leftover),
			From: scheduleInfo(cur), To: scheduleInfo(cand),
		})
		eng, cur = next, cand
	}

	// Arrivals are over; serve out the backlog.
	if err := eng.Finish(); err != nil {
		return nil, err
	}
	drainedAt := eng.Now()
	windowed.ObserveQueue(drainedAt, 0)

	wins := windowed.Stats()
	violations := 0
	for _, ws := range wins {
		violations += ws.SLOViolations
	}
	rep.Windows = wins
	rep.Totals = Totals{
		Arrived:       arrived,
		Completed:     totalRec.Count(),
		DrainedAt:     drainedAt,
		Throughput:    metrics.Throughput(totalRec.Count(), drainedAt),
		SteadyTput:    metrics.SteadyThroughput(completions),
		MeanLat:       totalRec.Mean(),
		P50Lat:        totalRec.Percentile(0.50),
		P99Lat:        totalRec.Percentile(0.99),
		MaxLat:        totalRec.Max(),
		SLOViolations: violations,
		Switches:      len(rep.Switches),
		Searches:      searches,
	}
	return rep, nil
}
