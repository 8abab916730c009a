// Package core implements the paper's primary contribution: XSimulator,
// the execution-timeline estimator driven by sequence-length
// distributions (§6), and XScheduler, the constraint-aware
// branch-and-bound scheduling algorithm (§5).
//
// This file holds the Simulator, the schedule-invariant inputs every
// estimate reads, and the Estimate it produces. The timeline formulas
// themselves are Evaluator methods, one per family, in the
// family_<name>.go files; evaluator.go holds the memos they read
// through.
package core

import (
	"fmt"
	"math"

	"exegpt/internal/hw"
	"exegpt/internal/model"
	"exegpt/internal/profile"
	"exegpt/internal/sched"
	"exegpt/internal/seqdist"
)

// KVMemMargin scales the steady-state KV estimate for feasibility
// checks, covering workload variance (§5.2 buffer time / §7.9).
const KVMemMargin = 1.25

// MemReserve is the fraction of GPU memory kept free for activation
// workspace and allocator slack.
const MemReserve = 0.05

// LatencyPctl is the output-length percentile the latency estimate
// targets; the paper uses the 99th percentile sequence (§7.1).
const LatencyPctl = 0.99

// Simulator is XSimulator: it constructs execution timelines for
// candidate schedules from profiled layer times and the input/output
// sequence-length distributions. The distributions are fixed at
// construction: a search for other distributions needs a new Simulator.
//
// A Simulator is read-only after construction and estimates nothing by
// itself: an Evaluator (NewEvaluator) estimates schedules over it, and
// any number of Evaluators may share one Simulator.
type Simulator struct {
	Model   model.Model
	Cluster hw.Cluster // the deployment sub-cluster
	Profile *profile.Table
	in, out *seqdist.Dist

	// Schedule-invariant inputs hoisted at construction so the estimate
	// hot path never rescans the O(Max) distributions or re-probes the
	// profile.
	inMean, outMean float64
	inMeanRounded   int      // int(round(inMean)), the per-query prompt tokens
	ctxMean         float64  // mean attention context of an active decode slot
	steadyKV        float64  // mean cached tokens an active query holds
	s99             int      // out.Percentile(LatencyPctl)
	capBytes        int64    // per-GPU usable memory
	probe           waaProbe // waaCostProbe(), the WAA split's inputs
	probeErr        error    // waaCostProbe's error, returned by WAA estimates
}

// NewSimulator validates inputs and returns a simulator.
func NewSimulator(m model.Model, cluster hw.Cluster, tab *profile.Table, in, out *seqdist.Dist) (*Simulator, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	if tab == nil {
		return nil, fmt.Errorf("core: nil profile table")
	}
	if err := tab.Validate(); err != nil {
		return nil, err
	}
	if in == nil || out == nil {
		return nil, fmt.Errorf("core: nil sequence distribution")
	}
	s := &Simulator{Model: m, Cluster: cluster, Profile: tab, in: in, out: out}
	s.inMean = in.Mean()
	s.outMean = out.Mean()
	s.inMeanRounded = int(math.Round(s.inMean))
	pos := out.MeanActivePosition()
	// Mean self(+cross) attention context of an active decode slot in
	// steady state: prompt (or cross) context plus generated-so-far.
	s.ctxMean = s.inMean + pos + 1
	// Mean cached tokens an active query holds (prompt for decoder-only
	// or cross cache for enc-dec, plus generated-so-far).
	s.steadyKV = s.inMean + pos + 1
	s.s99 = out.Percentile(LatencyPctl)
	s.capBytes = int64(float64(cluster.GPU.MemoryBytes) * (1 - MemReserve))
	s.probe, s.probeErr = s.waaCostProbe()
	return s, nil
}

// Estimate is the simulated outcome of one schedule.
type Estimate struct {
	Config sched.Config
	Alloc  sched.Allocation
	// Feasible is false when the schedule does not fit in GPU memory or
	// is structurally invalid; Reason explains why.
	Feasible bool
	Reason   string
	// Throughput in sequences/second; Latency is the time to generate a
	// LatencyPctl-length output sequence.
	Throughput float64
	Latency    float64
	// EncTime is the encode-phase (RRA) or encode-traversal (WAA) time;
	// DecIterTime is the steady-state per-iteration decode period.
	EncTime     float64
	DecIterTime float64
	// CycleTime is the RRA encode+ND-decodes cycle, or the WAA steady
	// iteration period.
	CycleTime float64
	// PeakMemPerGPU is the estimated peak bytes on the most loaded
	// encoder- and decoder-role GPU.
	PeakEncMem, PeakDecMem int64
}

func infeasible(cfg sched.Config, reason string) Estimate {
	return Estimate{Config: cfg, Feasible: false, Reason: reason,
		Throughput: 0, Latency: math.Inf(1)}
}

// kvBytes returns the KV bytes for tokens cached tokens across layers
// layers, sharded over tp.
func (s *Simulator) kvBytes(tokens float64, layers, tp int) int64 {
	perLayer := float64(s.Model.KVBytesPerTokenLayer())
	return int64(tokens * perLayer * float64(layers) / float64(tp) * KVMemMargin)
}
