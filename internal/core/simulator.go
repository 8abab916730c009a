// Package core implements the paper's primary contribution: XSimulator,
// the execution-timeline estimator driven by sequence-length
// distributions (§6), and XScheduler, the constraint-aware
// branch-and-bound scheduling algorithm (§5).
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
// Simulator.Estimate is the reference evaluation path; the Evaluator
// type wraps a Simulator with memoization and scratch reuse for the
// scheduler's hot loop and is asserted bit-identical to it.
type Simulator struct {
	Model   model.Model
	Cluster hw.Cluster // the deployment sub-cluster
	Profile *profile.Table
	in, out *seqdist.Dist

	// Schedule-invariant scalars hoisted at construction so the
	// Estimate hot path never rescans the O(Max) distributions.
	inMean, outMean float64
	inMeanRounded   int     // int(round(inMean)), the per-query prompt tokens
	ctxMean         float64 // meanCtx()
	steadyKV        float64 // steadyKVTokensPerQuery()
	s99             int     // out.Percentile(LatencyPctl)
	capBytes        int64   // capacity()
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

// meanCtx returns the mean self(+cross) attention context of an active
// decode slot in steady state, precomputed at construction.
func (s *Simulator) meanCtx() float64 { return s.ctxMean }

// steadyKVTokensPerQuery returns the mean cached tokens an active query
// holds (prompt for decoder-only or cross cache for enc-dec, plus
// generated-so-far), precomputed at construction.
func (s *Simulator) steadyKVTokensPerQuery() float64 { return s.steadyKV }

// pctlLen returns the LatencyPctl output length, precomputed at
// construction.
func (s *Simulator) pctlLen() float64 { return float64(s.s99) }

// kvBytes returns the KV bytes for tokens cached tokens across layers
// layers, sharded over tp.
func (s *Simulator) kvBytes(tokens float64, layers, tp int) int64 {
	perLayer := float64(s.Model.KVBytesPerTokenLayer())
	return int64(tokens * perLayer * float64(layers) / float64(tp) * KVMemMargin)
}

// capacity returns the per-GPU usable memory, precomputed at
// construction.
func (s *Simulator) capacity() int64 { return s.capBytes }

// Estimate simulates the timeline of cfg and returns throughput/latency,
// dispatching through the per-family estimator registry (family.go).
func (s *Simulator) Estimate(cfg sched.Config) (Estimate, error) {
	if err := cfg.Validate(s.Cluster.TotalGPUs()); err != nil {
		return infeasible(cfg, err.Error()), nil
	}
	if fe, ok := familyEstimators[cfg.Policy]; ok {
		return fe.ref(s, cfg)
	}
	return infeasible(cfg, "unknown policy"), nil
}

// rraMicroBatches is the number of decode mini-batches RRA interleaves
// (Figure 4(a) shows two).
const rraMicroBatches = 2

// estimateRRA simulates the RRA schedule: one encoding phase then ND
// decoding iterations, repeated (§4.1, §6).
func (s *Simulator) estimateRRA(cfg sched.Config) (Estimate, error) {
	comp, err := seqdist.NewCompletionDist(s.out, cfg.ND)
	if err != nil {
		return Estimate{}, err
	}
	frac := comp.PerPhaseCompletion()
	bd := cfg.BD
	be := int(math.Round(float64(bd) * frac))
	if be < 1 {
		be = 1
	}
	cfg.BE = be

	alloc, err := sched.AllocateRRA(s.Model, s.Cluster, cfg.TP)
	if err != nil {
		return infeasible(cfg, err.Error()), nil
	}

	// Encoding phase: the BE batch traverses all stages as
	// rraMicroBatches interleaved mini-batches (Figure 4(a)).
	encTokens := be * s.inMeanRounded
	microTokens := encTokens / rraMicroBatches
	if microTokens < 1 {
		microTokens = 1
	}
	kern := profile.NewStages(s.Profile, s.Cluster, alloc.Stages)
	times, err := kern.Encode(nil, microTokens, s.inMean, 1)
	if err != nil {
		return Estimate{}, err
	}
	encPhase := profile.PipelinePeriod(times, rraMicroBatches)

	// Decoding iterations u = 1..ND with decaying active batches.
	ctx := s.meanCtx()
	var decTotal, firstIter float64
	for u := 1; u <= cfg.ND; u++ {
		active := int(math.Ceil(float64(bd) * comp.ExpectedActiveFraction(u)))
		if active < 1 {
			active = 1
		}
		micro := active / rraMicroBatches
		if micro < 1 {
			micro = 1
		}
		times, err = kern.Decode(times, micro, ctx, 1)
		if err != nil {
			return Estimate{}, err
		}
		iter := profile.PipelinePeriod(times, rraMicroBatches)
		decTotal += iter
		if u == 1 {
			firstIter = iter
		}
	}
	cycle := encPhase + decTotal

	// Memory check on the most loaded stage: weights + steady KV for BD
	// queries' share of layers.
	kvTokens := s.steadyKVTokensPerQuery() * float64(bd)
	var peak int64
	for _, st := range alloc.Stages {
		mem := sched.WeightBytesPerGPU(s.Model, st) + s.kvBytes(kvTokens, st.DecLayers, st.TP)
		if mem > peak {
			peak = mem
		}
	}
	if peak > s.capacity() {
		e := infeasible(cfg, fmt.Sprintf("OOM: peak %d > capacity %d", peak, s.capacity()))
		e.PeakDecMem = peak
		return e, nil
	}

	// Throughput: BE completions per cycle.
	tput := float64(be) / cycle

	// Latency for the target-percentile sequence: the query decodes for
	// S99 iterations and sits through one encoding phase per ND
	// iterations (§4.1). The expected phase count S99/ND (a query joins
	// a cycle at a uniformly random offset) keeps Latency smooth and
	// strictly monotone in the encoding frequency.
	s99 := s.pctlLen()
	avgIter := decTotal / float64(cfg.ND)
	latency := encPhase*(1+s99/float64(cfg.ND)) + s99*avgIter

	return Estimate{
		Config: cfg, Alloc: alloc, Feasible: true,
		Throughput: tput, Latency: latency,
		EncTime: encPhase, DecIterTime: firstIter, CycleTime: cycle,
		PeakEncMem: peak, PeakDecMem: peak,
	}, nil
}

// waaProbe holds the schedule-invariant single-GPU cost and memory
// probes of §4.1 that drive every WAA encoder/decoder split.
type waaProbe struct {
	ce, cd                                  float64
	encCopy, decCopy, kvTotal, encTransient int64
}

// waaCostProbe estimates CE and CD on single GPUs to drive the WAA
// split (§4.1: the workload shapes the stage times used for
// allocation), plus the memory estimates WAA-M balances. The probe
// batch is fixed so that the derived allocation — and therefore the
// throughput/latency surfaces — stay stable along the B_E search axis,
// preserving the monotonicity Algorithm 1 exploits (§5.1). Both the
// reference path and the Evaluator consume this one helper, so the two
// cannot drift apart.
func (s *Simulator) waaCostProbe() (waaProbe, error) {
	const probeBE = 8
	probeEncTokens := probeBE * s.inMeanRounded
	probeBD := int(math.Round(probeBE * s.outMean))
	encLayers := s.Model.EncLayers
	if s.Model.DecoderOnly() {
		encLayers = s.Model.DecLayers
	}
	var p waaProbe
	encLayer, err := s.Profile.EncodeLayer(probeEncTokens, s.inMean, 1, profile.IntraNode)
	if err != nil {
		return waaProbe{}, err
	}
	p.ce = float64(encLayers) * encLayer
	decLayer, err := s.Profile.DecodeLayer(probeBD, s.ctxMean, 1, profile.IntraNode)
	if err != nil {
		return waaProbe{}, err
	}
	p.cd = float64(s.Model.DecLayers) * decLayer

	// Memory estimates for WAA-M, also at the probe batch.
	p.encCopy = int64(encLayers) * s.Model.DecLayerBytes()
	if !s.Model.DecoderOnly() {
		p.encCopy = int64(encLayers) * s.Model.EncLayerBytes()
	}
	p.decCopy = int64(s.Model.DecLayers) * s.Model.DecLayerBytes()
	p.kvTotal = s.kvBytes(s.steadyKV*float64(probeBD), s.Model.DecLayers, 1)
	p.encTransient = int64(2*probeEncTokens) * s.Model.KVBytesPerToken() // double-buffered prefill KV
	return p, nil
}

// estimateWAA simulates the WAA schedule: dedicated encoder and decoder
// pipelines running asynchronously (§4.1, §6).
func (s *Simulator) estimateWAA(cfg sched.Config) (Estimate, error) {
	be := cfg.BE
	bd := int(math.Round(float64(be) * s.outMean))
	if bd < 1 {
		bd = 1
	}
	cfg.BD = bd
	n := s.Cluster.TotalGPUs()

	p, err := s.waaCostProbe()
	if err != nil {
		return Estimate{}, err
	}
	encTokens := be * s.inMeanRounded
	ctx := s.meanCtx()

	encGPUs, decGPUs, err := sched.WAASplit(n, cfg.Policy, p.ce, p.cd,
		p.encCopy+p.encTransient, p.decCopy+p.kvTotal)
	if err != nil {
		return infeasible(cfg, err.Error()), nil
	}
	alloc, err := sched.AllocateWAA(s.Model, s.Cluster, cfg.Policy, encGPUs, decGPUs, cfg.TP)
	if err != nil {
		return infeasible(cfg, err.Error()), nil
	}

	// Encoder pipeline: pipelined over successive batches.
	kern := profile.NewStages(s.Profile, s.Cluster, alloc.Stages)
	encTimes, err := kern.Encode(nil, encTokens, s.inMean, 1)
	if err != nil {
		return Estimate{}, err
	}
	encTraversal := profile.Traversal(encTimes)
	encPeriod := profile.Slowest(encTimes)

	// Decoder pipeline with Bm micro-batches. More micro-batches than
	// pipeline stages add no overlap and only shrink per-micro-batch
	// efficiency, so the runner groups them; clamp accordingly (this
	// also keeps the Bm axis monotone for Algorithm 1, §5.1).
	decStages := alloc.DecStages()
	bm := cfg.Bm
	if bm > len(decStages) {
		bm = len(decStages)
	}
	micro := bd / bm
	if micro < 1 {
		micro = 1
	}
	decTimes, err := kern.Decode(nil, micro, ctx, 1)
	if err != nil {
		return Estimate{}, err
	}
	decIter := profile.PipelinePeriod(decTimes, bm)
	decTraversal := profile.Traversal(decTimes)

	// Steady-state period: the slower side gates (pipeline bubble
	// otherwise); the KV handover is staged through host memory and
	// overlaps compute, so it binds only if slower than both.
	kvXfer := s.Profile.KVTransfer(encTokens)
	period := math.Max(decIter, encPeriod)
	period = math.Max(period, kvXfer)

	// Memory feasibility per side.
	var peakEnc, peakDec int64
	for _, st := range alloc.EncStages() {
		mem := sched.WeightBytesPerGPU(s.Model, st) +
			int64(2*encTokens)*s.Model.KVBytesPerTokenLayer()*int64(max(st.EncLayers, 1))
		if mem > peakEnc {
			peakEnc = mem
		}
	}
	kvPerQuery := s.steadyKVTokensPerQuery()
	for _, st := range decStages {
		mem := sched.WeightBytesPerGPU(s.Model, st) + s.kvBytes(kvPerQuery*float64(bd), st.DecLayers, st.TP)
		if mem > peakDec {
			peakDec = mem
		}
	}
	if peakEnc > s.capacity() || peakDec > s.capacity() {
		e := infeasible(cfg, fmt.Sprintf("OOM: enc %d / dec %d > capacity %d", peakEnc, peakDec, s.capacity()))
		e.PeakEncMem, e.PeakDecMem = peakEnc, peakDec
		return e, nil
	}

	// Throughput: BD/meanOut = BE completions per decode iteration.
	tput := float64(be) / period

	// Latency: encode traversal + KV handover + S99 decode iterations
	// (token period), §4.1/§6 including buffer for dynamic adjustment.
	s99 := s.pctlLen()
	latency := encTraversal + kvXfer + (s99-1)*period + decTraversal
	latency *= 1.05 // §6: buffer time for dynamic adjustments

	return Estimate{
		Config: cfg, Alloc: alloc, Feasible: true,
		Throughput: tput, Latency: latency,
		EncTime: encTraversal, DecIterTime: decIter, CycleTime: period,
		PeakEncMem: peakEnc, PeakDecMem: peakDec,
	}, nil
}
