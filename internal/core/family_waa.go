// WAA family: both workload-aware variants share one estimate (§4.1,
// §6), which branches on the split rule internally via sched.WAASplit,
// and the single-GPU cost probe that drives the split.
package core

import (
	"fmt"
	"math"

	"exegpt/internal/profile"
	"exegpt/internal/sched"
)

func init() {
	registerEstimator(sched.WAAC, (*Evaluator).estimateWAA)
	registerEstimator(sched.WAAM, (*Evaluator).estimateWAA)
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
// preserving the monotonicity Algorithm 1 exploits (§5.1). NewSimulator
// runs it once, like the other schedule-invariant inputs, and a miss in
// Evaluator.waaAlloc reads the result.
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
// pipelines running asynchronously (§4.1, §6). The split and allocation
// are memoized by (policy, TP), the encoder composites per allocation
// entry, and the decoder side is priced by the entry's fixed-context
// pricer.
func (e *Evaluator) estimateWAA(cfg sched.Config) (Estimate, error) {
	s := e.sim
	be := cfg.BE
	bd := int(math.Round(float64(be) * s.outMean))
	if bd < 1 {
		bd = 1
	}
	cfg.BD = bd

	if s.probeErr != nil {
		return Estimate{}, s.probeErr
	}
	we := e.waaAlloc(cfg.Policy, cfg.TP)
	if we.err != nil {
		return infeasible(cfg, we.err.Error()), nil
	}
	alloc := we.alloc
	encTokens := be * s.inMeanRounded

	// Encoder pipeline: pipelined over successive batches.
	enc, err := e.waaEncSide(we, encTokens)
	if err != nil {
		return Estimate{}, err
	}

	// Decoder pipeline with Bm micro-batches. More micro-batches than
	// pipeline stages add no overlap and only shrink per-micro-batch
	// efficiency, so the runner groups them; clamp accordingly (this
	// also keeps the Bm axis monotone for Algorithm 1, §5.1).
	bm := cfg.Bm
	if bm > len(we.decStages) {
		bm = len(we.decStages)
	}
	micro := bd / bm
	if micro < 1 {
		micro = 1
	}
	if we.decErr != nil {
		return Estimate{}, we.decErr
	}
	decTraversal, decSlowest := we.dec.Iter(micro)
	decIter := profile.PeriodOf(decTraversal, decSlowest, bm)

	// Steady-state period: the slower side gates (pipeline bubble
	// otherwise); the KV handover is staged through host memory and
	// overlaps compute, so it binds only if slower than both.
	kvXfer := s.Profile.KVTransfer(encTokens)
	period := math.Max(decIter, enc.period)
	period = math.Max(period, kvXfer)

	// Memory feasibility per side.
	peakEnc := enc.peak
	var peakDec int64
	for i, st := range we.decStages {
		mem := we.decWeights[i] + s.kvBytes(s.steadyKV*float64(bd), st.DecLayers, st.TP)
		if mem > peakDec {
			peakDec = mem
		}
	}
	if peakEnc > s.capBytes || peakDec > s.capBytes {
		est := infeasible(cfg, fmt.Sprintf("OOM: enc %d / dec %d > capacity %d", peakEnc, peakDec, s.capBytes))
		est.PeakEncMem, est.PeakDecMem = peakEnc, peakDec
		return est, nil
	}

	// Throughput: BD/meanOut = BE completions per decode iteration.
	tput := float64(be) / period

	// Latency: encode traversal + KV handover + S99 decode iterations
	// (token period), §4.1/§6 including buffer for dynamic adjustment.
	s99 := float64(s.s99)
	latency := enc.traversal + kvXfer + (s99-1)*period + decTraversal
	latency *= 1.05 // §6: buffer time for dynamic adjustments

	return Estimate{
		Config: cfg, Alloc: alloc, Feasible: true,
		Throughput: tput, Latency: latency,
		EncTime: enc.traversal, DecIterTime: decIter, CycleTime: period,
		PeakEncMem: peakEnc, PeakDecMem: peakDec,
	}, nil
}
