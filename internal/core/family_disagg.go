// Disaggregated prefill/decode family registration and estimate. The
// family is skeletal — it exists to prove the policy seam end to end —
// but it is a real model: WAA-shaped dedicated pools with a fixed even
// GPU split and the KV handover on the critical path (pool-to-pool
// pull, no host-staging overlap), which is the defining cost of
// disaggregated serving. It reuses WAA's per-(policy, TP) allocation
// entry, so only its allocation, period and latency lines differ from
// estimateWAA. Golden rows live in testdata/golden_disagg.json.
package core

import (
	"fmt"
	"math"

	"exegpt/internal/profile"
	"exegpt/internal/sched"
)

func init() {
	registerEstimator(sched.Disagg, (*Evaluator).estimateDisagg)
}

// disaggAlloc returns the memoized disaggregated allocation for
// (policy, tp).
func (e *Evaluator) disaggAlloc(policy sched.Policy, tp sched.TPSpec) *waaEntry {
	k := waaKey{policy: policy, tp: tp}
	if we, ok := e.waa[k]; ok {
		return we
	}
	alloc, err := sched.AllocateDisagg(e.sim.Model, e.sim.Cluster, tp)
	return e.poolEntry(k, alloc, err)
}

// estimateDisagg simulates the disaggregated schedule: a prefill pool
// and a decode pool on an even GPU split, coupled by a serialized KV
// transfer.
func (e *Evaluator) estimateDisagg(cfg sched.Config) (Estimate, error) {
	s := e.sim
	be := cfg.BE
	bd := int(math.Round(float64(be) * s.outMean))
	if bd < 1 {
		bd = 1
	}
	cfg.BD = bd

	we := e.disaggAlloc(cfg.Policy, cfg.TP)
	if we.err != nil {
		return infeasible(cfg, we.err.Error()), nil
	}
	encTokens := be * s.inMeanRounded

	// Prefill pool: pipelined over successive batches.
	enc, err := e.waaEncSide(we, encTokens)
	if err != nil {
		return Estimate{}, err
	}

	// Decode pool with Bm micro-batches, clamped like WAA's.
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

	// Steady-state period: the disaggregated cache handover is a direct
	// pool-to-pool pull with no host staging, so it serializes with the
	// prefill side — the prefill pool cannot admit the next batch until
	// the previous batch's cache has left.
	kvXfer := s.Profile.KVTransfer(encTokens)
	period := math.Max(decIter, enc.period+kvXfer)

	// Memory feasibility per pool, same accounting as WAA's.
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

	tput := float64(be) / period

	// Latency: prefill traversal, the serialized handover, then S99
	// decode iterations. No dynamic-adjustment buffer — the pools never
	// rebalance, that is the point of the fixed split.
	latency := enc.traversal + kvXfer + (float64(s.s99)-1)*period + decTraversal

	return Estimate{
		Config: cfg, Alloc: we.alloc, Feasible: true,
		Throughput: tput, Latency: latency,
		EncTime: enc.traversal, DecIterTime: decIter, CycleTime: period,
		PeakEncMem: peakEnc, PeakDecMem: peakDec,
	}, nil
}
