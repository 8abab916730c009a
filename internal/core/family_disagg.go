// Disaggregated prefill/decode family registration and estimators. The
// family is skeletal — it exists to prove the policy seam end to end —
// but it is a real model: WAA-shaped dedicated pools with a fixed even
// GPU split and the KV handover on the critical path (pool-to-pool
// pull, no host-staging overlap), which is the defining cost of
// disaggregated serving. Golden rows live in
// testdata/golden_disagg.json; the familytest suite pins the two paths
// bit-identical like every other family.
package core

import (
	"fmt"
	"math"

	"exegpt/internal/profile"
	"exegpt/internal/sched"
)

func init() {
	registerEstimator(sched.Disagg, familyEstimator{
		ref:  (*Simulator).estimateDisagg,
		fast: (*Evaluator).estimateDisagg,
	})
}

// estimateDisagg simulates the disaggregated schedule: a prefill pool
// and a decode pool on an even GPU split, coupled by a serialized KV
// transfer.
func (s *Simulator) estimateDisagg(cfg sched.Config) (Estimate, error) {
	be := cfg.BE
	bd := int(math.Round(float64(be) * s.outMean))
	if bd < 1 {
		bd = 1
	}
	cfg.BD = bd

	alloc, err := sched.AllocateDisagg(s.Model, s.Cluster, cfg.TP)
	if err != nil {
		return infeasible(cfg, err.Error()), nil
	}
	encTokens := be * s.inMeanRounded
	ctx := s.meanCtx()

	// Prefill pool: pipelined over successive batches.
	kern := profile.NewStages(s.Profile, s.Cluster, alloc.Stages)
	encTimes, err := kern.Encode(nil, encTokens, s.inMean, 1)
	if err != nil {
		return Estimate{}, err
	}
	encTraversal := profile.Traversal(encTimes)
	encPeriod := profile.Slowest(encTimes)

	// Decode pool with Bm micro-batches, clamped like WAA's.
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

	// Steady-state period: the disaggregated cache handover is a direct
	// pool-to-pool pull with no host staging, so it serializes with the
	// prefill side — the prefill pool cannot admit the next batch until
	// the previous batch's cache has left.
	kvXfer := s.Profile.KVTransfer(encTokens)
	period := math.Max(decIter, encPeriod+kvXfer)

	// Memory feasibility per pool, same accounting as WAA's.
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

	tput := float64(be) / period

	// Latency: prefill traversal, the serialized handover, then S99
	// decode iterations. No dynamic-adjustment buffer — the pools never
	// rebalance, that is the point of the fixed split.
	s99 := s.pctlLen()
	latency := encTraversal + kvXfer + (s99-1)*period + decTraversal

	return Estimate{
		Config: cfg, Alloc: alloc, Feasible: true,
		Throughput: tput, Latency: latency,
		EncTime: encTraversal, DecIterTime: decIter, CycleTime: period,
		PeakEncMem: peakEnc, PeakDecMem: peakDec,
	}, nil
}

// estimateDisagg is the family's Evaluator path. The skeletal family
// defers to the reference implementation — bit-equality by construction
// — and leans on the Evaluator's whole-result memo for the warm-path
// speedup; a production family would add per-side memos like WAA's.
func (e *Evaluator) estimateDisagg(cfg sched.Config) (Estimate, error) {
	return e.sim.estimateDisagg(cfg)
}
