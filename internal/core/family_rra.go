// RRA family: the round-robin allocation's estimate (§4.1, §6), which
// enters the per-family dispatch here.
package core

import (
	"fmt"
	"math"

	"exegpt/internal/sched"
)

func init() {
	registerEstimator(sched.RRA, (*Evaluator).estimateRRA)
}

// rraMicroBatches is the number of decode mini-batches RRA interleaves
// (Figure 4(a) shows two).
const rraMicroBatches = 2

// estimateRRA simulates the RRA schedule: one encoding phase then ND
// decoding iterations, repeated (§4.1, §6). It reads memoized
// completion distributions and allocations, reuses the encode
// stage-time buffer, prices decode iterations with the allocation's
// fixed-context pricer, and groups the decode loop by distinct
// micro-batch size: consecutive iterations whose rounded active
// micro-batch repeats reuse the previous iteration time (decTotal still
// accumulates term by term).
func (e *Evaluator) estimateRRA(cfg sched.Config) (Estimate, error) {
	s := e.sim
	ce, err := e.completion(cfg.ND)
	if err != nil {
		return Estimate{}, err
	}
	bd := cfg.BD
	be := int(math.Round(float64(bd) * ce.frac))
	if be < 1 {
		be = 1
	}
	cfg.BE = be

	ae := e.rraAlloc(cfg.TP)
	if ae.err != nil {
		return infeasible(cfg, ae.err.Error()), nil
	}
	alloc := ae.alloc

	// Encoding phase: the BE batch traverses all stages as
	// rraMicroBatches interleaved mini-batches (Figure 4(a)).
	encTokens := be * s.inMeanRounded
	microTokens := encTokens / rraMicroBatches
	if microTokens < 1 {
		microTokens = 1
	}
	encPhase, err := e.rraEncPhase(ae, microTokens)
	if err != nil {
		return Estimate{}, err
	}

	// Decoding iterations u = 1..ND with decaying active batches. The
	// active fraction is nonincreasing in u, so distinct micro-batch
	// values form runs; only the first iteration of a run prices its
	// period. decTotal still accumulates term by term, so the float
	// result equals pricing every iteration.
	var decTotal, firstIter, iter float64
	lastMicro := 0
	for u := 1; u <= cfg.ND; u++ {
		active := int(math.Ceil(float64(bd) * ce.active[u]))
		if active < 1 {
			active = 1
		}
		micro := active / rraMicroBatches
		if micro < 1 {
			micro = 1
		}
		if micro != lastMicro {
			iter, err = rraDecIter(ae, micro)
			if err != nil {
				return Estimate{}, err
			}
			lastMicro = micro
		}
		decTotal += iter
		if u == 1 {
			firstIter = iter
		}
	}
	cycle := encPhase + decTotal

	// Memory check on the most loaded stage: weights + steady KV for BD
	// queries' share of layers.
	kvTokens := s.steadyKV * float64(bd)
	var peak int64
	for i, st := range alloc.Stages {
		mem := ae.weights[i] + s.kvBytes(kvTokens, st.DecLayers, st.TP)
		if mem > peak {
			peak = mem
		}
	}
	if peak > s.capBytes {
		est := infeasible(cfg, fmt.Sprintf("OOM: peak %d > capacity %d", peak, s.capBytes))
		est.PeakDecMem = peak
		return est, nil
	}

	// Throughput: BE completions per cycle.
	tput := float64(be) / cycle

	// Latency for the target-percentile sequence: the query decodes for
	// S99 iterations and sits through one encoding phase per ND
	// iterations (§4.1). The expected phase count S99/ND (a query joins
	// a cycle at a uniformly random offset) keeps Latency smooth and
	// strictly monotone in the encoding frequency.
	s99 := float64(s.s99)
	avgIter := decTotal / float64(cfg.ND)
	latency := encPhase*(1+s99/float64(cfg.ND)) + s99*avgIter

	return Estimate{
		Config: cfg, Alloc: alloc, Feasible: true,
		Throughput: tput, Latency: latency,
		EncTime: encPhase, DecIterTime: firstIter, CycleTime: cycle,
		PeakEncMem: peak, PeakDecMem: peak,
	}, nil
}
