// Evaluator: the allocation-free, memoized Estimate fast path.
//
// The branch-and-bound search of §5 evaluates thousands of schedules
// against one immutable Simulator, and neighbouring probes share almost
// everything: walking the ND axis reuses the TP allocation, walking the
// batch axis reuses the completion distribution, and every decode
// iteration is priced at the same mean attention context. An Evaluator
// exploits that by memoizing every schedule-invariant intermediate —
// completion distributions by ND, RRA allocations by TP, WAA
// probes/splits/allocations by (policy, TP) — and, per allocation
// entry, the encode-phase composites in small int-keyed maps by token
// count.
//
// Stage times themselves are not memoized. Each allocation entry holds
// its allocation's stage-cost kernel (profile.Stages), the same pricing
// the reference path, the runner and the baselines use. The kernel
// dedupes the profile lookups at construction — one layer lookup per
// distinct (TP degree, collective link), one handover per distinct
// link — so an encode composite miss makes those few lookups and fans
// them out in stage order into the Evaluator's one reused buffer. The
// decode side needs no memo: the entry builds the kernel's
// fixed-context pricer (profile.ContextDecode) once, at the
// Simulator's mean attention context, and a decode iteration at any
// micro-batch size is then one batch locate and a pass over the stages,
// with no allocation. Both sides add the same terms in the same order
// as the reference path.
//
// Whole results are memoized too, by Config, as pointers into an
// append-only arena of fixed-capacity chunks. The search reads a probe
// through that pointer (estimatePtr), so a repeat probe copies nothing;
// the exported Estimate returns a copy. The steady state of a search
// performs zero allocations per probe (TestFindBestWarmAllocs).
//
// An Evaluator is NOT safe for concurrent use: it is per-goroutine
// state over a shared, read-only Simulator. The scheduler keeps one per
// worker (par.ForEachWorker); experiments and the CLI create one per
// Deployment. Results are bit-identical to Simulator.Estimate, the
// reference path — asserted by the golden, equivalence and fuzz tests.
package core

import (
	"fmt"
	"math"

	"exegpt/internal/profile"
	"exegpt/internal/sched"
	"exegpt/internal/seqdist"
)

// compEntry memoizes one ND's completion distribution (§6) together
// with the derived per-phase completion fraction and the running-sum
// active fractions for decode iterations 1..ND.
type compEntry struct {
	frac   float64   // PerPhaseCompletion
	active []float64 // ActiveFractions; index u in 1..ND
	err    error
}

// allocEntry memoizes one RRA allocation attempt plus the per-stage
// weight bytes, the allocation's stage-cost kernel and its decode
// pricer: once an allocation is fixed, the encoding phase depends only
// on the micro-batch token count and a decode iteration only on the
// rounded micro-batch size.
type allocEntry struct {
	alloc   sched.Allocation
	weights []int64 // WeightBytesPerGPU per stage, aligned with Stages
	kern    *profile.Stages
	err     error

	encPhaseByTokens map[int]float64 // PipelinePeriod of the encoding phase by microTokens
	// dec prices a decode iteration at the Simulator's mean attention
	// context; decErr is its build error, which the first decode
	// iteration returns, as the reference path's Decode would.
	dec    profile.ContextDecode
	decErr error
}

// waaEnc is the encoder-side composite for one encTokens value.
type waaEnc struct {
	traversal, period float64
	peak              int64
}

// waaEntry memoizes one WAA split+allocation attempt for a (policy, TP)
// pair, including the pre-split stage views, per-side weights, the
// allocation's stage-cost kernel, the encoder composites derived from
// it, and its decode pricer.
type waaEntry struct {
	alloc                sched.Allocation
	encStages, decStages []sched.Stage
	encWeights           []int64
	decWeights           []int64
	kern                 *profile.Stages
	err                  error

	// encByTokens is keyed by a sparse count (prompt tokens), so it is
	// a map.
	encByTokens map[int]waaEnc
	// dec and decErr are allocEntry's: the decode pricer at the mean
	// attention context and its build error.
	dec    profile.ContextDecode
	decErr error
}

// waaKey identifies a WAA allocation: the CE/CD probe and memory
// estimates that drive the split are schedule-invariant (fixed probe
// batch, §4.1), so (policy, TP) fully determines the outcome.
type waaKey struct {
	policy sched.Policy
	tp     sched.TPSpec
}

// Evaluator is a per-goroutine evaluation context over one shared
// Simulator. See the package comment above for the design; create one
// with NewEvaluator and call Estimate exactly like Simulator.Estimate.
type Evaluator struct {
	sim *Simulator

	comp map[int]*compEntry // by ND
	rra  map[sched.TPSpec]*allocEntry
	waa  map[waaKey]*waaEntry

	// est is the whole-result memo: Algorithm 1 re-probes block corners
	// on every split (each half shares two corners with its parent), so
	// roughly half of all probes during a search are exact repeats. Its
	// values point into arena, so a hit hands the search a pointer
	// rather than a copy and map growth moves pointers only.
	est   map[sched.Config]*Estimate
	arena estArena

	probe     waaProbe
	probeErr  error
	probeDone bool

	// times is the stage-time buffer every encode fill reuses.
	times []float64
}

// NewEvaluator returns an empty evaluation context for sim. The memos
// fill lazily; constructing an Evaluator is cheap.
func NewEvaluator(sim *Simulator) *Evaluator {
	return &Evaluator{
		sim:  sim,
		comp: map[int]*compEntry{},
		rra:  map[sched.TPSpec]*allocEntry{},
		waa:  map[waaKey]*waaEntry{},
		est:  map[sched.Config]*Estimate{},
	}
}

// Sim returns the underlying shared Simulator.
func (e *Evaluator) Sim() *Simulator { return e.sim }

// Estimate simulates the timeline of cfg, bit-identical to
// Simulator.Estimate but memoized across calls. The returned Estimate
// shares its Allocation with other results from this Evaluator; treat
// it as read-only (Simulator.Estimate results already are).
func (e *Evaluator) Estimate(cfg sched.Config) (Estimate, error) {
	est, err := e.estimatePtr(cfg)
	if err != nil {
		return Estimate{}, err
	}
	return *est, nil
}

// estimatePtr is Estimate returning the memoized result in place. The
// pointee lives as long as the Evaluator's memo and is never modified;
// callers must not write through it.
func (e *Evaluator) estimatePtr(cfg sched.Config) (*Estimate, error) {
	if est, ok := e.est[cfg]; ok {
		return est, nil
	}
	est, err := e.estimate(cfg)
	if err != nil {
		return nil, err
	}
	p := e.arena.put(est)
	e.est[cfg] = p
	return p, nil
}

// estChunk is the number of Estimates per arena chunk: about 12 KB, a
// small-object allocation, and little unused tail for a short search.
const estChunk = 64

// estArena is append-only storage for memoized Estimates. A chunk is
// never re-sliced past its capacity, so an append never moves an
// element and every pointer put returns stays valid; a full chunk is
// left to the pointers into it and a fresh one started.
type estArena struct {
	cur []Estimate
}

// put stores est and returns its stable address.
func (a *estArena) put(est Estimate) *Estimate {
	if len(a.cur) == cap(a.cur) {
		a.cur = make([]Estimate, 0, estChunk)
	}
	a.cur = append(a.cur, est)
	return &a.cur[len(a.cur)-1]
}

func (e *Evaluator) estimate(cfg sched.Config) (Estimate, error) {
	if err := cfg.Validate(e.sim.Cluster.TotalGPUs()); err != nil {
		return infeasible(cfg, err.Error()), nil
	}
	if fe, ok := familyEstimators[cfg.Policy]; ok {
		return fe.fast(e, cfg)
	}
	return infeasible(cfg, "unknown policy"), nil
}

// completion returns the memoized completion-distribution entry for nd.
func (e *Evaluator) completion(nd int) (*compEntry, error) {
	if ce, ok := e.comp[nd]; ok {
		return ce, ce.err
	}
	ce := &compEntry{}
	comp, err := seqdist.NewCompletionDist(e.sim.out, nd)
	if err != nil {
		ce.err = err
	} else {
		ce.frac = comp.PerPhaseCompletion()
		ce.active = comp.ActiveFractions()
	}
	e.comp[nd] = ce
	return ce, ce.err
}

// rraAlloc returns the memoized RRA allocation for tp.
func (e *Evaluator) rraAlloc(tp sched.TPSpec) *allocEntry {
	if ae, ok := e.rra[tp]; ok {
		return ae
	}
	ae := &allocEntry{}
	ae.alloc, ae.err = sched.AllocateRRA(e.sim.Model, e.sim.Cluster, tp)
	if ae.err == nil {
		ae.weights = stageWeights(e.sim, ae.alloc.Stages)
		ae.kern = profile.NewStages(e.sim.Profile, e.sim.Cluster, ae.alloc.Stages)
		ae.encPhaseByTokens = map[int]float64{}
		ae.dec, ae.decErr = ae.kern.DecodeAt(e.sim.ctxMean, 1)
	}
	e.rra[tp] = ae
	return ae
}

// rraEncPhase returns the memoized RRA encoding-phase period for one
// micro-batch token count.
func (e *Evaluator) rraEncPhase(ae *allocEntry, microTokens int) (float64, error) {
	if v, ok := ae.encPhaseByTokens[microTokens]; ok {
		return v, nil
	}
	var err error
	e.times, err = ae.kern.Encode(e.times, microTokens, e.sim.inMean, 1)
	if err != nil {
		return 0, err
	}
	v := profile.PipelinePeriod(e.times, rraMicroBatches)
	ae.encPhaseByTokens[microTokens] = v
	return v, nil
}

// rraDecIter returns the RRA decode-iteration period for one rounded
// micro-batch size.
func rraDecIter(ae *allocEntry, micro int) (float64, error) {
	if ae.decErr != nil {
		return 0, ae.decErr
	}
	sum, max := ae.dec.Iter(micro)
	return profile.PeriodOf(sum, max, rraMicroBatches), nil
}

func stageWeights(s *Simulator, stages []sched.Stage) []int64 {
	w := make([]int64, len(stages))
	for i, st := range stages {
		w[i] = sched.WeightBytesPerGPU(s.Model, st)
	}
	return w
}

// waaCostProbe memoizes Simulator.waaCostProbe: the probe batch is
// fixed (§4.1), so the result never varies with the candidate schedule.
func (e *Evaluator) waaCostProbe() (waaProbe, error) {
	if e.probeDone {
		return e.probe, e.probeErr
	}
	e.probe, e.probeErr = e.sim.waaCostProbe()
	e.probeDone = true
	return e.probe, e.probeErr
}

// waaAlloc returns the memoized WAA split+allocation for (policy, tp).
func (e *Evaluator) waaAlloc(policy sched.Policy, tp sched.TPSpec, p waaProbe) *waaEntry {
	k := waaKey{policy: policy, tp: tp}
	if we, ok := e.waa[k]; ok {
		return we
	}
	s := e.sim
	we := &waaEntry{}
	n := s.Cluster.TotalGPUs()
	encGPUs, decGPUs, err := sched.WAASplit(n, policy, p.ce, p.cd,
		p.encCopy+p.encTransient, p.decCopy+p.kvTotal)
	if err == nil {
		we.alloc, err = sched.AllocateWAA(s.Model, s.Cluster, policy, encGPUs, decGPUs, tp)
	}
	we.err = err
	if err == nil {
		we.encStages = we.alloc.EncStages()
		we.decStages = we.alloc.DecStages()
		we.encWeights = stageWeights(s, we.encStages)
		we.decWeights = stageWeights(s, we.decStages)
		we.kern = profile.NewStages(s.Profile, s.Cluster, we.alloc.Stages)
		we.encByTokens = map[int]waaEnc{}
		we.dec, we.decErr = we.kern.DecodeAt(s.ctxMean, 1)
	}
	e.waa[k] = we
	return we
}

// waaEncSide returns the memoized encoder-side composite (traversal,
// pipeline period, peak memory) for one encTokens value.
func (e *Evaluator) waaEncSide(we *waaEntry, encTokens int) (waaEnc, error) {
	if v, ok := we.encByTokens[encTokens]; ok {
		return v, nil
	}
	s := e.sim
	var err error
	e.times, err = we.kern.Encode(e.times, encTokens, s.inMean, 1)
	if err != nil {
		return waaEnc{}, err
	}
	v := waaEnc{traversal: profile.Traversal(e.times), period: profile.Slowest(e.times)}
	for i, st := range we.encStages {
		mem := we.encWeights[i] +
			int64(2*encTokens)*s.Model.KVBytesPerTokenLayer()*int64(max(st.EncLayers, 1))
		if mem > v.peak {
			v.peak = mem
		}
	}
	we.encByTokens[encTokens] = v
	return v, nil
}

// estimateRRA is Simulator.estimateRRA with memoized completion
// distributions and allocations, a reused encode stage-time buffer, the
// allocation's fixed-context decode pricer, and the decode loop grouped
// by distinct micro-batch size: consecutive iterations whose rounded
// active micro-batch repeats reuse the previous iteration time
// (decTotal still accumulates term by term, so the float result is
// unchanged).
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
	// period. decTotal still accumulates term by term, keeping the float
	// result identical to the reference.
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

	tput := float64(be) / cycle
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

// estimateWAA is Simulator.estimateWAA with the CE/CD probe, split and
// allocation memoized by (policy, TP), the encoder composites memoized
// per allocation entry, and the decoder side priced by the entry's
// fixed-context pricer.
func (e *Evaluator) estimateWAA(cfg sched.Config) (Estimate, error) {
	s := e.sim
	be := cfg.BE
	bd := int(math.Round(float64(be) * s.outMean))
	if bd < 1 {
		bd = 1
	}
	cfg.BD = bd

	p, err := e.waaCostProbe()
	if err != nil {
		return Estimate{}, err
	}
	we := e.waaAlloc(cfg.Policy, cfg.TP, p)
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

	// Decoder pipeline with Bm micro-batches (clamped to the stage
	// count, see Simulator.estimateWAA).
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

	// Steady-state period: the slower side gates; the staged KV
	// handover binds only if slower than both.
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

	tput := float64(be) / period

	s99 := s.pctlLen()
	latency := enc.traversal + kvXfer + (s99-1)*period + decTraversal
	latency *= 1.05 // §6: buffer time for dynamic adjustments

	return Estimate{
		Config: cfg, Alloc: alloc, Feasible: true,
		Throughput: tput, Latency: latency,
		EncTime: enc.traversal, DecIterTime: decIter, CycleTime: period,
		PeakEncMem: peakEnc, PeakDecMem: peakDec,
	}, nil
}
