// Evaluator: the allocation-free, memoized estimate path. Every
// estimate runs through one; each family's formula is an Evaluator
// method in its family_<name>.go file.
//
// The branch-and-bound search of §5 evaluates thousands of schedules
// against one immutable Simulator, and neighbouring probes share almost
// everything: walking the ND axis reuses the TP allocation, walking the
// batch axis reuses the completion distribution, and every decode
// iteration is priced at the same mean attention context. An Evaluator
// exploits that by memoizing every schedule-invariant intermediate —
// completion distributions by ND, RRA allocations by TP, WAA splits and
// dedicated-pool allocations by (policy, TP) — and, per allocation
// entry, the encode-phase composites in small int-keyed maps by token
// count.
//
// Stage times themselves are not memoized. Each allocation entry holds
// its allocation's stage-cost kernel (profile.Stages), the same pricing
// the runner and the baselines use. The kernel dedupes the profile
// lookups at construction — one layer lookup per distinct (TP degree,
// collective link), one handover per distinct link — so an encode
// composite miss makes those few lookups and fans them out in stage
// order into the Evaluator's one reused buffer. The
// decode side needs no memo: the entry builds the kernel's
// fixed-context pricer (profile.ContextDecode) once, at the
// Simulator's mean attention context, and a decode iteration at any
// micro-batch size is then one batch locate and a pass over the stages,
// with no allocation, bit-identical to the kernel's Decode
// (profile's TestDecodeAtMatchesDecode and fuzz test pin this).
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
// Deployment. A fresh Evaluator's memos are empty, so every lookup it
// makes is a direct one; a warm Evaluator returns bit-identical results
// (the warm-versus-fresh tests and fuzz test assert this), and the
// estimate goldens pin the values themselves.
package core

import (
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
	// iteration returns, as the kernel's Decode would.
	dec    profile.ContextDecode
	decErr error
}

// waaEnc is the encoder-side composite for one encTokens value.
type waaEnc struct {
	traversal, period float64
	peak              int64
}

// waaEntry memoizes one dedicated-pool allocation attempt for a
// (policy, TP) pair — a WAA split+allocation or DISAGG's even split —
// including the pre-split stage views, per-side weights, the
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

// waaKey identifies a dedicated-pool allocation: the CE/CD probe and
// memory estimates that drive the WAA split are schedule-invariant
// (fixed probe batch, §4.1) and DISAGG's split is fixed, so (policy,
// TP) fully determines the outcome.
type waaKey struct {
	policy sched.Policy
	tp     sched.TPSpec
}

// Evaluator is a per-goroutine evaluation context over one shared
// Simulator. See the comment at the top of this file for the design;
// create one with NewEvaluator and call Estimate.
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

// Estimate simulates the timeline of cfg, dispatching through the
// per-family estimator registry (family.go), memoized across calls. The
// returned Estimate shares its Allocation with other results from this
// Evaluator; treat it as read-only.
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
		return fe(e, cfg)
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

// waaAlloc returns the memoized WAA split+allocation for (policy, tp).
func (e *Evaluator) waaAlloc(policy sched.Policy, tp sched.TPSpec) *waaEntry {
	k := waaKey{policy: policy, tp: tp}
	if we, ok := e.waa[k]; ok {
		return we
	}
	s := e.sim
	p := &s.probe
	var alloc sched.Allocation
	encGPUs, decGPUs, err := sched.WAASplit(s.Cluster.TotalGPUs(), policy, p.ce, p.cd,
		p.encCopy+p.encTransient, p.decCopy+p.kvTotal)
	if err == nil {
		alloc, err = sched.AllocateWAA(s.Model, s.Cluster, policy, encGPUs, decGPUs, tp)
	}
	return e.poolEntry(k, alloc, err)
}

// poolEntry memoizes a dedicated-pool allocation attempt under k,
// deriving its stage views, weights, kernel and decode pricer.
func (e *Evaluator) poolEntry(k waaKey, alloc sched.Allocation, err error) *waaEntry {
	s := e.sim
	we := &waaEntry{alloc: alloc, err: err}
	if err == nil {
		we.encStages = alloc.EncStages()
		we.decStages = alloc.DecStages()
		we.encWeights = stageWeights(s, we.encStages)
		we.decWeights = stageWeights(s, we.decStages)
		we.kern = profile.NewStages(s.Profile, s.Cluster, alloc.Stages)
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
