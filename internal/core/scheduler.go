// XScheduler: the constraint-aware scheduling algorithm of §5.
//
// The optimization problem is
//
//	arg max Throughput(B_E, B_D, B_m, TP, F_E, S)
//	s.t.    Latency(...) < LBound
//
// and is monotonic: every control variable is oriented so that
// increasing it increases both throughput and latency (§5, §4.2). The
// search runs Algorithm 1 (branch-and-bound over two-dimensional blocks
// with corner-based pruning) per scheduling policy and per tensor-
// parallel configuration, then returns the best feasible schedule.
package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"

	"exegpt/internal/par"
	"exegpt/internal/sched"
)

// Axis is one oriented control variable: index i in [0, Size) maps to a
// concrete value such that increasing i increases both throughput and
// latency.
type Axis struct {
	Kind sched.AxisKind
	// Values in orientation order.
	Values []int
}

// Size returns the number of grid points.
func (a Axis) Size() int { return len(a.Values) }

// batchAxis returns a geometric batch grid 1..max (throughput and
// latency both increase with batch size).
func batchAxis(kind sched.AxisKind, max int) Axis {
	var vals []int
	for v := 1; v < max; {
		vals = append(vals, v)
		step := v / 4
		if step < 1 {
			step = 1
		}
		v += step
	}
	vals = append(vals, max)
	return Axis{Kind: kind, Values: vals}
}

// ndAxis returns the RRA encoding-frequency axis: decreasing ND
// increases both throughput and latency (§4.1), so values are ordered
// from large ND to small.
func ndAxis(max int) Axis {
	var vals []int
	for v := 1; v < max; {
		vals = append(vals, v)
		step := v / 3
		if step < 1 {
			step = 1
		}
		v += step
	}
	vals = append(vals, max)
	// Reverse: index 0 = largest ND (lowest tput, lowest latency).
	for i, j := 0, len(vals)-1; i < j; i, j = i+1, j-1 {
		vals[i], vals[j] = vals[j], vals[i]
	}
	return Axis{Kind: sched.AxisND, Values: vals}
}

// bmAxis returns the WAA decoder micro-batch axis: more micro-batches
// reduce latency and throughput (§4.2), so values run from many to few.
func bmAxis(max int) Axis {
	vals := make([]int, 0, max)
	for v := max; v >= 1; v-- {
		vals = append(vals, v)
	}
	return Axis{Kind: sched.AxisBm, Values: vals}
}

// perf is the (latency, throughput) of one grid point, Algorithm 1's
// perf(). est points at the probe's full Estimate: into the worker
// Evaluator's append-only arena, or at a heap copy on the reference
// path. It is shared and read-only, so copying a perf moves three words
// and the search copies an Estimate only when it becomes an incumbent
// or joins a frontier.
type perf struct {
	lat, tput float64
	est       *Estimate
}

// Scheduler is XScheduler. FindBest selects a schedule under one
// latency bound and FindBestMany under a list of bounds in one
// amortized pass; Exhaustive and MinLatency scan the whole grid (the
// §7.7 baseline and a bound-picking aid).
//
// A single search call fans its (policy, TP) roots out to a bounded
// worker pool; the Scheduler itself must not be shared by concurrent
// search calls, but one search internally uses Workers goroutines, each
// probing the shared read-only Simulator through its own memoized
// Evaluator.
type Scheduler struct {
	Sim *Simulator
	// MaxBatch and MaxND bound the search space.
	MaxBatch, MaxND, MaxBm int
	// Workers is the number of concurrent branch workers; 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Evals counts simulator invocations of the last search (the §7.7
	// cost comparison). Probes are counted pre-prune against a
	// deterministic seed bound, so the count is identical across worker
	// counts and runs (see FindBestMany).
	Evals int
	// Frontier is the merged latency→throughput Pareto frontier
	// discovered by the last FindBest or FindBestMany call (canonical
	// branch merge order, so it is deterministic across worker counts).
	// The sweep folds it into its per-deployment frontiers.
	Frontier Frontier

	// disableMemo routes every probe through the reference
	// Simulator.Estimate instead of the per-worker memoized Evaluators,
	// heap-allocating one Estimate per probe. The selected schedule is
	// identical either way; only the equivalence tests and benchmarks
	// that compare the paths set it.
	disableMemo bool

	// evs are the per-worker Evaluators, sized by ensureEvals at the
	// start of each search; evs[w] is only ever touched by pool worker w
	// (par.ForEachWorker), so no locking is needed. Memos persist across
	// searches on the same Scheduler: everything cached is
	// schedule-invariant for the underlying Simulator.
	evs []*Evaluator
}

// tolT and tolL are the throughput/latency tolerances of Algorithm 1,
// the paper's 5% (Table 5); they absorb small non-monotonicities
// (§5.1). Expressed as fractions of the running best / latency bound.
const tolT, tolL = 0.05, 0.05

// NewScheduler returns a scheduler over the full search space.
func NewScheduler(sim *Simulator) *Scheduler {
	return &Scheduler{Sim: sim, MaxBatch: 4096, MaxND: 64, MaxBm: 8}
}

// workers resolves the effective worker-pool size.
func (s *Scheduler) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ensureEvals sizes the per-worker Evaluator slice for a search. Called
// from the single-goroutine entry points before any worker runs.
func (s *Scheduler) ensureEvals() {
	if s.disableMemo {
		return
	}
	n := s.workers()
	for len(s.evs) < n {
		s.evs = append(s.evs, NewEvaluator(s.Sim))
	}
}

// eval returns worker w's estimate path: its memoized Evaluator, or the
// reference Simulator when disableMemo is set.
func (s *Scheduler) eval(w int) *Evaluator {
	if s.disableMemo {
		return nil
	}
	return s.evs[w]
}

// point evaluates the grid point idx (one index per axis) on ev (nil
// means the reference Simulator path), counting the evaluation into the
// caller's branch-local counter.
func (s *Scheduler) point(ev *Evaluator, policy sched.Policy, tp sched.TPSpec, axes []Axis, idx *[maxAxes]int, evals *int) (perf, error) {
	cfg := sched.Config{Policy: policy, TP: tp, BE: 1, BD: 1, Bm: 1, ND: 1}
	for d, a := range axes {
		v := a.Values[idx[d]]
		switch a.Kind {
		case sched.AxisBD:
			cfg.BD = v
		case sched.AxisBE:
			cfg.BE = v
		case sched.AxisND:
			cfg.ND = v
		case sched.AxisBm:
			cfg.Bm = v
		default:
			return perf{}, fmt.Errorf("core: unknown axis kind %d", int(a.Kind))
		}
	}
	*evals++
	var est *Estimate
	var err error
	if ev != nil {
		est, err = ev.estimatePtr(cfg)
	} else {
		var ref Estimate
		ref, err = s.Sim.Estimate(cfg)
		est = &ref
	}
	if err != nil {
		return perf{}, err
	}
	if !est.Feasible {
		return perf{lat: math.Inf(1), tput: 0, est: est}, nil
	}
	return perf{lat: est.Latency, tput: est.Throughput, est: est}, nil
}

// maxAxes bounds a branch's search dimensions: one per sched.AxisKind,
// each used at most once (TestFamilyAxesFitBlock pins every registered
// family to it).
const maxAxes = int(sched.AxisBm) + 1

// block is an axis-aligned index box [lo, hi] (inclusive) over the
// first n axes, held in fixed arrays so that splitting and queueing a
// block copy about a hundred bytes and allocate nothing.
type block struct {
	lo, hi [maxAxes]int
	n      int  // number of axes in use
	upp    perf // perf at hi corner (upper bound on tput in the box)
	lowr   perf // perf at lo corner (lower bound on latency)
}

// upperTput is the throughput upper bound a block proves. When the top
// corner is infeasible (e.g. out of memory at the largest batch) it
// bounds nothing: the interior may hold the optimum, so the bound is
// +Inf and the block must be split rather than pruned.
func (b *block) upperTput() float64 {
	if !b.upp.est.Feasible {
		return math.Inf(1)
	}
	return b.upp.tput
}

func (b *block) isPoint() bool {
	return b.lo == b.hi
}

// widestDim returns the dimension with the largest index span.
func (b *block) widestDim() int {
	best, span := 0, -1
	for d := 0; d < b.n; d++ {
		if w := b.hi[d] - b.lo[d]; w > span {
			span = w
			best = d
		}
	}
	return best
}

// Result is the outcome of a scheduling search.
type Result struct {
	Best  Estimate
	Found bool
	// Evals is the total simulator invocations across all branches. All
	// pruning information is deterministic (the seed bound comes from a
	// fixed corner-probe phase, everything else is branch-local), so
	// Evals is identical across runs and worker counts.
	Evals int
}

// configLess is a canonical total order on configurations, used to
// break exact throughput ties deterministically no matter in which
// order concurrent branches deliver their results.
func configLess(a, b sched.Config) bool {
	if a.Policy != b.Policy {
		return a.Policy < b.Policy
	}
	if a.TP.Degree != b.TP.Degree {
		return a.TP.Degree < b.TP.Degree
	}
	if a.TP.GPUs != b.TP.GPUs {
		return a.TP.GPUs < b.TP.GPUs
	}
	if a.BD != b.BD {
		return a.BD < b.BD
	}
	if a.BE != b.BE {
		return a.BE < b.BE
	}
	if a.ND != b.ND {
		return a.ND < b.ND
	}
	return a.Bm < b.Bm
}

// better reports whether a should replace b as the incumbent: strictly
// higher throughput, or equal throughput with a canonically smaller
// configuration. The tie-break makes the selected schedule independent
// of evaluation order, which parallel search does not control.
func better(a, b *Estimate) bool {
	if a.Throughput != b.Throughput {
		return a.Throughput > b.Throughput
	}
	return configLess(a.Config, b.Config)
}

// branch is one (policy, TP) root of Algorithm 1. axes is the policy's
// search grid, built once per search call and shared read-only by every
// TP branch of that policy.
type branch struct {
	policy sched.Policy
	tp     sched.TPSpec
	axes   []Axis
}

// branches enumerates the search roots in canonical order: policies as
// given, TP choices in tpChoices order. Reduction walks the same order,
// so results are deterministic regardless of completion order.
func (s *Scheduler) branches(policies []sched.Policy) []branch {
	var out []branch
	tps := s.tpChoices()
	for _, policy := range policies {
		var axes []Axis
		for _, tp := range tps {
			if !admitBranch(policy, tp, s.Sim.Cluster.TotalGPUs()) {
				continue // e.g. a dedicated decode pool cannot take every GPU
			}
			if axes == nil {
				axes = s.axesFor(policy)
			}
			out = append(out, branch{policy: policy, tp: tp, axes: axes})
		}
	}
	return out
}

// forEachBranch runs fn(worker, i) for every branch index on the
// worker pool. fn must only write to per-index state and to the
// per-worker state slot it is handed.
func (s *Scheduler) forEachBranch(n int, fn func(worker, i int)) {
	par.ForEachWorker(n, s.workers(), fn)
}

// branchOutcome is the per-branch search result, reduced canonically
// after all workers finish.
type branchOutcome struct {
	est   Estimate
	found bool
	evals int
	err   error
}

// branchState persists one (policy, TP) branch's search across the
// bounds of a search pass.
type branchState struct {
	// top and bottom are the phase-1 probes of the root block's
	// corners (every axis at its last and at its first index).
	top, bottom perf
	// deferred holds blocks discarded by the Line 14 latency test at a
	// processed bound, with their corner evaluations. A looser bound
	// re-admits the ones whose low corner now satisfies it and
	// re-splits from there instead of from the root. It starts as the
	// root block itself.
	deferred []block
	// frontier accumulates every feasible point the branch evaluated,
	// Pareto-reduced; it seeds looser bounds' incumbents so previously
	// discovered schedules are never re-enumerated.
	frontier Frontier
	// queue is the block queue's backing array, reused by every bound's
	// pass (bbLoop always drains it).
	queue []block
}

// newBranchState probes branch j's root block corners (phase 1) and
// roots its resumable state at the full grid block.
func (s *Scheduler) newBranchState(ev *Evaluator, j branch, evals *int) (branchState, error) {
	var st branchState
	root := block{n: len(j.axes)}
	for d, a := range j.axes {
		root.hi[d] = a.Size() - 1
	}
	var err error
	if st.top, err = s.point(ev, j.policy, j.tp, j.axes, &root.hi, evals); err != nil {
		return st, err
	}
	if st.bottom, err = s.point(ev, j.policy, j.tp, j.axes, &root.lo, evals); err != nil {
		return st, err
	}
	st.frontier.Add(st.top.est)
	st.frontier.Add(st.bottom.est)
	root.upp, root.lowr = st.top, st.bottom
	st.deferred = []block{root}
	return st, nil
}

// seedTput returns the strongest feasible, bound-satisfying corner
// throughput this branch's phase-1 probes prove, or (0, false).
func (st *branchState) seedTput(lbound float64) (float64, bool) {
	t, ok := 0.0, false
	for _, p := range [2]*perf{&st.top, &st.bottom} {
		if p.est.Feasible && p.lat < lbound && p.tput > t {
			t, ok = p.tput, true
		}
	}
	return t, ok
}

// incumbent tracks one branch search's running state at one bound: the
// throughput pruning bound, the best feasible bound-satisfying estimate
// found so far, and the branch's Frontier, which records every feasible
// point evaluated.
type incumbent struct {
	bound    float64
	best     Estimate
	found    bool
	frontier *Frontier
}

// consider offers one evaluated point to the incumbent under lbound.
func (inc *incumbent) consider(p *perf, lbound float64) {
	// Record out-of-bound points too: they answer looser bounds later
	// without a new probe.
	inc.frontier.Add(p.est)
	if p.est.Feasible && p.lat < lbound {
		if p.tput > inc.bound {
			inc.bound = p.tput
		}
		if !inc.found || better(p.est, &inc.best) {
			inc.best = *p.est
			inc.found = true
		}
	}
}

// epsLat returns the Line 14 latency tolerance for a bound.
func (s *Scheduler) epsLat(lbound float64) float64 {
	if math.IsInf(lbound, 1) {
		return 0
	}
	return tolL * lbound
}

// bbLoop drains the block queue of Algorithm 1 for branch j under
// lbound, updating inc with every evaluated point. Blocks discarded
// because their low corner cannot satisfy the latency bound (Line 14)
// are exactly the blocks a looser bound must revisit, so they go to
// st.deferred for resumption instead of being re-split from the root.
// The drained queue's backing array goes back to st.queue for reuse.
func (s *Scheduler) bbLoop(ev *Evaluator, j branch, st *branchState, lbound float64, inc *incumbent, queue []block, evals *int) error {
	policy, tp, axes := j.policy, j.tp, j.axes
	epsL := s.epsLat(lbound)

	// canBeat reports whether a block with throughput upper bound upp
	// could still improve on the incumbent T* (within the tolT
	// tolerance, Line 18).
	canBeat := func(upp float64) bool {
		return inc.bound == 0 || upp+tolT*inc.bound >= inc.bound
	}

	for len(queue) > 0 {
		// Line 6: pop the block with the max upper bound. A linear scan
		// beats keeping the queue sorted: every pop is O(q) with no
		// comparator closures, and the queue mutates on every iteration
		// anyway. Ties break by current queue position (swap-with-last
		// removal reorders it), which is deterministic for a given probe
		// history — the only property the search relies on.
		bi, bt := 0, queue[0].upperTput()
		for k := 1; k < len(queue); k++ {
			if t := queue[k].upperTput(); t > bt {
				bi, bt = k, t
			}
		}
		b := queue[bi]
		queue[bi] = queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		// Line 18 pruning (lazy): drop blocks that cannot beat T*.
		if !canBeat(bt) {
			continue
		}
		if b.isPoint() {
			inc.consider(&b.upp, lbound)
			continue
		}

		// Lines 7-10: split-dimension heuristic. Evaluate the two
		// "opposite corners" along the two widest dims and split
		// perpendicular to the better one.
		dim := b.widestDim()
		if d2 := b.secondWidest(dim); d2 >= 0 {
			tl := b.cornerSwap(dim) // low in dim, high elsewhere
			br := b.cornerSwap(d2)  // low in d2, high elsewhere
			ptl, err := s.point(ev, policy, tp, axes, &tl, evals)
			if err != nil {
				return err
			}
			pbr, err := s.point(ev, policy, tp, axes, &br, evals)
			if err != nil {
				return err
			}
			inc.consider(&ptl, lbound)
			inc.consider(&pbr, lbound)
			// Pick the corner with higher throughput satisfying the
			// bound and split the dimension that corner holds low: that
			// separates its feasible half from the infeasible one.
			if pbr.lat < lbound && (ptl.lat >= lbound || pbr.tput > ptl.tput) {
				dim = d2
			}
		}

		mid := (b.lo[dim] + b.hi[dim]) / 2
		halves := b.splitAt(dim, mid)
		for h := range halves {
			half := &halves[h]
			upp, err := s.point(ev, policy, tp, axes, &half.hi, evals)
			if err != nil {
				return err
			}
			lowr, err := s.point(ev, policy, tp, axes, &half.lo, evals)
			if err != nil {
				return err
			}
			inc.consider(&upp, lbound)
			inc.consider(&lowr, lbound)
			half.upp, half.lowr = upp, lowr
			// Line 14: keep only blocks whose lower corner can satisfy
			// the latency bound (within tolerance); defer the rest for
			// looser bounds.
			if lowr.lat < lbound+epsL {
				// Line 18: and whose upper bound can improve T*.
				if canBeat(half.upperTput()) {
					queue = append(queue, *half)
				}
			} else {
				st.deferred = append(st.deferred, *half)
			}
		}
	}
	st.queue = queue
	return nil
}

// secondWidest returns the widest dimension other than skip, or -1.
func (b *block) secondWidest(skip int) int {
	best, span := -1, 0
	for d := 0; d < b.n; d++ {
		if d == skip {
			continue
		}
		if w := b.hi[d] - b.lo[d]; w > span {
			span = w
			best = d
		}
	}
	return best
}

// cornerSwap returns the hi corner with dimension d dropped to lo.
func (b *block) cornerSwap(d int) [maxAxes]int {
	idx := b.hi
	idx[d] = b.lo[d]
	return idx
}

// splitAt splits b at index mid along dim into two blocks, without
// their corner probes.
func (b *block) splitAt(dim, mid int) [2]block {
	if mid >= b.hi[dim] {
		mid = b.hi[dim] - 1
	}
	if mid < b.lo[dim] {
		mid = b.lo[dim]
	}
	lower := block{lo: b.lo, hi: b.hi, n: b.n}
	lower.hi[dim] = mid
	upper := block{lo: b.lo, hi: b.hi, n: b.n}
	upper.lo[dim] = mid + 1
	return [2]block{lower, upper}
}

// tpChoices enumerates the partial tensor-parallelism options for the
// cluster: degree 1 (no TP) plus, per profiled degree d > 1, every
// multiple of d GPUs up to the cluster size (§5.1 fixes the degree and
// varies the applied GPU count).
func (s *Scheduler) tpChoices() []sched.TPSpec {
	n := s.Sim.Cluster.TotalGPUs()
	choices := []sched.TPSpec{{Degree: 1}}
	for _, d := range s.Sim.Profile.TPDegrees {
		if d <= 1 || d > n {
			continue
		}
		for g := d; g <= n; g += d {
			choices = append(choices, sched.TPSpec{Degree: d, GPUs: g})
		}
	}
	return choices
}

// errNaNBound rejects a NaN latency bound in every search entry point:
// NaN satisfies no latency comparison, so it would read as a silent NS.
var errNaNBound = errors.New("core: NaN latency bound")

// FindBest returns the highest-throughput schedule, over every policy
// in policies and every TP choice, whose estimated latency is below
// lbound; Found is false when there is none (the paper's NS). A NaN
// bound is an error. The Result, Evals included, is identical across
// worker counts and runs, and it is the grid optimum wherever
// Algorithm 1's monotone-corner assumption holds.
func (s *Scheduler) FindBest(policies []sched.Policy, lbound float64) (Result, error) {
	ress, err := s.FindBestMany(policies, []float64{lbound})
	if err != nil {
		return Result{}, err
	}
	return ress[0], nil
}

// resumeSearch continues a branch's Algorithm 1 at lbound from the
// state persisted by tighter bounds. The incumbent starts from the
// frontier's best bound-satisfying point and the cross-bound seed;
// enumeration restarts only from the deferred blocks the new bound
// unlocks.
func (s *Scheduler) resumeSearch(ev *Evaluator, j branch, lbound, seed float64, st *branchState, evals *int) (Estimate, bool, error) {
	// Lines 1-3: a feasible top corner that satisfies the bound is the
	// branch optimum under the monotone-corner assumption.
	if st.top.lat < lbound && st.top.est.Feasible {
		return *st.top.est, true, nil
	}
	inc := incumbent{bound: seed, frontier: &st.frontier}
	if est, ok := st.frontier.BestUnder(lbound); ok {
		inc.best, inc.found = est, true
		if est.Throughput > inc.bound {
			inc.bound = est.Throughput
		}
	}
	// Admit the deferred blocks this bound unlocks; keep the rest for
	// looser bounds. The compaction preserves deferral order, so the
	// whole pass stays deterministic.
	epsL := s.epsLat(lbound)
	queue := st.queue[:0]
	keep := st.deferred[:0]
	for k := range st.deferred {
		if b := &st.deferred[k]; b.lowr.lat < lbound+epsL {
			queue = append(queue, *b)
		} else {
			keep = append(keep, *b)
		}
	}
	st.deferred = keep
	if err := s.bbLoop(ev, j, st, lbound, &inc, queue, evals); err != nil {
		return Estimate{}, false, err
	}
	return inc.best, inc.found, nil
}

// FindBestMany runs Algorithm 1 for every policy in policies and every
// TP choice under each latency bound in bounds, in one amortized pass,
// and returns one Result per bound, aligned with the input order:
// the highest-throughput schedule found whose estimated latency is
// below that bound (bounds may be unsorted and contain duplicates,
// +Inf, or unsatisfiably tight values). An empty bounds slice returns
// nil; a NaN bound is an error.
//
// The search runs in deterministic phases on the worker pool. Phase 1
// probes every branch's root block corners — a fixed set. Then one
// pass per distinct bound, in ascending order, runs each branch's
// branch-and-bound seeded with the best feasible, bound-satisfying
// corner anywhere, tightened by the previous (tighter) bound's best
// schedule, which is feasible here too. Each branch persists its state
// between bounds: blocks discarded as latency-infeasible (Line 14)
// re-enter the queue with their corner probes intact instead of being
// re-derived from the root, and the branch's Pareto frontier answers
// looser bounds for the already-explored region without new probes, so
// enumeration shared across bounds — the dominant cost once probes are
// memoized — is paid once. No timing-dependent information flows
// between branches, so the Results — including Evals — are identical
// across worker counts and runs. Probes are charged to the bound whose
// pass issued them, with the shared corner probes charged to the
// tightest. Each policy's axes are built once per call and shared by
// its TP branches; blocks and probe results move as small arrays and
// pointers, and a probe's Estimate is copied only when it becomes a
// branch incumbent or joins a frontier.
//
// The selections are the grid optimum as long as a block's top-corner
// throughput upper-bounds its interior and its bottom-corner latency
// lower-bounds it (the §4.2 monotonicity Algorithm 1 assumes, with
// tolT and tolL absorbing small violations — Table 5 measures how well
// it holds). The WAA Bm axis breaks it at small BD (Bm=8 is slower
// than Bm=1), so a selection can fall below the Exhaustive optimum and
// can depend on which other bounds share the pass: on the Table 2 grid
// (TestFindBestManyMatchesFindBestTable2) 39 of 280 one-bound
// selections fall below the optimum and 4 are NS where Exhaustive finds
// a schedule; the four-bound pass has 34 and 4, and it differs from the
// one-bound pass on 12 selections.
//
// The merged frontier is left in s.Frontier.
func (s *Scheduler) FindBestMany(policies []sched.Policy, bounds []float64) ([]Result, error) {
	if len(bounds) == 0 {
		return nil, nil
	}
	for _, b := range bounds {
		if math.IsNaN(b) {
			return nil, errNaNBound
		}
	}
	asc := append([]float64(nil), bounds...)
	sort.Float64s(asc)
	uniq := asc[:1]
	for _, b := range asc[1:] {
		if b != uniq[len(uniq)-1] {
			uniq = append(uniq, b)
		}
	}

	jobs := s.branches(policies)
	s.ensureEvals()

	// Phase 1: probe every branch's root block corners once and set up
	// resumable state rooted at each branch's full grid block.
	states := make([]branchState, len(jobs))
	cornerEvals := make([]int, len(jobs))
	errs := make([]error, len(jobs))
	s.forEachBranch(len(jobs), func(w, i int) {
		states[i], errs[i] = s.newBranchState(s.eval(w), jobs[i], &cornerEvals[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Phase 2..n: one pass per distinct bound, ascending. Each pass
	// seeds from the corner probes at its own bound, tightened by the
	// best schedule of the previous (tighter) bound, which is feasible
	// here too.
	byBound := make(map[float64]Result, len(uniq))
	prevBest := 0.0
	total := 0
	for bi, lbound := range uniq {
		seed := prevBest
		for i := range jobs {
			if t, ok := states[i].seedTput(lbound); ok && t > seed {
				seed = t
			}
		}
		outs := make([]branchOutcome, len(jobs))
		s.forEachBranch(len(jobs), func(w, i int) {
			o := &outs[i]
			if bi == 0 {
				o.evals = cornerEvals[i]
			}
			o.est, o.found, o.err = s.resumeSearch(s.eval(w), jobs[i], lbound, seed, &states[i], &o.evals)
		})
		res, err := s.reduce(outs)
		if err != nil {
			return nil, err
		}
		byBound[lbound] = res
		total += res.Evals
		if res.Found && res.Best.Throughput > prevBest {
			prevBest = res.Best.Throughput
		}
	}
	s.Evals = total

	// Merge the per-branch frontiers in canonical branch order.
	s.Frontier = Frontier{}
	for i := range states {
		s.Frontier.Merge(&states[i].frontier)
	}

	out := make([]Result, len(bounds))
	for k, b := range bounds {
		out[k] = byBound[b]
	}
	return out, nil
}

// reduce folds branch outcomes in canonical order into one Result.
func (s *Scheduler) reduce(outs []branchOutcome) (Result, error) {
	var best Estimate
	found := false
	evals := 0
	for i := range outs {
		o := &outs[i]
		if o.err != nil {
			return Result{}, o.err
		}
		evals += o.evals
		if o.found && (!found || better(&o.est, &best)) {
			best = o.est
			found = true
		}
	}
	s.Evals = evals
	return Result{Best: best, Found: found, Evals: evals}, nil
}

// scanGrid walks a branch's full grid, invoking visit on every point.
func (s *Scheduler) scanGrid(ev *Evaluator, j branch, evals *int, visit func(perf)) error {
	axes := j.axes
	var idx [maxAxes]int
	for {
		p, err := s.point(ev, j.policy, j.tp, axes, &idx, evals)
		if err != nil {
			return err
		}
		visit(p)
		// Advance the mixed-radix counter.
		d := 0
		for d < len(axes) {
			idx[d]++
			if idx[d] < axes[d].Size() {
				break
			}
			idx[d] = 0
			d++
		}
		if d == len(axes) {
			break
		}
	}
	return nil
}

// MinLatency scans the search grid and returns the lowest achievable
// latency over the given policies (useful for picking meaningful
// latency bounds). Branches scan concurrently; the grid is fixed, so
// both the minimum and Evals are deterministic.
func (s *Scheduler) MinLatency(policies []sched.Policy) (float64, error) {
	jobs := s.branches(policies)
	s.ensureEvals()
	type minOutcome struct {
		min   float64
		evals int
		err   error
	}
	outs := make([]minOutcome, len(jobs))
	s.forEachBranch(len(jobs), func(w, i int) {
		o := &outs[i]
		o.min = math.Inf(1)
		o.err = s.scanGrid(s.eval(w), jobs[i], &o.evals, func(p perf) {
			if p.est.Feasible && p.lat < o.min {
				o.min = p.lat
			}
		})
	})
	min := math.Inf(1)
	evals := 0
	for _, o := range outs {
		if o.err != nil {
			return 0, o.err
		}
		evals += o.evals
		if o.min < min {
			min = o.min
		}
	}
	s.Evals = evals
	return min, nil
}

// Exhaustive evaluates every grid point (the §7.7 baseline that takes
// "five hours to an entire day" on the real system) and returns the
// true optimum over the same search space. Branches scan concurrently;
// no pruning is applied, so Evals is the full deterministic grid size.
func (s *Scheduler) Exhaustive(policies []sched.Policy, lbound float64) (Result, error) {
	if math.IsNaN(lbound) {
		return Result{}, errNaNBound
	}
	jobs := s.branches(policies)
	s.ensureEvals()
	outs := make([]branchOutcome, len(jobs))
	s.forEachBranch(len(jobs), func(w, i int) {
		o := &outs[i]
		o.err = s.scanGrid(s.eval(w), jobs[i], &o.evals, func(p perf) {
			if p.est.Feasible && p.lat < lbound && (!o.found || better(p.est, &o.est)) {
				o.est = *p.est
				o.found = true
			}
		})
	})
	return s.reduce(outs)
}
