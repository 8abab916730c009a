// Frontier: the latency → max-throughput Pareto frontier a schedule
// search discovers.
//
// Every feasible point a branch-and-bound search evaluates is an
// (latency, throughput) sample of the deployment's trade-off curve. The
// Pareto subset — points not beaten on both axes by another point —
// answers "best schedule under latency bound L" for ANY L covered by
// the explored region with a single lookup, which is what lets
// FindBestMany reuse one branch enumeration across a whole ascending
// bound sweep. The frontier is also a compact summary of a search,
// which the sweep's -json artifact writes per deployment.
package core

import (
	"math"
	"sort"
)

// FrontierPoint is one Pareto-optimal schedule: no other discovered
// point has both lower (or equal) latency and higher throughput. A
// point is never written after it joins a frontier, so frontiers merged
// from one another share their points.
type FrontierPoint struct {
	Latency    float64  `json:"latency"`
	Throughput float64  `json:"throughput"`
	Est        Estimate `json:"estimate"`
}

// Frontier is an ordered set of Pareto-optimal points: Points is sorted
// by strictly increasing latency AND strictly increasing preference
// under the search's canonical order (better) — throughput never
// decreases, and equal-throughput neighbours appear in decreasing
// canonical config order so the last matching entry is always the one a
// from-scratch search would select. The zero value is an empty,
// ready-to-use frontier.
type Frontier struct {
	Points []*FrontierPoint `json:"points"`
}

// Len returns the number of Pareto points.
func (f *Frontier) Len() int { return len(f.Points) }

// dominatesEst reports whether keeping p makes est redundant for every
// BestUnder query: p is available at est's latency (p.lat <= est.lat)
// and is at least as preferred under the canonical incumbent order.
func (p *FrontierPoint) dominatesEst(est *Estimate) bool {
	if p.Latency > est.Latency {
		return false
	}
	if p.Throughput != est.Throughput {
		return p.Throughput > est.Throughput
	}
	return !configLess(est.Config, p.Est.Config)
}

// dominatedByEst is the mirror: est makes p redundant.
func (p *FrontierPoint) dominatedByEst(est *Estimate) bool {
	if est.Latency > p.Latency {
		return false
	}
	if est.Throughput != p.Throughput {
		return est.Throughput > p.Throughput
	}
	return !configLess(p.Est.Config, est.Config)
}

// Add offers a point to the frontier and reports whether it joined.
// Infeasible estimates and non-finite latencies never join. Adding is
// deterministic: the resulting set depends only on the multiset of
// points offered, not their order. The estimate is passed by pointer
// and copied only when it actually joins — the search offers every
// probe, and nearly all of them are dominated.
func (f *Frontier) Add(est *Estimate) bool {
	return f.add(est, nil)
}

// add is Add given the point to insert if est joins: p when it is
// another frontier's point holding est, which is shared rather than
// copied, or nil to copy est into a fresh point.
func (f *Frontier) add(est *Estimate, p *FrontierPoint) bool {
	if !est.Feasible || math.IsInf(est.Latency, 0) || math.IsNaN(est.Latency) {
		return false
	}
	// First entry at or after est's latency; every entry before i has a
	// strictly smaller latency.
	i := sort.Search(len(f.Points), func(k int) bool {
		return f.Points[k].Latency >= est.Latency
	})
	// A dominator, if any, is the nearest entry at or below est's
	// latency (the list is increasing in preference, so it is the
	// strongest candidate), or the entry sharing est's exact latency.
	if i > 0 && f.Points[i-1].dominatesEst(est) {
		return false
	}
	if i < len(f.Points) && f.Points[i].dominatesEst(est) {
		return false
	}
	if p == nil {
		p = &FrontierPoint{Latency: est.Latency, Throughput: est.Throughput, Est: *est}
	}
	// Drop every entry p now dominates: a contiguous run starting at i
	// (preference increases with position, so the run ends at the first
	// survivor).
	j := i
	for j < len(f.Points) && f.Points[j].dominatedByEst(est) {
		j++
	}
	if i == j {
		f.Points = append(f.Points, nil)
		copy(f.Points[i+1:], f.Points[i:])
		f.Points[i] = p
		return true
	}
	f.Points[i] = p
	f.Points = append(f.Points[:i+1], f.Points[j:]...)
	return true
}

// BestUnder returns the most preferred discovered schedule with latency
// strictly below lbound — exactly the incumbent a search over the same
// points would select — or ok=false when no discovered point satisfies
// the bound.
func (f *Frontier) BestUnder(lbound float64) (Estimate, bool) {
	i := sort.Search(len(f.Points), func(k int) bool {
		return f.Points[k].Latency >= lbound
	})
	if i == 0 {
		return Estimate{}, false
	}
	return f.Points[i-1].Est, true
}

// Merge folds every point of other into f; the points that join are
// shared with other, not copied. Merging per-branch (or per-shard)
// frontiers in canonical order yields the same frontier regardless of
// which worker discovered which point.
func (f *Frontier) Merge(other *Frontier) {
	for _, p := range other.Points {
		f.add(&p.Est, p)
	}
}
