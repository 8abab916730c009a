package profile

import (
	"exegpt/internal/hw"
	"exegpt/internal/sched"
)

// Stages is the stage-cost kernel: the one place a pipeline stage is
// priced. XSimulator's estimates, XRunner's execution and the baselines
// all time a stage the same way — its layer count times one profiled
// layer at the stage's TP degree and collective link, plus the
// activation handover to the next stage — so they share this kernel.
//
// Construction resolves, per stage, the collective link, the handover
// link to the next rank block and the layer count of each phase, and
// dedupes the lookups: a fill makes one layer lookup per distinct
// (TP degree, collective link) and one PPSend per distinct handover
// link, then fans the values out in stage order. A stage holding no
// layers of a phase is left out of that phase.
//
// A Stages is immutable once built and may be shared by concurrent
// callers; Encode and Decode write only the caller's buffer.
type Stages struct {
	tab      *Table
	enc, dec phase
}

// phase is one phase's view of the stages: the distinct lookups and,
// per stage that runs the phase, its layer count and which lookups it
// uses.
type phase struct {
	layers []layerKey
	sends  []LinkClass
	stages []stageCost
}

// layerKey is everything a layer lookup reads from a stage.
type layerKey struct {
	tp int
	lc LinkClass
}

// stageCost indexes one stage's layer lookup and handover.
type stageCost struct {
	layers      int
	layer, send int // into phase.layers and phase.sends
}

// NewStages builds the kernel for stages (in pipeline order) on cluster.
func NewStages(tab *Table, cluster hw.Cluster, stages []sched.Stage) *Stages {
	k := &Stages{tab: tab}
	k.enc.stages = make([]stageCost, 0, len(stages))
	k.dec.stages = make([]stageCost, 0, len(stages))
	n := cluster.TotalGPUs()
	for _, st := range stages {
		lk := layerKey{tp: st.TP, lc: IntraNode}
		if st.CrossNode {
			lk.lc = InterNode
		}
		// Adjacent rank blocks may span nodes, approximated by the
		// from-stage boundary.
		last := st.FirstRank + st.TP - 1
		pp := IntraNode
		if cluster.NodeOf(last) != cluster.NodeOf((last+1)%n) {
			pp = InterNode
		}
		k.enc.add(st.EncLayers, lk, pp)
		k.dec.add(st.DecLayers, lk, pp)
	}
	return k
}

func (p *phase) add(layers int, lk layerKey, pp LinkClass) {
	if layers == 0 {
		return
	}
	p.stages = append(p.stages, stageCost{layers: layers, layer: indexOf(&p.layers, lk), send: indexOf(&p.sends, pp)})
}

// indexOf returns k's index in keys, appending it when new. Stage lists
// are a few dozen entries at most, so a linear scan beats hashing.
func indexOf[K comparable](keys *[]K, k K) int {
	for i, seen := range *keys {
		if seen == k {
			return i
		}
	}
	*keys = append(*keys, k)
	return len(*keys) - 1
}

// Encode fills dst with the encode time of every stage holding encoding
// layers, in stage order, for tokens prompt tokens of mean sequence
// length meanSeq, and returns it resized. Each time is
// layers·(layer·scale) + send: scale multiplies the profiled layer time
// before the handover is added (1 leaves it exact). Zero tokens give
// zero times.
func (k *Stages) Encode(dst []float64, tokens int, meanSeq, scale float64) ([]float64, error) {
	return k.fill(&k.enc, dst, tokens, meanSeq, scale, true)
}

// Decode is Encode for one decode iteration of batch queries with mean
// attention context ctx, over the stages holding decoding layers.
func (k *Stages) Decode(dst []float64, batch int, ctx, scale float64) ([]float64, error) {
	return k.fill(&k.dec, dst, batch, ctx, scale, false)
}

func (k *Stages) fill(p *phase, dst []float64, n int, x, scale float64, enc bool) ([]float64, error) {
	dst = dst[:0]
	if n == 0 {
		for range p.stages {
			dst = append(dst, 0)
		}
		return dst, nil
	}
	var layerBuf [8]float64
	layer := layerBuf[:0]
	for _, lk := range p.layers {
		var v float64
		var err error
		if enc {
			v, err = k.tab.EncodeLayer(n, x, lk.tp, lk.lc)
		} else {
			v, err = k.tab.DecodeLayer(n, x, lk.tp, lk.lc)
		}
		if err != nil {
			return dst, err
		}
		layer = append(layer, v*scale)
	}
	var send [numLinkClasses]float64
	for i, lc := range p.sends {
		v, err := k.tab.PPSend(n, lc)
		if err != nil {
			return dst, err
		}
		send[i] = v
	}
	for _, s := range p.stages {
		dst = append(dst, float64(s.layers)*layer[s.layer]+send[s.send])
	}
	return dst, nil
}

// PipelinePeriod returns the steady-state period of one pass over the
// stage times with m micro-batches in flight: max(Σ t_s, m·max_s t_s).
// With m=1 the pipeline serializes to the traversal (Figure 4(b)); more
// micro-batches overlap stages (Figure 4(c)) at the cost of
// per-micro-batch efficiency.
func PipelinePeriod(times []float64, m int) float64 {
	var sum, max float64
	for _, t := range times {
		sum += t
		if t > max {
			max = t
		}
	}
	return PeriodOf(sum, max, m)
}

// PeriodOf is PipelinePeriod given the stage times' sum (the traversal)
// and maximum.
func PeriodOf(sum, max float64, m int) float64 {
	if m < 1 {
		m = 1
	}
	if p := float64(m) * max; p > sum {
		return p
	}
	return sum
}

// Traversal returns Σ t_s: the time one batch takes through the
// pipeline.
func Traversal(times []float64) float64 {
	var sum float64
	for _, t := range times {
		sum += t
	}
	return sum
}

// Slowest returns the largest stage time (0 for none): the period of a
// pipeline that admits a new batch every slowest stage.
func Slowest(times []float64) float64 {
	var m float64
	for _, t := range times {
		if t > m {
			m = t
		}
	}
	return m
}
