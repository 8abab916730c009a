package profile

import (
	"fmt"

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

// maxFixedLayers bounds the distinct (TP degree, collective link) layer
// lookups a FixedDecode holds inline. A profiled table has at most one
// per profiled TP degree and link class: 8 on 8-GPU nodes.
const maxFixedLayers = 8

// FixedDecode prices the decode iterations of one fixed batch, where
// only the attention context changes from one iteration to the next.
// DecodeFixed resolves everything the batch alone decides: each layer
// lookup's TP row, rest-of-layer and sync times, the handover times,
// and the batch axis of DecAttn. Period then locates the context once,
// for every lookup and both batch rows; on a grid that is not a power
// of two, the search starts from the previous context's segment, a
// cursor that advances as the context grows.
//
// Period(ctx, m) is bit-identical to PipelinePeriod of Decode(batch,
// ctx, scale): both interpolate through the same axisPoint code, in the
// same operation order. A FixedDecode is a per-caller value that
// allocates nothing; its cursor moves, so it is not safe for concurrent
// use. Its mirror image, ContextDecode, fixes the context and lets the
// batch change.
type FixedDecode struct {
	stages     []stageCost
	scale      float64
	nl         int
	layers     [maxFixedLayers]fixedLayer
	send       [numLinkClasses]float64
	ctxGrid    []int
	pow2Ctx    bool
	batch, ctx axisPoint
}

// fixedLayer is one layer lookup at the fixed batch.
type fixedLayer struct {
	rest, sync float64
	rows       [][]float64 // DecAttn at the lookup's TP degree
}

// DecodeFixed returns the pricer for decode iterations of batch
// queries over the stages holding decoding layers, with Decode's scale.
// It fails where Decode would, and on a stage list with more than
// maxFixedLayers distinct layer lookups.
func (k *Stages) DecodeFixed(batch int, scale float64) (FixedDecode, error) {
	if batch == 0 {
		return FixedDecode{}, nil // no stages: every period is 0
	}
	p := &k.dec
	d := FixedDecode{stages: p.stages, scale: scale, ctxGrid: k.tab.CtxGrid, pow2Ctx: k.tab.pow2Ctx}
	if len(p.layers) > maxFixedLayers {
		return FixedDecode{}, fmt.Errorf("profile: %d distinct decode layer lookups, the fixed-batch pricer holds %d", len(p.layers), maxFixedLayers)
	}
	tab := k.tab
	if batch > 0 { // DecodeAttn is 0 below one query: leave the axis empty
		d.batch.locate(tab.BatchGrid, tab.pow2Batch, float64(batch))
	}
	for i, lk := range p.layers {
		rest, err := tab.DecodeRest(batch, lk.tp)
		if err != nil {
			return FixedDecode{}, err
		}
		sync, err := tab.SyncTime(false, batch, lk.tp, lk.lc)
		if err != nil {
			return FixedDecode{}, err
		}
		ti, _ := tab.tpIndex(lk.tp) // DecodeRest found it
		d.layers[i] = fixedLayer{rest: rest, sync: sync, rows: tab.DecAttn[ti]}
	}
	d.nl = len(p.layers)
	for i, lc := range p.sends {
		v, err := tab.PPSend(batch, lc)
		if err != nil {
			return FixedDecode{}, err
		}
		d.send[i] = v
	}
	return d, nil
}

// Period returns the pipeline period of one decode iteration at mean
// attention context ctx with m micro-batches in flight.
func (d *FixedDecode) Period(ctx float64, m int) float64 {
	d.ctx.locate(d.ctxGrid, d.pow2Ctx, ctx)
	var layer [maxFixedLayers]float64
	for i := range d.layers[:d.nl] {
		l := &d.layers[i]
		layer[i] = (l.rest + d.batch.at2(l.rows, &d.ctx) + l.sync) * d.scale
	}
	var sum, max float64
	for _, s := range d.stages {
		t := float64(s.layers)*layer[s.layer] + d.send[s.send]
		sum += t
		if t > max {
			max = t
		}
	}
	return PeriodOf(sum, max, m)
}

// ContextDecode prices decode iterations at one fixed attention
// context, where only the batch changes from one call to the next: the
// mirror image of FixedDecode. DecodeAt resolves everything the context
// alone decides: each layer lookup's TP row, its collective and
// handover links, and DecAttn interpolated along the context axis, one
// value per batch grid point. Iter then locates the batch once, for
// every layer lookup and handover.
//
// Iter(batch) is bit-identical to Traversal and Slowest of
// Decode(batch, ctx, scale): at2 interpolates each DecAttn row with at,
// so interpolating the rows first and the batch axis second is the same
// arithmetic, and the layer and stage sums keep Decode's operation
// order. A ContextDecode is immutable once built and Iter allocates
// nothing.
type ContextDecode struct {
	stages    []stageCost
	scale     float64
	batchGrid []int
	pow2Batch bool
	actBytes  int64
	nl, ns    int
	layers    [maxFixedLayers]ctxLayer
	sends     [numLinkClasses]AlphaBeta
}

// ctxLayer is one layer lookup at the fixed context.
type ctxLayer struct {
	rest, attn []float64 // by batch grid point: DecRest, and DecAttn at the context
	sync       bool      // TP > 1: the layer synchronizes
	syncs      float64   // DecSyncsPerLayer
	allReduce  AlphaBeta
}

// DecodeAt returns the pricer for decode iterations at mean attention
// context ctx over the stages holding decoding layers, with Decode's
// scale. It fails with the error Decode gives at any positive batch,
// and on a stage list with more than maxFixedLayers distinct layer
// lookups.
func (k *Stages) DecodeAt(ctx, scale float64) (ContextDecode, error) {
	p := &k.dec
	if len(p.layers) > maxFixedLayers {
		return ContextDecode{}, fmt.Errorf("profile: %d distinct decode layer lookups, the fixed-context pricer holds %d", len(p.layers), maxFixedLayers)
	}
	tab := k.tab
	d := ContextDecode{stages: p.stages, scale: scale, batchGrid: tab.BatchGrid, pow2Batch: tab.pow2Batch,
		actBytes: tab.ActTokenBytes, nl: len(p.layers), ns: len(p.sends)}
	var c axisPoint
	c.locate(tab.CtxGrid, tab.pow2Ctx, ctx)
	nb := len(tab.BatchGrid)
	attn := make([]float64, len(p.layers)*nb)
	for i, lk := range p.layers {
		ti, err := tab.tpIndex(lk.tp)
		if err != nil {
			return ContextDecode{}, err
		}
		if _, err := tab.SyncTime(false, 0, lk.tp, lk.lc); err != nil {
			return ContextDecode{}, err
		}
		row := attn[i*nb : (i+1)*nb : (i+1)*nb]
		for j, r := range tab.DecAttn[ti] {
			row[j] = c.at(r)
		}
		l := ctxLayer{rest: tab.DecRest[ti], attn: row, sync: lk.tp > 1}
		if l.sync {
			l.syncs, l.allReduce = float64(tab.DecSyncsPerLayer), tab.AllReduce[ti][lk.lc]
		}
		d.layers[i] = l
	}
	for i, lc := range p.sends {
		if _, err := tab.PPSend(0, lc); err != nil {
			return ContextDecode{}, err
		}
		d.sends[i] = tab.P2P[lc]
	}
	return d, nil
}

// Iter returns the traversal (the sum of the stage times) and the
// slowest stage time of one decode iteration of batch queries.
// PeriodOf turns the two into the pipeline period at any micro-batch
// count.
func (d *ContextDecode) Iter(batch int) (traversal, slowest float64) {
	if batch == 0 {
		return 0, 0
	}
	// Decode's lookups give 0 below one query, except a TP sync, which
	// AlphaBeta prices at any byte count.
	var b axisPoint
	if batch > 0 {
		b.locate(d.batchGrid, d.pow2Batch, float64(batch))
	}
	bytes := int64(batch) * d.actBytes
	var layer [maxFixedLayers]float64
	for i := range d.layers[:d.nl] {
		l := &d.layers[i]
		var rest, attn, sync float64
		if batch > 0 {
			rest, attn = b.at(l.rest), b.at(l.attn)
		}
		if l.sync {
			sync = l.syncs * l.allReduce.Time(bytes)
		}
		layer[i] = (rest + attn + sync) * d.scale
	}
	var send [numLinkClasses]float64
	if batch > 0 {
		for i := range d.sends[:d.ns] {
			send[i] = d.sends[i].Time(bytes)
		}
	}
	for _, s := range d.stages {
		t := float64(s.layers)*layer[s.layer] + send[s.send]
		traversal += t
		if t > slowest {
			slowest = t
		}
	}
	return traversal, slowest
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
