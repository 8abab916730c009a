// Package profile implements XProfiler (§3).
//
// For a single encoding and decoding layer the profiler separately
// measures the execution times of the attention kernel and the rest of
// the layer, considering all feasible tensor-parallel degrees. For the
// attention kernel it sweeps batch sizes and, per batch size, sequence
// lengths; for the rest it sweeps input sizes. It also measures the
// synchronization overhead of tensor- and pipeline-parallel execution.
//
// In this reproduction "measuring" samples the analytical cost model
// (internal/costmodel) instead of CUDA kernels; everything downstream
// (XSimulator, XScheduler, XRunner, the baselines) consumes only the
// resulting Table, exactly as in the paper, and prices pipeline stages
// from it through one kernel, Stages. Sampling the cost model is cheap
// (BenchmarkProfilerRun: under 0.1 ms for OPT-13B on the A40 cluster),
// so callers rebuild a Table per process instead of capturing it once
// per model and cluster as the paper's GPU profiler does (§7.7).
package profile

import (
	"fmt"
	"math"

	"exegpt/internal/costmodel"
	"exegpt/internal/hw"
	"exegpt/internal/model"
)

// LinkClass selects which interconnect a communication crosses.
type LinkClass int

// Link classes.
const (
	IntraNode LinkClass = iota // GPUs within one machine
	InterNode                  // GPUs on different machines
	numLinkClasses
)

// AlphaBeta is a fitted latency/inverse-bandwidth communication cost:
// time(bytes) = Alpha + Beta*bytes.
type AlphaBeta struct {
	Alpha float64
	Beta  float64
}

// Time evaluates the model for n bytes.
func (c AlphaBeta) Time(n int64) float64 {
	if n <= 0 && c.Alpha == 0 {
		return 0
	}
	return c.Alpha + c.Beta*float64(n)
}

// Table holds the measured per-layer kernel times and communication
// costs for one model on one cluster's GPU type.
//
// A Table is immutable once built by Profiler.Run: every lookup
// (EncodeLayer, DecodeLayer, PPSend, KVTransfer, ...) only reads the
// grids, so one Table may be shared freely between concurrent
// simulators, schedulers, and runner Engines. Callers that memoize
// Tables must guard the memo itself (see internal/experiments.Context).
type Table struct {
	// TPDegrees lists the profiled tensor-parallel degrees (ascending).
	TPDegrees []int
	// TokenGrid / SeqGrid / BatchGrid / CtxGrid are the sweep points.
	TokenGrid []int
	SeqGrid   []int
	BatchGrid []int
	CtxGrid   []int

	// EncRest[tp][tok]: rest-of-layer encode time.
	EncRest [][]float64
	// EncAttn[tp][tok][seq]: encode attention-kernel time.
	EncAttn [][][]float64
	// DecRest[tp][batch]: rest-of-layer decode time.
	DecRest [][]float64
	// DecAttn[tp][batch][ctx]: decode attention-kernel time; ctx is the
	// combined self+cross attention context per query.
	DecAttn [][][]float64

	// AllReduce[tp][linkClass] is the fitted tensor-parallel
	// synchronization cost per all-reduce of n bytes.
	AllReduce [][]AlphaBeta
	// P2P[linkClass] is the fitted pipeline-parallel handover cost.
	P2P []AlphaBeta
	// HostDMA is the fitted GPU<->host staging cost (KV handover, §3).
	HostDMA AlphaBeta

	// ActTokenBytes is the activation bytes per token (Hidden *
	// BytesPerParam), used to size sync messages.
	ActTokenBytes int64
	// KVTokenBytes is the full-model KV-cache bytes per token.
	KVTokenBytes int64
	// EncSyncsPerLayer/DecSyncsPerLayer: all-reduces per layer (2 and 3).
	EncSyncsPerLayer int
	DecSyncsPerLayer int

	// pow2Token/Seq/Batch/Ctx record whether the corresponding grid is
	// exactly {2^0, 2^1, ...} (geomGrid with a power-of-two maximum),
	// enabling the O(1) exponent-indexed segment lookup. Set by
	// initIndex from Run; the zero value falls back to walking the
	// grid, so hand-built tables stay correct.
	pow2Token, pow2Seq, pow2Batch, pow2Ctx bool
}

// isPow2Grid reports whether grid[i] == 1<<i for every i: the layout
// geomGrid produces when its maximum is a power of two.
func isPow2Grid(grid []int) bool {
	if len(grid) == 0 || len(grid) > 62 {
		return false
	}
	for i, v := range grid {
		if v != 1<<uint(i) {
			return false
		}
	}
	return true
}

// initIndex precomputes the per-grid fast-path flags. It must run
// before the table is shared (Run calls it); lookups on a table
// without the index fall back to walking the grid.
func (t *Table) initIndex() {
	t.pow2Token = isPow2Grid(t.TokenGrid)
	t.pow2Seq = isPow2Grid(t.SeqGrid)
	t.pow2Batch = isPow2Grid(t.BatchGrid)
	t.pow2Ctx = isPow2Grid(t.CtxGrid)
}

// Profiler sweeps a cost-model engine into a Table.
type Profiler struct {
	Engine  *costmodel.Engine
	Cluster hw.Cluster
}

// New returns a Profiler for the model on the cluster's GPU type.
func New(m model.Model, cluster hw.Cluster) (*Profiler, error) {
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	eng, err := costmodel.New(m, cluster.GPU)
	if err != nil {
		return nil, err
	}
	return &Profiler{Engine: eng, Cluster: cluster}, nil
}

// geomGrid returns a roughly geometric integer grid from 1 to max.
func geomGrid(max int) []int {
	var g []int
	for v := 1; v < max; v = growGrid(v) {
		g = append(g, v)
	}
	return append(g, max)
}

func growGrid(v int) int {
	next := v * 2
	if next == v {
		next = v + 1
	}
	return next
}

// feasibleTPs returns the tensor-parallel degrees profiled: powers of
// two up to one node's GPU count.
func (p *Profiler) feasibleTPs() []int {
	var tps []int
	for tp := 1; tp <= p.Cluster.GPUsPerNode; tp *= 2 {
		tps = append(tps, tp)
	}
	return tps
}

// Run performs all sweeps and returns the profile table.
func (p *Profiler) Run() *Table {
	m := p.Engine.Model
	tps := p.feasibleTPs()
	t := &Table{
		TPDegrees: tps,
		TokenGrid: geomGrid(1 << 17),
		SeqGrid:   geomGrid(1 << 12),
		BatchGrid: geomGrid(1 << 12),
		CtxGrid:   geomGrid(1 << 13),

		ActTokenBytes:    int64(m.Hidden) * int64(m.BytesPerParam),
		KVTokenBytes:     m.KVBytesPerToken(),
		EncSyncsPerLayer: 2,
		DecSyncsPerLayer: 3,
	}
	for _, tp := range tps {
		encRest := make([]float64, len(t.TokenGrid))
		encAttn := make([][]float64, len(t.TokenGrid))
		for i, tok := range t.TokenGrid {
			encRest[i] = p.Engine.EncodeRestTime(tok, tp)
			row := make([]float64, len(t.SeqGrid))
			for j, seq := range t.SeqGrid {
				row[j] = p.Engine.EncodeAttnTime(tok, float64(seq), tp)
			}
			encAttn[i] = row
		}
		t.EncRest = append(t.EncRest, encRest)
		t.EncAttn = append(t.EncAttn, encAttn)

		decRest := make([]float64, len(t.BatchGrid))
		decAttn := make([][]float64, len(t.BatchGrid))
		for i, b := range t.BatchGrid {
			decRest[i] = p.Engine.DecodeRestTime(b, tp)
			row := make([]float64, len(t.CtxGrid))
			for j, ctx := range t.CtxGrid {
				row[j] = p.Engine.DecodeAttnTime(b, float64(ctx), 0, tp)
			}
			decAttn[i] = row
		}
		t.DecRest = append(t.DecRest, decRest)
		t.DecAttn = append(t.DecAttn, decAttn)

		// Fit all-reduce alpha/beta per link class from two samples.
		arRow := make([]AlphaBeta, numLinkClasses)
		for lc, link := range p.links() {
			arRow[lc] = fitAlphaBeta(
				func(n int64) float64 { return hw.AllReduceTime(link, tp, n) })
		}
		t.AllReduce = append(t.AllReduce, arRow)
	}
	for _, link := range p.links() {
		t.P2P = append(t.P2P, fitAlphaBeta(
			func(n int64) float64 { return hw.P2PTime(link, n) }))
	}
	t.HostDMA = fitAlphaBeta(func(n int64) float64 { return hw.P2PTime(hw.HostDMA, n) })
	t.initIndex()
	return t
}

func (p *Profiler) links() []hw.Link {
	return []hw.Link{p.Cluster.IntraNode, p.Cluster.InterNode}
}

// fitAlphaBeta samples a communication primitive at two sizes and fits
// the linear alpha/beta model.
func fitAlphaBeta(f func(int64) float64) AlphaBeta {
	const n1, n2 = 1 << 10, 1 << 26
	t1, t2 := f(n1), f(n2)
	beta := (t2 - t1) / float64(n2-n1)
	alpha := t1 - beta*n1
	if alpha < 0 {
		alpha = 0
	}
	return AlphaBeta{Alpha: alpha, Beta: beta}
}

// tpIndex returns the index of the closest profiled TP degree <= tp,
// erroring on degrees below 1.
func (t *Table) tpIndex(tp int) (int, error) {
	for i, d := range t.TPDegrees {
		if d == tp {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile: TP degree %d not profiled (have %v)", tp, t.TPDegrees)
}

// axisMode is how interpolation resolves a point on one grid axis.
type axisMode uint8

const (
	axisEmpty  axisMode = iota // empty grid: 0
	axisFirst                  // at or below the first point, or a one-point grid: clamp
	axisExtrap                 // at or above the last point: extend the last segment
	axisBlend                  // inside segment lo: blend its two points
)

// axisPoint is one grid axis resolved at a point x. lo is the segment
// (axisBlend) or the last one (axisExtrap). A point that is resolved
// again starts its segment search from lo, so it doubles as a cursor.
type axisPoint struct {
	mode    axisMode
	lo      int
	f, omf  float64 // axisBlend: (x-x0)/(x1-x0) and 1-f
	dx, den float64 // axisExtrap: x-x1 and x1-x0
}

// locate resolves a to grid at x. Below the grid it clamps; above it,
// workloads beyond the sweep maximum scale linearly in the roofline
// regime, so it extends the last segment. Inside, it finds lo with
// grid[lo] <= x < grid[lo+1]: a power-of-two grid (grid[i] == 2^i) in
// O(1) from the float exponent (Ilogb is exact, no log rounding), any
// other grid by walking from the previous lo. Both find the same unique
// lo, so the fast path is bit-identical to the walk.
func (a *axisPoint) locate(grid []int, pow2 bool, x float64) {
	last := len(grid) - 1
	switch {
	case last < 0:
		a.mode = axisEmpty
	case x <= float64(grid[0]) || last == 0:
		a.mode = axisFirst
	case x >= float64(grid[last]):
		x0, x1 := float64(grid[last-1]), float64(grid[last])
		a.mode, a.lo, a.dx, a.den = axisExtrap, last-1, x-x1, x1-x0
	default:
		lo := a.lo
		if pow2 {
			lo = math.Ilogb(x)
		} else {
			for float64(grid[lo+1]) <= x {
				lo++
			}
			for float64(grid[lo]) > x {
				lo--
			}
		}
		x0, x1 := float64(grid[lo]), float64(grid[lo+1])
		f := (x - x0) / (x1 - x0)
		a.mode, a.lo, a.f, a.omf = axisBlend, lo, f, 1-f
	}
}

// at linearly interpolates vals at the located point.
func (a *axisPoint) at(vals []float64) float64 {
	switch a.mode {
	case axisFirst:
		return vals[0]
	case axisExtrap:
		return vals[a.lo+1] + (vals[a.lo+1]-vals[a.lo])*a.dx/a.den
	case axisBlend:
		return vals[a.lo]*a.omf + vals[a.lo+1]*a.f
	}
	return 0
}

// at2 bilinearly interpolates rows, a [outer][inner] table, with a
// located on the outer axis and inner on the rows' axis. Only the one
// or two rows the outer axis touches are interpolated, so the lookup is
// allocation-free, and each row is interpolated exactly as at would.
func (a *axisPoint) at2(rows [][]float64, inner *axisPoint) float64 {
	switch a.mode {
	case axisFirst:
		return inner.at(rows[0])
	case axisExtrap:
		vLast, vPrev := inner.at(rows[a.lo+1]), inner.at(rows[a.lo])
		return vLast + (vLast-vPrev)*a.dx/a.den
	case axisBlend:
		return inner.at(rows[a.lo])*a.omf + inner.at(rows[a.lo+1])*a.f
	}
	return 0
}

// interp1 linearly interpolates vals over the integer grid at x.
func interp1(grid []int, pow2 bool, vals []float64, x float64) float64 {
	var a axisPoint
	a.locate(grid, pow2, x)
	return a.at(vals)
}

// interp2 bilinearly interpolates a [len(g1)][len(g2)] table at (x, y).
func interp2(g1, g2 []int, p1, p2 bool, vals [][]float64, x, y float64) float64 {
	var a, b axisPoint
	a.locate(g1, p1, x)
	b.locate(g2, p2, y)
	return a.at2(vals, &b)
}

// EncodeRest returns the rest-of-layer encode time for totalTokens.
func (t *Table) EncodeRest(totalTokens int, tp int) (float64, error) {
	i, err := t.tpIndex(tp)
	if err != nil {
		return 0, err
	}
	if totalTokens <= 0 {
		return 0, nil
	}
	return interp1(t.TokenGrid, t.pow2Token, t.EncRest[i], float64(totalTokens)), nil
}

// EncodeAttn returns the encode attention time.
func (t *Table) EncodeAttn(totalTokens int, meanSeq float64, tp int) (float64, error) {
	i, err := t.tpIndex(tp)
	if err != nil {
		return 0, err
	}
	if totalTokens <= 0 {
		return 0, nil
	}
	return interp2(t.TokenGrid, t.SeqGrid, t.pow2Token, t.pow2Seq, t.EncAttn[i], float64(totalTokens), meanSeq), nil
}

// DecodeRest returns the rest-of-layer decode time for one iteration.
func (t *Table) DecodeRest(batch int, tp int) (float64, error) {
	i, err := t.tpIndex(tp)
	if err != nil {
		return 0, err
	}
	if batch <= 0 {
		return 0, nil
	}
	return interp1(t.BatchGrid, t.pow2Batch, t.DecRest[i], float64(batch)), nil
}

// DecodeAttn returns the decode attention time; ctx is the combined
// self+cross context length per query.
func (t *Table) DecodeAttn(batch int, ctx float64, tp int) (float64, error) {
	i, err := t.tpIndex(tp)
	if err != nil {
		return 0, err
	}
	if batch <= 0 {
		return 0, nil
	}
	return interp2(t.BatchGrid, t.CtxGrid, t.pow2Batch, t.pow2Ctx, t.DecAttn[i], float64(batch), ctx), nil
}

// SyncTime returns the tensor-parallel synchronization time for one
// layer of the given kind processing totalTokens tokens.
func (t *Table) SyncTime(encoder bool, totalTokens, tp int, lc LinkClass) (float64, error) {
	if tp <= 1 {
		return 0, nil
	}
	i, err := t.tpIndex(tp)
	if err != nil {
		return 0, err
	}
	if lc < 0 || int(lc) >= len(t.AllReduce[i]) {
		return 0, fmt.Errorf("profile: bad link class %d", lc)
	}
	syncs := t.EncSyncsPerLayer
	if !encoder {
		syncs = t.DecSyncsPerLayer
	}
	bytes := int64(totalTokens) * t.ActTokenBytes
	return float64(syncs) * t.AllReduce[i][lc].Time(bytes), nil
}

// EncodeLayer returns the full per-layer encode time including sync.
func (t *Table) EncodeLayer(totalTokens int, meanSeq float64, tp int, lc LinkClass) (float64, error) {
	rest, err := t.EncodeRest(totalTokens, tp)
	if err != nil {
		return 0, err
	}
	attn, err := t.EncodeAttn(totalTokens, meanSeq, tp)
	if err != nil {
		return 0, err
	}
	sync, err := t.SyncTime(true, totalTokens, tp, lc)
	if err != nil {
		return 0, err
	}
	return rest + attn + sync, nil
}

// DecodeLayer returns the full per-layer decode-iteration time
// including sync.
func (t *Table) DecodeLayer(batch int, ctx float64, tp int, lc LinkClass) (float64, error) {
	rest, err := t.DecodeRest(batch, tp)
	if err != nil {
		return 0, err
	}
	attn, err := t.DecodeAttn(batch, ctx, tp)
	if err != nil {
		return 0, err
	}
	sync, err := t.SyncTime(false, batch, tp, lc)
	if err != nil {
		return 0, err
	}
	return rest + attn + sync, nil
}

// PPSend returns the pipeline handover time for totalTokens activations.
func (t *Table) PPSend(totalTokens int, lc LinkClass) (float64, error) {
	if lc < 0 || int(lc) >= len(t.P2P) {
		return 0, fmt.Errorf("profile: bad link class %d", lc)
	}
	if totalTokens <= 0 {
		return 0, nil
	}
	return t.P2P[lc].Time(int64(totalTokens) * t.ActTokenBytes), nil
}

// KVTransfer returns the encoder→decoder KV handover time for tokens
// prompt tokens, staged through host memory (two DMA hops).
func (t *Table) KVTransfer(tokens int) float64 {
	if tokens <= 0 {
		return 0
	}
	return 2 * t.HostDMA.Time(int64(tokens)*t.KVTokenBytes)
}

// Validate checks everything a lookup relies on, so that a table that
// passes answers every lookup at every profiled TP degree without
// panicking:
//   - TPDegrees and every sweep grid are non-empty, positive and
//     strictly ascending (a repeated grid point would divide by zero
//     in interp1);
//   - every kernel-time slice has its grid's shape at every TP degree,
//     and the communication fits cover every link class;
//   - every value is finite and non-negative.
func (t *Table) Validate() error {
	if err := checkGrid("TP degrees", t.TPDegrees); err != nil {
		return err
	}
	for _, g := range []struct {
		name string
		grid []int
	}{{"token grid", t.TokenGrid}, {"seq grid", t.SeqGrid}, {"batch grid", t.BatchGrid}, {"ctx grid", t.CtxGrid}} {
		if err := checkGrid(g.name, g.grid); err != nil {
			return err
		}
	}
	n := len(t.TPDegrees)
	if len(t.EncRest) != n || len(t.EncAttn) != n ||
		len(t.DecRest) != n || len(t.DecAttn) != n ||
		len(t.AllReduce) != n {
		return fmt.Errorf("profile: table rows do not match TP degrees")
	}
	for i := range t.TPDegrees {
		if err := checkKernel("encode", t.EncRest[i], t.EncAttn[i], len(t.TokenGrid), len(t.SeqGrid)); err != nil {
			return fmt.Errorf("%w at tp index %d", err, i)
		}
		if err := checkKernel("decode", t.DecRest[i], t.DecAttn[i], len(t.BatchGrid), len(t.CtxGrid)); err != nil {
			return fmt.Errorf("%w at tp index %d", err, i)
		}
		if err := checkFits("all-reduce", t.AllReduce[i], int(numLinkClasses)); err != nil {
			return fmt.Errorf("%w at tp index %d", err, i)
		}
	}
	if err := checkFits("p2p", t.P2P, int(numLinkClasses)); err != nil {
		return err
	}
	if err := checkFits("host DMA", []AlphaBeta{t.HostDMA}, 1); err != nil {
		return err
	}
	if t.ActTokenBytes < 0 || t.KVTokenBytes < 0 || t.EncSyncsPerLayer < 0 || t.DecSyncsPerLayer < 0 {
		return fmt.Errorf("profile: negative token size or sync count")
	}
	return nil
}

// checkGrid requires a non-empty, positive, strictly ascending grid.
func checkGrid(name string, grid []int) error {
	if len(grid) == 0 {
		return fmt.Errorf("profile: empty %s", name)
	}
	prev := 0
	for _, v := range grid {
		if v <= prev {
			return fmt.Errorf("profile: %s %v is not positive and strictly ascending", name, grid)
		}
		prev = v
	}
	return nil
}

// checkKernel requires one rest time per outer grid point and one
// attention row of inner points per outer grid point, every time valid.
func checkKernel(name string, rest []float64, attn [][]float64, outer, inner int) error {
	if len(rest) != outer || len(attn) != outer {
		return fmt.Errorf("profile: %s has %d rest points and %d attention rows, want %d of each", name, len(rest), len(attn), outer)
	}
	if err := checkTimes(name, rest); err != nil {
		return err
	}
	for _, row := range attn {
		if len(row) != inner {
			return fmt.Errorf("profile: %s attention row has %d points, want %d", name, len(row), inner)
		}
		if err := checkTimes(name, row); err != nil {
			return err
		}
	}
	return nil
}

// checkTimes requires every value to be a valid time.
func checkTimes(name string, vals []float64) error {
	for _, v := range vals {
		if !validTime(v) {
			return fmt.Errorf("profile: invalid %s time %v", name, v)
		}
	}
	return nil
}

// checkFits requires want finite, non-negative communication fits.
func checkFits(name string, fits []AlphaBeta, want int) error {
	if len(fits) != want {
		return fmt.Errorf("profile: %s has %d fits, want %d", name, len(fits), want)
	}
	for _, f := range fits {
		if !validTime(f.Alpha) || !validTime(f.Beta) {
			return fmt.Errorf("profile: invalid %s fit %+v", name, f)
		}
	}
	return nil
}

// validTime reports whether v is finite and non-negative (NaN fails
// both comparisons).
func validTime(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }
