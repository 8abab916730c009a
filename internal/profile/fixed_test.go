package profile

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"exegpt/internal/hw"
	"exegpt/internal/sched"
)

// fixedCase is one stage list a FixedDecode is checked on.
type fixedCase struct {
	name    string
	tab     *Table
	cluster hw.Cluster
	stages  []sched.Stage
}

// handBuiltTable is a small table whose grids are not powers of two, so
// every lookup walks the grid from the cursor: TP degrees 1 and
// 2, a batch grid starting at 4, and a context grid starting at 3.
func handBuiltTable(t testing.TB) *Table {
	t.Helper()
	tab := &Table{
		TPDegrees: []int{1, 2},
		TokenGrid: []int{1, 10},
		SeqGrid:   []int{1, 10},
		BatchGrid: []int{4, 12, 40, 100},
		CtxGrid:   []int{3, 10, 50, 300, 1000},
		AllReduce: [][]AlphaBeta{
			{{Alpha: 1e-5, Beta: 1e-10}, {Alpha: 3e-5, Beta: 4e-10}},
			{{Alpha: 2e-5, Beta: 2e-10}, {Alpha: 5e-5, Beta: 7e-10}},
		},
		P2P:              []AlphaBeta{{Alpha: 1e-5, Beta: 1e-10}, {Alpha: 4e-5, Beta: 5e-10}},
		ActTokenBytes:    10240,
		KVTokenBytes:     1 << 20,
		EncSyncsPerLayer: 2,
		DecSyncsPerLayer: 3,
	}
	for i, tp := range tab.TPDegrees {
		d := float64(tp)
		tab.EncRest = append(tab.EncRest, []float64{1e-4 / d, 9e-4 / d})
		tab.EncAttn = append(tab.EncAttn, [][]float64{{1e-5, 3e-5}, {2e-5, 7e-5}})
		rest := make([]float64, len(tab.BatchGrid))
		attn := make([][]float64, len(tab.BatchGrid))
		for j, b := range tab.BatchGrid {
			rest[j] = (3e-4 + 1.7e-6*float64(b)) / d
			row := make([]float64, len(tab.CtxGrid))
			for k, c := range tab.CtxGrid {
				// Not separable and not linear, so the blends matter.
				row[k] = (2e-6*float64(b)*math.Sqrt(float64(c)) + 1e-5*float64(i+k)) / d
			}
			attn[j] = row
		}
		tab.DecRest = append(tab.DecRest, rest)
		tab.DecAttn = append(tab.DecAttn, attn)
	}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	tab.initIndex()
	if tab.pow2Batch || tab.pow2Ctx {
		t.Fatal("hand-built grids should not take the power-of-two path")
	}
	return tab
}

// handBuiltCase mixes TP 2 and TP 1 decode stages: two layer lookups.
func handBuiltCase(t testing.TB) fixedCase {
	t.Helper()
	c, err := hw.A40Cluster.Sub(4)
	if err != nil {
		t.Fatal(err)
	}
	return fixedCase{name: "hand-built", tab: handBuiltTable(t), cluster: c, stages: []sched.Stage{
		{FirstRank: 0, TP: 2, DecLayers: 3},
		{FirstRank: 2, TP: 1, DecLayers: 5},
		{FirstRank: 3, TP: 1, EncLayers: 2, DecLayers: 2},
	}}
}

// deploymentCases covers the table of every Table 2 deployment: FT's
// stage list, the RRA allocation at TP 1 and at the widest TP spec, and
// one dedicated-pool split.
func deploymentCases(t *testing.T) []fixedCase {
	t.Helper()
	tables := map[string]*Table{}
	var out []fixedCase
	for _, d := range sched.DefaultDeployments {
		c, err := d.SubCluster()
		if err != nil {
			t.Fatal(err)
		}
		key := d.Model.Name + "/" + c.GPU.Name
		tab := tables[key]
		if tab == nil {
			tab = table(t, d.Model, c)
			tables[key] = tab
		}
		n := c.TotalGPUs()
		name := fmt.Sprintf("%s/%dx%s", d.Model.Name, n, c.GPU.Name)
		out = append(out, fixedCase{name + " FT", tab, c, ftStages(t, d.Model, c, tab)})
		specs := tpSpecs(tab, n)
		for _, tp := range []sched.TPSpec{specs[0], specs[len(specs)-1]} {
			alloc, err := sched.AllocateRRA(d.Model, c, tp)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fixedCase{fmt.Sprintf("%s RRA %+v", name, tp), tab, c, alloc.Stages})
		}
		alloc, err := sched.AllocateWAA(d.Model, c, sched.WAAC, n/4, n-n/4, sched.TPSpec{Degree: 1})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fixedCase{name + " WAA", tab, c, alloc.Stages})
	}
	return out
}

// gridBatches returns batches below, on, between and above grid.
func gridBatches(grid []int) []int {
	out := []int{0, -3}
	for b := 1; b < grid[0]; b++ {
		out = append(out, b)
	}
	for i, g := range grid {
		out = append(out, g)
		if i+1 < len(grid) && grid[i+1]-g > 1 {
			out = append(out, g+1, (g+grid[i+1])/2)
		}
	}
	last := grid[len(grid)-1]
	return append(out, last+1, last+last/3, 3*last)
}

// ctxWalks returns context sequences over grid: every grid point and
// midpoint from below the first point to past the last, rising and then
// falling (the cursor moves backwards), and a unit-step walk across
// segment boundaries, as an iteration loop makes.
func ctxWalks(grid []int) [][]float64 {
	var rising []float64
	rising = append(rising, float64(grid[0])/4, float64(grid[0])-0.5)
	for i, g := range grid {
		rising = append(rising, float64(g))
		if i+1 < len(grid) {
			rising = append(rising, float64(g)+0.25, float64(g+grid[i+1])/2+0.125)
		}
	}
	last := float64(grid[len(grid)-1])
	rising = append(rising, last+0.5, last*1.5, last*4)
	sort.Float64s(rising)
	falling := make([]float64, len(rising))
	for i, x := range rising {
		falling[len(rising)-1-i] = x
	}
	var unit []float64
	for x := 0.6; x < 2*float64(grid[len(grid)/2])+10; x++ {
		unit = append(unit, x)
	}
	return [][]float64{rising, falling, unit}
}

// checkFixedMatchesDecode requires Period to equal PipelinePeriod of
// Decode bit for bit along every context walk, for every batch, scale
// (1, DSI's small-batch 0.92, ORCA/vLLM's 1.3) and micro-batch count.
func checkFixedMatchesDecode(t *testing.T, c fixedCase) {
	t.Helper()
	k := NewStages(c.tab, c.cluster, c.stages)
	var buf []float64
	walks := ctxWalks(c.tab.CtxGrid)
	for _, b := range gridBatches(c.tab.BatchGrid) {
		for _, scale := range []float64{1, 0.92, 1.3} {
			d, err := k.DecodeFixed(b, scale)
			_, werr := k.Decode(buf, b, 1, scale)
			if (err != nil) != (werr != nil) {
				t.Fatalf("%s batch %d: DecodeFixed error %v, Decode error %v", c.name, b, err, werr)
			}
			if err != nil {
				continue
			}
			for _, walk := range walks {
				for i, ctx := range walk {
					m := 1 + i%3
					buf, err = k.Decode(buf, b, ctx, scale)
					if err != nil {
						t.Fatal(err)
					}
					want := PipelinePeriod(buf, m)
					if got := d.Period(ctx, m); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s batch %d scale %v ctx %v m %d: Period %v, PipelinePeriod(Decode) %v",
							c.name, b, scale, ctx, m, got, want)
					}
				}
			}
		}
	}
}

// TestDecodeFixedMatchesDecode holds the fixed-batch pricer to the
// stage kernel on every Table 2 deployment's table and on a hand-built
// table with non-power-of-two grids.
func TestDecodeFixedMatchesDecode(t *testing.T) {
	for _, c := range append(deploymentCases(t), handBuiltCase(t)) {
		checkFixedMatchesDecode(t, c)
	}
}

// TestDecodeFixedAllocs: building a pricer and pricing an iteration
// allocate nothing.
func TestDecodeFixedAllocs(t *testing.T) {
	c := handBuiltCase(t)
	k := NewStages(c.tab, c.cluster, c.stages)
	ctx := 1.0
	allocs := testing.AllocsPerRun(100, func() {
		d, err := k.DecodeFixed(37, 0.92)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			_ = d.Period(ctx+float64(i), 2)
		}
		ctx += 7
	})
	if allocs != 0 {
		t.Fatalf("DecodeFixed and Period allocate %v times, want 0", allocs)
	}
}

// TestDecodeFixedErrors: the pricer fails where Decode fails (an
// unprofiled TP degree), succeeds at batch 0 where Decode gives zeros,
// and refuses a stage list with more distinct layer lookups than it
// holds.
func TestDecodeFixedErrors(t *testing.T) {
	c := handBuiltCase(t)
	bad := NewStages(c.tab, c.cluster, []sched.Stage{{FirstRank: 0, TP: 3, DecLayers: 1}})
	if _, err := bad.DecodeFixed(8, 1); err == nil {
		t.Fatal("unprofiled TP degree priced without error")
	}
	d, err := bad.DecodeFixed(0, 1)
	if err != nil || d.Period(100, 2) != 0 {
		t.Fatalf("zero batch on unprofiled TP = %v, %v, want 0", d.Period(100, 2), err)
	}
	tab := *c.tab
	tab.TPDegrees = []int{1, 2, 3, 4, 5}
	var many []sched.Stage
	for i, tp := range tab.TPDegrees {
		for _, cross := range []bool{false, true} {
			many = append(many, sched.Stage{FirstRank: i, TP: tp, CrossNode: cross, DecLayers: 1})
		}
	}
	if _, err := NewStages(&tab, c.cluster, many).DecodeFixed(8, 1); err == nil {
		t.Fatalf("%d distinct layer lookups priced without error", len(many))
	}
}

// checkContextMatchesDecode requires Iter to equal Traversal and
// Slowest of Decode bit for bit at every batch, for contexts below,
// inside and above the grid (every point of ctxWalks' rising walk) and
// every scale checkFixedMatchesDecode uses.
func checkContextMatchesDecode(t *testing.T, c fixedCase) {
	t.Helper()
	k := NewStages(c.tab, c.cluster, c.stages)
	var buf []float64
	for _, ctx := range ctxWalks(c.tab.CtxGrid)[0] {
		for _, scale := range []float64{1, 0.92, 1.3} {
			d, err := k.DecodeAt(ctx, scale)
			if err != nil {
				t.Fatalf("%s ctx %v: %v", c.name, ctx, err)
			}
			for _, b := range gridBatches(c.tab.BatchGrid) {
				buf, err = k.Decode(buf, b, ctx, scale)
				if err != nil {
					t.Fatal(err)
				}
				checkIter(t, c.name, &d, b, ctx, scale, buf)
			}
		}
	}
}

// checkIter fails unless d.Iter(batch) equals Traversal and Slowest of
// times, Decode's stage times at the same batch, bit for bit.
func checkIter(t *testing.T, name string, d *ContextDecode, batch int, ctx, scale float64, times []float64) {
	t.Helper()
	sum, max := d.Iter(batch)
	wantSum, wantMax := Traversal(times), Slowest(times)
	if math.Float64bits(sum) != math.Float64bits(wantSum) || math.Float64bits(max) != math.Float64bits(wantMax) {
		t.Fatalf("%s batch %d scale %v ctx %v: Iter (%v, %v), Decode's traversal and slowest stage (%v, %v)",
			name, batch, scale, ctx, sum, max, wantSum, wantMax)
	}
}

// TestDecodeAtMatchesDecode holds the fixed-context pricer to the stage
// kernel on the same tables and stage lists as the fixed-batch pricer.
func TestDecodeAtMatchesDecode(t *testing.T) {
	for _, c := range append(deploymentCases(t), handBuiltCase(t)) {
		checkContextMatchesDecode(t, c)
	}
}

// TestDecodeAtAllocs: pricing an iteration allocates nothing.
func TestDecodeAtAllocs(t *testing.T) {
	c := handBuiltCase(t)
	d, err := NewStages(c.tab, c.cluster, c.stages).DecodeAt(77.5, 0.92)
	if err != nil {
		t.Fatal(err)
	}
	batch := 1
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			_, _ = d.Iter(batch + i)
		}
		batch += 7
	})
	if allocs != 0 {
		t.Fatalf("Iter allocates %v times, want 0", allocs)
	}
}

// TestDecodeAtErrors: the pricer fails with Decode's error on an
// unprofiled TP degree, and refuses a stage list with more distinct
// layer lookups than it holds.
func TestDecodeAtErrors(t *testing.T) {
	c := handBuiltCase(t)
	bad := NewStages(c.tab, c.cluster, []sched.Stage{{FirstRank: 0, TP: 3, DecLayers: 1}})
	_, err := bad.DecodeAt(100, 1)
	_, werr := bad.Decode(nil, 8, 100, 1)
	if err == nil || werr == nil || err.Error() != werr.Error() {
		t.Fatalf("unprofiled TP degree: DecodeAt error %v, Decode error %v", err, werr)
	}
	tab := *c.tab
	tab.TPDegrees = []int{1, 2, 3, 4, 5}
	var many []sched.Stage
	for i, tp := range tab.TPDegrees {
		for _, cross := range []bool{false, true} {
			many = append(many, sched.Stage{FirstRank: i, TP: tp, CrossNode: cross, DecLayers: 1})
		}
	}
	if _, err := NewStages(&tab, c.cluster, many).DecodeAt(100, 1); err == nil {
		t.Fatalf("%d distinct layer lookups priced without error", len(many))
	}
}

// fuzzFixedCases are the stage lists FuzzDecodeFixedMatchesDecode
// draws from: FT's and the TP-1 RRA allocation's on OPT-13B/4xA40 and
// GPT-3-39B/16xA40, and the hand-built case.
func fuzzFixedCases(f *testing.F) []fixedCase {
	var out []fixedCase
	for _, d := range []sched.Deployment{sched.DefaultDeployments[1], sched.DefaultDeployments[2]} {
		c, err := d.SubCluster()
		if err != nil {
			f.Fatal(err)
		}
		p, err := New(d.Model, c)
		if err != nil {
			f.Fatal(err)
		}
		tab := p.Run()
		rra, err := sched.AllocateRRA(d.Model, c, sched.TPSpec{Degree: 1})
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, fixedCase{d.Model.Name + " FT", tab, c, ftStages(f, d.Model, c, tab)},
			fixedCase{d.Model.Name + " RRA", tab, c, rra.Stages})
	}
	return append(out, handBuiltCase(f))
}

// FuzzDecodeFixedMatchesDecode: along any context walk (start, step,
// length), at any batch, scale and micro-batch count, Period equals
// PipelinePeriod of Decode bit for bit, and the fixed-context pricer
// built at each context of the walk prices the batch as Decode does.
func FuzzDecodeFixedMatchesDecode(f *testing.F) {
	f.Add(uint8(0), 48, 250.5, 1.0, uint8(40), 1.0, uint8(2))
	f.Add(uint8(2), 600, 9000.0, -300.0, uint8(60), 0.92, uint8(1))
	f.Add(uint8(4), 7, 0.5, 13.7, uint8(90), 1.3, uint8(4))
	f.Add(uint8(4), 1, 2000.0, -25.0, uint8(90), 1.0, uint8(0))
	cases := fuzzFixedCases(f)
	f.Fuzz(func(t *testing.T, which uint8, batch int, ctx0, step float64, n uint8, scale float64, m uint8) {
		c := cases[int(which)%len(cases)]
		batch %= 1 << 15
		k := NewStages(c.tab, c.cluster, c.stages)
		d, err := k.DecodeFixed(batch, scale)
		buf, werr := k.Decode(nil, batch, 1, scale)
		if (err != nil) != (werr != nil) {
			t.Fatalf("%s batch %d: DecodeFixed error %v, Decode error %v", c.name, batch, err, werr)
		}
		if err != nil {
			return
		}
		for i := 0; i <= int(n); i++ {
			ctx := ctx0 + float64(i)*step
			if math.IsNaN(ctx) {
				return
			}
			buf, err = k.Decode(buf, batch, ctx, scale)
			if err != nil {
				t.Fatal(err)
			}
			want := PipelinePeriod(buf, int(m))
			if got := d.Period(ctx, int(m)); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s batch %d scale %v ctx %v m %d: Period %v, PipelinePeriod(Decode) %v",
					c.name, batch, scale, ctx, m, got, want)
			}
			dc, err := k.DecodeAt(ctx, scale)
			if err != nil {
				t.Fatal(err)
			}
			checkIter(t, c.name, &dc, batch, ctx, scale, buf)
		}
	})
}

// BenchmarkDecodePricers times one decode iteration priced three ways
// on GPT-3-39B/16xA40's TP-1 RRA allocation: the stage kernel's Decode
// and PipelinePeriod (walking the batch at a fixed context), the
// fixed-batch pricer's Period (walking the context) and the
// fixed-context pricer's Iter and PeriodOf (walking the batch).
func BenchmarkDecodePricers(b *testing.B) {
	d := sched.DefaultDeployments[2]
	c, err := d.SubCluster()
	if err != nil {
		b.Fatal(err)
	}
	p, err := New(d.Model, c)
	if err != nil {
		b.Fatal(err)
	}
	tab := p.Run()
	alloc, err := sched.AllocateRRA(d.Model, c, sched.TPSpec{Degree: 1})
	if err != nil {
		b.Fatal(err)
	}
	k := NewStages(tab, c, alloc.Stages)
	const ctx, batches, m = 611.5, 256, 4
	var sink float64
	b.Run("Decode", func(b *testing.B) {
		var buf []float64
		for i := 0; i < b.N; i++ {
			buf, err = k.Decode(buf, 1+i%batches, ctx, 1)
			if err != nil {
				b.Fatal(err)
			}
			sink += PipelinePeriod(buf, m)
		}
	})
	b.Run("DecodeFixed", func(b *testing.B) {
		f, err := k.DecodeFixed(batches/2, 1)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			sink += f.Period(ctx+float64(i%batches), m)
		}
	})
	b.Run("DecodeAt", func(b *testing.B) {
		at, err := k.DecodeAt(ctx, 1)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			sum, max := at.Iter(1 + i%batches)
			sink += PeriodOf(sum, max, m)
		}
	})
	if math.IsNaN(sink) {
		b.Fatal("NaN period")
	}
}
