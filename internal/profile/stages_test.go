package profile

import (
	"fmt"
	"math"
	"testing"

	"exegpt/internal/hw"
	"exegpt/internal/model"
	"exegpt/internal/sched"
)

// handover is the link from a stage's last rank to the next rank,
// wrapping around the cluster.
func handover(c hw.Cluster, st sched.Stage) LinkClass {
	last := st.FirstRank + st.TP - 1
	if c.NodeOf(last) != c.NodeOf((last+1)%c.TotalGPUs()) {
		return InterNode
	}
	return IntraNode
}

func collective(st sched.Stage) LinkClass {
	if st.CrossNode {
		return InterNode
	}
	return IntraNode
}

// refStageTimes is the stage-time formula written out per stage, one
// lookup each: layers·(layer·scale) + send over the stages holding
// layers of the phase, zeros for a zero count.
func refStageTimes(tab *Table, c hw.Cluster, stages []sched.Stage, enc bool, n int, x, scale float64) ([]float64, error) {
	var out []float64
	for _, st := range stages {
		layers := st.DecLayers
		if enc {
			layers = st.EncLayers
		}
		if layers == 0 {
			continue
		}
		if n == 0 {
			out = append(out, 0)
			continue
		}
		var layer float64
		var err error
		if enc {
			layer, err = tab.EncodeLayer(n, x, st.TP, collective(st))
		} else {
			layer, err = tab.DecodeLayer(n, x, st.TP, collective(st))
		}
		if err != nil {
			return nil, err
		}
		layer *= scale
		send, err := tab.PPSend(n, handover(c, st))
		if err != nil {
			return nil, err
		}
		out = append(out, float64(layers)*layer+send)
	}
	return out, nil
}

// tpSpecs enumerates every partial-TP spec of an n-GPU deployment the
// scheduler searches: degree 1, plus every multiple of each profiled
// degree up to n.
func tpSpecs(tab *Table, n int) []sched.TPSpec {
	specs := []sched.TPSpec{{Degree: 1}}
	for _, d := range tab.TPDegrees {
		for g := d; d > 1 && g <= n; g += d {
			specs = append(specs, sched.TPSpec{Degree: d, GPUs: g})
		}
	}
	return specs
}

// ftStages is FasterTransformer's stage list: TP at the largest
// profiled degree within one node, pipelined over the whole groups.
func ftStages(t testing.TB, m model.Model, c hw.Cluster, tab *Table) []sched.Stage {
	t.Helper()
	n, tp := c.TotalGPUs(), 1
	for _, d := range tab.TPDegrees {
		if d <= c.GPUsPerNode && d <= n && d > tp {
			tp = d
		}
	}
	alloc, err := sched.AllocateRRA(m, c, sched.TPSpec{Degree: tp, GPUs: n / tp * tp})
	if err != nil {
		t.Fatal(err)
	}
	return alloc.Stages
}

// checkBitEqual compares one kernel fill against the per-stage formula
// over a ladder of counts, contexts and layer scales.
func checkBitEqual(t *testing.T, name string, tab *Table, c hw.Cluster, stages []sched.Stage) {
	t.Helper()
	k := NewStages(tab, c, stages)
	var buf []float64
	for _, enc := range []bool{true, false} {
		for _, n := range []int{0, 1, 3, 64, 100, 1000, 4097, 1<<17 + 5} {
			for _, x := range []float64{1, 37.5, 9000} {
				for _, scale := range []float64{1, 1.3} {
					want, werr := refStageTimes(tab, c, stages, enc, n, x, scale)
					var err error
					if enc {
						buf, err = k.Encode(buf, n, x, scale)
					} else {
						buf, err = k.Decode(buf, n, x, scale)
					}
					if (err != nil) != (werr != nil) {
						t.Fatalf("%s enc=%v n=%d: error %v, per-stage %v", name, enc, n, err, werr)
					}
					if err != nil {
						continue
					}
					if len(buf) != len(want) {
						t.Fatalf("%s enc=%v n=%d: %d times, per-stage %d", name, enc, n, len(buf), len(want))
					}
					for i := range want {
						if math.Float64bits(buf[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s enc=%v n=%d x=%v scale=%v stage %d: %v, per-stage %v",
								name, enc, n, x, scale, i, buf[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestStagesMatchPerStageFormula: on every Table 2 deployment, the
// kernel is bit-equal to the per-stage formula for the RRA allocation
// at every TP spec, the dedicated-pool allocation at every
// encoder/decoder split and TP spec (the WAA-C and WAA-M splits among
// them; the policy does not change the stage list), and FT's stage
// list.
func TestStagesMatchPerStageFormula(t *testing.T) {
	tables := map[string]*Table{}
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
		checkBitEqual(t, name+" FT", tab, c, ftStages(t, d.Model, c, tab))
		for _, tp := range tpSpecs(tab, n) {
			alloc, err := sched.AllocateRRA(d.Model, c, tp)
			if err != nil {
				t.Fatal(err)
			}
			checkBitEqual(t, fmt.Sprintf("%s RRA %+v", name, tp), tab, c, alloc.Stages)
			for encGPUs := 1; encGPUs < n; encGPUs++ {
				if tp.Validate(n-encGPUs) != nil {
					continue
				}
				alloc, err := sched.AllocateWAA(d.Model, c, sched.WAAC, encGPUs, n-encGPUs, tp)
				if err != nil {
					t.Fatal(err)
				}
				checkBitEqual(t, fmt.Sprintf("%s WAA %d+%d %+v", name, encGPUs, n-encGPUs, tp), tab, c, alloc.Stages)
			}
		}
	}
}

// TestStagesRules pins the kernel's three rules on a hand-built list:
// a stage without layers of a phase is left out of it, a zero count
// gives zeros, and the scale multiplies the layer term before the
// handover is added. An unprofiled TP degree is an error.
func TestStagesRules(t *testing.T) {
	c, err := hw.A40Cluster.Sub(4)
	if err != nil {
		t.Fatal(err)
	}
	tab := table(t, model.OPT13B, c)
	stages := []sched.Stage{
		{FirstRank: 0, TP: 2, EncLayers: 3},
		{FirstRank: 2, TP: 1, DecLayers: 5},
		{FirstRank: 3, TP: 1, EncLayers: 1, DecLayers: 2},
	}
	k := NewStages(tab, c, stages)
	enc, err := k.Encode(nil, 64, 32, 1)
	if err != nil || len(enc) != 2 {
		t.Fatalf("encode over two encoding stages = %v, %v", enc, err)
	}
	dec, err := k.Decode(nil, 8, 100, 1)
	if err != nil || len(dec) != 2 {
		t.Fatalf("decode over two decoding stages = %v, %v", dec, err)
	}
	zero, err := k.Decode(dec, 0, 100, 1)
	if err != nil || len(zero) != 2 || zero[0] != 0 || zero[1] != 0 {
		t.Fatalf("zero batch = %v, %v, want two zeros", zero, err)
	}
	layer, _ := tab.DecodeLayer(8, 100, 1, IntraNode)
	send, _ := tab.PPSend(8, IntraNode)
	scaled, err := k.Decode(nil, 8, 100, 1.3)
	if want := 5*(layer*1.3) + send; err != nil || scaled[0] != want {
		t.Fatalf("scaled stage time = %v, %v, want %v", scaled[0], err, want)
	}

	bad := NewStages(tab, c, []sched.Stage{{FirstRank: 0, TP: 3, DecLayers: 1}})
	if _, err := bad.Decode(nil, 8, 100, 1); err == nil {
		t.Fatal("unprofiled TP degree priced without error")
	}
	if got, err := bad.Decode(nil, 0, 100, 1); err != nil || len(got) != 1 || got[0] != 0 {
		t.Fatalf("zero batch on unprofiled TP = %v, %v, want one zero", got, err)
	}
}

// checkLookups asserts that one phase of a kernel over stages dedupes
// its lookups exactly: the layer lookups and handover links are
// distinct, and every stage holding layers of the phase, in order, maps
// to its own layer count, (TP, collective link) and handover link. Two
// stages therefore share a lookup iff they agree on its inputs. It
// returns the number of layer lookups.
func checkLookups(t *testing.T, name string, c hw.Cluster, stages []sched.Stage, p *phase, enc bool) int {
	t.Helper()
	for i, a := range p.layers {
		for _, b := range p.layers[i+1:] {
			if a == b {
				t.Fatalf("%s: layer lookup %+v repeated in %+v", name, a, p.layers)
			}
		}
	}
	if len(p.sends) == 2 && p.sends[0] == p.sends[1] {
		t.Fatalf("%s: handover lookup repeated in %v", name, p.sends)
	}
	i := 0
	for _, st := range stages {
		layers := st.DecLayers
		if enc {
			layers = st.EncLayers
		}
		if layers == 0 {
			continue
		}
		if i >= len(p.stages) {
			t.Fatalf("%s: %d priced stages, fewer than the stages holding layers", name, len(p.stages))
		}
		s := p.stages[i]
		if s.layers != layers || p.layers[s.layer] != (layerKey{tp: st.TP, lc: collective(st)}) || p.sends[s.send] != handover(c, st) {
			t.Fatalf("%s: stage %+v priced as %+v (layer %+v, send %v)", name, st, s, p.layers[s.layer], p.sends[s.send])
		}
		i++
	}
	if i != len(p.stages) {
		t.Fatalf("%s: %d priced stages for %d stages holding layers", name, len(p.stages), i)
	}
	return len(p.layers)
}

// TestStageShapesAcrossNodeBoundary: on GPT3-39B/16xA40 (two 8-GPU
// nodes) the RRA stages at the node boundary and at the wrap-around
// differ from their neighbours only in the handover link, and a TP 4x8
// decode pool can hold a TP group spanning both nodes beside one that
// does not (the WAA-C split does). Each such stage needs a lookup of
// its own.
func TestStageShapesAcrossNodeBoundary(t *testing.T) {
	c, err := hw.A40Cluster.Sub(16)
	if err != nil {
		t.Fatal(err)
	}
	tab := table(t, model.GPT339B, c)

	alloc, err := sched.AllocateRRA(model.GPT339B, c, sched.TPSpec{Degree: 1})
	if err != nil {
		t.Fatal(err)
	}
	k := NewStages(tab, c, alloc.Stages)
	checkLookups(t, "RRA enc", c, alloc.Stages, &k.enc, true)
	if n := checkLookups(t, "RRA dec", c, alloc.Stages, &k.dec, false); n != 1 || len(k.dec.sends) != 2 {
		t.Fatalf("RRA decode: %d layer lookups and %d handovers, want 1 and 2 (intra- and inter-node)", n, len(k.dec.sends))
	}
	s := k.dec.stages
	if s[6].send == s[7].send || s[7].send != s[15].send {
		t.Fatalf("RRA: stages 7 and 15 hand over across nodes and need their own handover: %+v", s)
	}

	waaTP := sched.TPSpec{Degree: 4, GPUs: 8}
	splits := 0
	for encGPUs := 1; encGPUs <= 8; encGPUs++ {
		alloc, err := sched.AllocateWAA(model.GPT339B, c, sched.WAAC, encGPUs, 16-encGPUs, waaTP)
		if err != nil {
			t.Fatal(err)
		}
		k := NewStages(tab, c, alloc.Stages)
		name := fmt.Sprintf("WAA %d+%d", encGPUs, 16-encGPUs)
		checkLookups(t, name+" enc", c, alloc.Stages, &k.enc, true)
		checkLookups(t, name+" dec", c, alloc.Stages, &k.dec, false)
		cross, local := -1, -1
		for i, st := range alloc.DecStages() {
			if st.TP == 4 && st.CrossNode {
				cross = i
			} else if st.TP == 4 {
				local = i
			}
		}
		if cross < 0 || local < 0 {
			continue
		}
		splits++
		if k.dec.stages[cross].layer == k.dec.stages[local].layer {
			t.Fatalf("%s: cross-node and intra-node TP-4 groups share a layer lookup: %+v", name, k.dec.stages)
		}
	}
	if splits == 0 {
		t.Fatal("no split puts a cross-node TP-4 group beside an intra-node one")
	}
}

// TestPipelinePeriod: the period is the traversal until m times the
// slowest stage overtakes it; m < 1 counts as one micro-batch.
func TestPipelinePeriod(t *testing.T) {
	times := []float64{1, 3, 2}
	for _, tc := range []struct {
		m    int
		want float64
	}{{0, 6}, {1, 6}, {2, 6}, {3, 9}} {
		if got := PipelinePeriod(times, tc.m); got != tc.want {
			t.Fatalf("PipelinePeriod(%v, %d) = %v, want %v", times, tc.m, got, tc.want)
		}
	}
	if Traversal(times) != 6 || Slowest(times) != 3 || Slowest(nil) != 0 {
		t.Fatal("Traversal/Slowest")
	}
}
