package profile

import (
	"math"
	"strings"
	"testing"

	"exegpt/internal/hw"
	"exegpt/internal/model"
)

// lookupAll calls every lookup at every profiled TP degree over grid
// points, interior points and beyond-grid points. It fails the test on
// a lookup error; a malformed table shows up as a panic.
func lookupAll(t *testing.T, tab *Table) {
	t.Helper()
	for _, tp := range tab.TPDegrees {
		for _, n := range []int{0, 1, 3, 48, 1000, 1 << 19} {
			x := float64(n) + 0.5
			calls := []func() (float64, error){
				func() (float64, error) { return tab.EncodeRest(n, tp) },
				func() (float64, error) { return tab.EncodeAttn(n, x, tp) },
				func() (float64, error) { return tab.DecodeRest(n, tp) },
				func() (float64, error) { return tab.DecodeAttn(n, x, tp) },
				func() (float64, error) { return tab.EncodeLayer(n, x, tp, IntraNode) },
				func() (float64, error) { return tab.DecodeLayer(n, x, tp, InterNode) },
				func() (float64, error) { return tab.SyncTime(true, n, tp, InterNode) },
				func() (float64, error) { return tab.PPSend(n, IntraNode) },
				func() (float64, error) { return tab.KVTransfer(n), nil },
			}
			for i, call := range calls {
				if _, err := call(); err != nil {
					t.Fatalf("lookup %d at n=%d tp=%d: %v", i, n, tp, err)
				}
			}
		}
	}
}

// TestProfilerTablesValidate: Validate accepts every table the
// profiler produces, for every model on every cluster size whose TP
// degrees and links differ, and every such table answers every lookup
// at every profiled TP degree.
func TestProfilerTablesValidate(t *testing.T) {
	for _, c := range []hw.Cluster{hw.A40Cluster, hw.A100Cluster} {
		for _, n := range []int{1, 2, 4, 8, 16} {
			sub, err := c.Sub(n)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range model.All {
				tab := table(t, m, sub)
				if err := tab.Validate(); err != nil {
					t.Fatalf("%s on %s/%d: %v", m.Name, c.Name, n, err)
				}
				lookupAll(t, tab)
			}
		}
	}
}

// TestValidateRejectsMalformedTables: a table whose shapes, grids or
// values would make a lookup panic or divide by zero fails Validate.
// A table whose decode-attention rows were empty once passed, and the
// first DecodeAttn then indexed past the end of a row.
func TestValidateRejectsMalformedTables(t *testing.T) {
	sub, err := hw.A40Cluster.Sub(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := (&Table{}).Validate(); err == nil {
		t.Fatal("empty table accepted")
	}

	// Every dec_attn row empty.
	tab := table(t, model.OPT13B, sub)
	for _, rows := range tab.DecAttn {
		for j := range rows {
			rows[j] = []float64{}
		}
	}
	if err := tab.Validate(); err == nil || !strings.Contains(err.Error(), "decode attention") {
		t.Fatalf("empty dec_attn rows accepted: %v", err)
	}

	cases := map[string]func(*Table){
		"TP degrees unsorted":    func(t *Table) { t.TPDegrees[0], t.TPDegrees[1] = t.TPDegrees[1], t.TPDegrees[0] },
		"TP degree zero":         func(t *Table) { t.TPDegrees[0] = 0 },
		"empty seq grid":         func(t *Table) { t.SeqGrid = nil },
		"duplicate batch point":  func(t *Table) { t.BatchGrid[1] = t.BatchGrid[0] },
		"zero ctx point":         func(t *Table) { t.CtxGrid[0] = 0 },
		"short enc_attn row":     func(t *Table) { t.EncAttn[1][3] = t.EncAttn[1][3][:2] },
		"missing dec_attn rows":  func(t *Table) { t.DecAttn[0] = t.DecAttn[0][:4] },
		"short dec_rest":         func(t *Table) { t.DecRest[1] = t.DecRest[1][:1] },
		"all-reduce link class":  func(t *Table) { t.AllReduce[0] = t.AllReduce[0][:1] },
		"no p2p fits":            func(t *Table) { t.P2P = nil },
		"negative kernel time":   func(t *Table) { t.EncRest[0][2] = -1 },
		"NaN attention time":     func(t *Table) { t.DecAttn[1][2][3] = math.NaN() },
		"infinite host DMA beta": func(t *Table) { t.HostDMA.Beta = math.Inf(1) },
		"negative sync count":    func(t *Table) { t.DecSyncsPerLayer = -3 },
	}
	for name, mutate := range cases {
		tab := table(t, model.OPT13B, sub)
		mutate(tab)
		if err := tab.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
