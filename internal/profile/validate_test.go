package profile

import (
	"bytes"
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
// degrees and links differ.
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
			}
		}
	}
}

// TestDecodeRejectsMalformedTables: a table whose shapes, grids or
// values would make a lookup panic or divide by zero fails Validate.
// Decode used to accept a table whose dec_attn rows were empty, and the
// first DecodeAttn then indexed past the end of a row.
func TestDecodeRejectsMalformedTables(t *testing.T) {
	sub, err := hw.A40Cluster.Sub(2)
	if err != nil {
		t.Fatal(err)
	}
	tab := table(t, model.OPT13B, sub)
	good, err := tab.Encode()
	if err != nil {
		t.Fatal(err)
	}

	// The reported file: every dec_attn row empty.
	for _, rows := range tab.DecAttn {
		for j := range rows {
			rows[j] = []float64{}
		}
	}
	data, err := tab.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); err == nil || !strings.Contains(err.Error(), "decode attention") {
		t.Fatalf("empty dec_attn rows decoded: %v", err)
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
		tab, err := Decode(good)
		if err != nil {
			t.Fatal(err)
		}
		mutate(tab)
		if err := tab.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzProfileDecode: Decode either rejects the bytes or returns a table
// on which every lookup at every profiled TP degree returns without
// panicking, and whose Encode→Decode round trip is stable.
func FuzzProfileDecode(f *testing.F) {
	for _, n := range []int{1, 2} {
		sub, err := hw.A40Cluster.Sub(n)
		if err != nil {
			f.Fatal(err)
		}
		p, err := New(model.OPT13B, sub)
		if err != nil {
			f.Fatal(err)
		}
		data, err := p.Run().Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"tp_degrees":[1],"token_grid":[1,3],"seq_grid":[2],"batch_grid":[1],"ctx_grid":[1,2],` +
		`"enc_rest":[[0,1]],"enc_attn":[[[0],[1]]],"dec_rest":[[1]],"dec_attn":[[[0,1]]],` +
		`"all_reduce":[[{},{}]],"p2p":[{},{}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := Decode(data)
		if err != nil {
			return
		}
		lookupAll(t, tab)
		enc, err := tab.Encode()
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decoding an encoded table: %v", err)
		}
		again, err := back.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatal("Encode→Decode round trip is not stable")
		}
	})
}
