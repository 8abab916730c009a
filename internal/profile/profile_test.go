package profile

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"exegpt/internal/costmodel"
	"exegpt/internal/hw"
	"exegpt/internal/model"
)

func table(t *testing.T, m model.Model, c hw.Cluster) *Table {
	t.Helper()
	p, err := New(m, c)
	if err != nil {
		t.Fatal(err)
	}
	return p.Run()
}

func TestNewValidates(t *testing.T) {
	if _, err := New(model.Model{}, hw.A40Cluster); err == nil {
		t.Fatal("invalid model should fail")
	}
	if _, err := New(model.OPT13B, hw.Cluster{}); err == nil {
		t.Fatal("invalid cluster should fail")
	}
}

func TestRunShape(t *testing.T) {
	tab := table(t, model.OPT13B, hw.A40Cluster)
	// Powers of two up to 8 GPUs per node.
	want := []int{1, 2, 4, 8}
	if len(tab.TPDegrees) != len(want) {
		t.Fatalf("TP degrees = %v", tab.TPDegrees)
	}
	for i := range want {
		if tab.TPDegrees[i] != want[i] {
			t.Fatalf("TP degrees = %v", tab.TPDegrees)
		}
	}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	if tab.EncSyncsPerLayer != 2 || tab.DecSyncsPerLayer != 3 {
		t.Fatal("Megatron sync counts wrong")
	}
}

func TestLookupMatchesEngineOnGrid(t *testing.T) {
	tab := table(t, model.OPT13B, hw.A40Cluster)
	eng, err := costmodel.New(model.OPT13B, hw.A40)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range []int{1, 4} {
		for _, tok := range []int{64, 1024, 16384} {
			got, err := tab.EncodeRest(tok, tp)
			if err != nil {
				t.Fatal(err)
			}
			want := eng.EncodeRestTime(tok, tp)
			if math.Abs(got-want)/want > 1e-9 {
				t.Fatalf("EncodeRest(%d,tp%d) = %v, want %v", tok, tp, got, want)
			}
		}
		for _, b := range []int{1, 32, 512} {
			got, err := tab.DecodeRest(b, tp)
			if err != nil {
				t.Fatal(err)
			}
			want := eng.DecodeRestTime(b, tp)
			if math.Abs(got-want)/want > 1e-9 {
				t.Fatalf("DecodeRest(%d,tp%d) = %v, want %v", b, tp, got, want)
			}
		}
	}
}

func TestInterpolationBetweenGridPoints(t *testing.T) {
	tab := table(t, model.OPT13B, hw.A40Cluster)
	eng, _ := costmodel.New(model.OPT13B, hw.A40)
	// 48 is between grid points 32 and 64; linear interp should land
	// within a few percent of the true roofline value.
	got, err := tab.DecodeRest(48, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := eng.DecodeRestTime(48, 1)
	if math.Abs(got-want)/want > 0.10 {
		t.Fatalf("interp DecodeRest(48) = %v, want ~%v", got, want)
	}
}

func TestExtrapolationBeyondGrid(t *testing.T) {
	tab := table(t, model.OPT13B, hw.A40Cluster)
	small, err := tab.DecodeRest(1<<12, 1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := tab.DecodeRest(1<<13, 1)
	if err != nil {
		t.Fatal(err)
	}
	if big <= small {
		t.Fatal("extrapolation should keep growing")
	}
}

func TestUnknownTPErrors(t *testing.T) {
	tab := table(t, model.OPT13B, hw.A40Cluster)
	if _, err := tab.DecodeRest(4, 3); err == nil {
		t.Fatal("TP=3 not profiled; should error")
	}
	if _, err := tab.EncodeLayer(4, 16, 16, IntraNode); err == nil {
		t.Fatal("TP=16 not profiled; should error")
	}
}

func TestZeroWork(t *testing.T) {
	tab := table(t, model.OPT13B, hw.A40Cluster)
	for _, f := range []func() (float64, error){
		func() (float64, error) { return tab.EncodeRest(0, 1) },
		func() (float64, error) { return tab.EncodeAttn(0, 8, 1) },
		func() (float64, error) { return tab.DecodeRest(0, 1) },
		func() (float64, error) { return tab.DecodeAttn(0, 8, 1) },
		func() (float64, error) { return tab.PPSend(0, IntraNode) },
	} {
		v, err := f()
		if err != nil || v != 0 {
			t.Fatalf("zero work: v=%v err=%v", v, err)
		}
	}
	if tab.KVTransfer(0) != 0 {
		t.Fatal("zero KV transfer should be free")
	}
}

func TestSyncTime(t *testing.T) {
	tab := table(t, model.OPT13B, hw.A40Cluster)
	// TP=1 has no sync.
	s, err := tab.SyncTime(false, 100, 1, IntraNode)
	if err != nil || s != 0 {
		t.Fatalf("tp=1 sync = %v err=%v", s, err)
	}
	enc, err := tab.SyncTime(true, 100, 4, IntraNode)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := tab.SyncTime(false, 100, 4, IntraNode)
	if err != nil {
		t.Fatal(err)
	}
	// Decoders pay 3 all-reduces vs encoders' 2.
	if math.Abs(dec/enc-1.5) > 1e-6 {
		t.Fatalf("dec/enc sync ratio = %v, want 1.5", dec/enc)
	}
	// Inter-node sync over 100Gb IB is slower than intra-node PCIe.
	inter, err := tab.SyncTime(false, 100, 4, InterNode)
	if err != nil {
		t.Fatal(err)
	}
	if inter <= dec {
		t.Fatalf("inter-node sync %v should exceed intra %v", inter, dec)
	}
	if _, err := tab.SyncTime(false, 100, 4, LinkClass(9)); err == nil {
		t.Fatal("bad link class should error")
	}
}

func TestComposedLayerTimes(t *testing.T) {
	tab := table(t, model.GPT339B, hw.A40Cluster)
	enc, err := tab.EncodeLayer(16*256, 256, 4, IntraNode)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := tab.DecodeLayer(16, 256, 4, IntraNode)
	if err != nil {
		t.Fatal(err)
	}
	if enc < 20*dec {
		t.Fatalf("encode layer %v should dominate decode %v", enc, dec)
	}
}

func TestPPSendAndKVTransfer(t *testing.T) {
	tab := table(t, model.OPT13B, hw.A40Cluster)
	intra, err := tab.PPSend(512, IntraNode)
	if err != nil {
		t.Fatal(err)
	}
	inter, err := tab.PPSend(512, InterNode)
	if err != nil {
		t.Fatal(err)
	}
	if inter <= intra {
		t.Fatal("inter-node send should be slower")
	}
	if _, err := tab.PPSend(1, LinkClass(5)); err == nil {
		t.Fatal("bad link class should error")
	}
	kv1, kv2 := tab.KVTransfer(100), tab.KVTransfer(200)
	if kv2 <= kv1 || kv1 <= 0 {
		t.Fatalf("KV transfer times %v %v", kv1, kv2)
	}
}

// Property: interpolated lookups are monotone in batch/tokens for any
// profiled TP degree.
func TestQuickLookupMonotone(t *testing.T) {
	tab := table(t, model.OPT13B, hw.A40Cluster)
	f := func(a, b uint16, tpSel uint8) bool {
		lo, hi := int(a)+1, int(b)+1
		if lo > hi {
			lo, hi = hi, lo
		}
		tp := tab.TPDegrees[int(tpSel)%len(tab.TPDegrees)]
		dl, err1 := tab.DecodeRest(lo, tp)
		dh, err2 := tab.DecodeRest(hi, tp)
		if err1 != nil || err2 != nil {
			return false
		}
		if dl > dh+1e-12 {
			return false
		}
		el, err1 := tab.EncodeRest(lo, tp)
		eh, err2 := tab.EncodeRest(hi, tp)
		return err1 == nil && err2 == nil && el <= eh+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}

// TestPow2FastPathMatchesBinarySearch: the O(1) exponent-indexed
// segment lookup must be bit-identical to the grid-walk fallback on
// every lookup surface, including grid points, interior values,
// fractional coordinates, and beyond-grid extrapolation.
func TestPow2FastPathMatchesBinarySearch(t *testing.T) {
	tab := table(t, model.OPT13B, hw.A40Cluster)
	if !tab.pow2Token || !tab.pow2Seq || !tab.pow2Batch || !tab.pow2Ctx {
		t.Fatal("geomGrid power-of-two grids should enable the fast path")
	}
	slow := *tab
	slow.pow2Token, slow.pow2Seq, slow.pow2Batch, slow.pow2Ctx = false, false, false, false

	check := func(name string, a, b float64, errA, errB error) {
		t.Helper()
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: error mismatch %v vs %v", name, errA, errB)
		}
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: fast %v != slow %v", name, a, b)
		}
	}

	r := rand.New(rand.NewSource(99))
	for i := 0; i < 3000; i++ {
		tp := tab.TPDegrees[r.Intn(len(tab.TPDegrees))]
		tok := r.Intn(1<<18) + 1 // up to 2x beyond the token grid
		seq := r.Float64() * float64(uint(1)<<13)
		batch := r.Intn(1<<13) + 1
		ctx := r.Float64() * float64(uint(1)<<14)
		if i < 64 {
			// Hit grid points and segment boundaries exactly.
			tok = 1 << uint(i%18)
			batch = 1 << uint(i%13)
			seq = float64(int(1) << uint(i%13))
			ctx = float64(int(1) << uint(i%14))
		}
		a, ea := tab.EncodeRest(tok, tp)
		b, eb := slow.EncodeRest(tok, tp)
		check("EncodeRest", a, b, ea, eb)
		a, ea = tab.EncodeAttn(tok, seq, tp)
		b, eb = slow.EncodeAttn(tok, seq, tp)
		check("EncodeAttn", a, b, ea, eb)
		a, ea = tab.DecodeRest(batch, tp)
		b, eb = slow.DecodeRest(batch, tp)
		check("DecodeRest", a, b, ea, eb)
		a, ea = tab.DecodeAttn(batch, ctx, tp)
		b, eb = slow.DecodeAttn(batch, ctx, tp)
		check("DecodeAttn", a, b, ea, eb)
	}
}

func TestIsPow2Grid(t *testing.T) {
	cases := []struct {
		grid []int
		want bool
	}{
		{[]int{1, 2, 4, 8}, true},
		{[]int{1}, true},
		{[]int{1, 2, 3}, false},
		{[]int{2, 4, 8}, false},
		{nil, false},
	}
	for _, c := range cases {
		if got := isPow2Grid(c.grid); got != c.want {
			t.Fatalf("isPow2Grid(%v) = %v, want %v", c.grid, got, c.want)
		}
	}
}

func BenchmarkProfilerRun(b *testing.B) {
	p, _ := New(model.OPT13B, hw.A40Cluster)
	for i := 0; i < b.N; i++ {
		_ = p.Run()
	}
}

func BenchmarkTableLookup(b *testing.B) {
	p, _ := New(model.OPT13B, hw.A40Cluster)
	tab := p.Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = tab.DecodeLayer(37, 211, 4, IntraNode)
	}
}
