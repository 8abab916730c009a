package model

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Table 1 parameter counts should land near the nominal sizes.
func TestParamCounts(t *testing.T) {
	cases := []struct {
		m    Model
		want float64 // nominal params
		tol  float64 // relative tolerance
	}{
		{T511B, 11e9, 0.10},
		{OPT13B, 13e9, 0.10},
		{GPT339B, 39e9, 0.10},
		{GPT3101B, 101e9, 0.10},
		{GPT3175B, 175e9, 0.05},
		{GPT3341B, 341e9, 0.05},
	}
	for _, c := range cases {
		got := float64(c.m.Params())
		if rel := abs(got-c.want) / c.want; rel > c.tol {
			t.Errorf("%s: params = %.3g, want ~%.3g (rel err %.3f)", c.m.Name, got, c.want, rel)
		}
	}
}

func TestValidateAll(t *testing.T) {
	for _, m := range All {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Model{
		{Name: "no-dec", Hidden: 4, Heads: 2, AttnDim: 4, FFNDim: 8, BytesPerParam: 2},
		{Name: "neg-h", DecLayers: 1, Hidden: -1, Heads: 2, AttnDim: 4, FFNDim: 8, BytesPerParam: 2},
		{Name: "indiv", DecLayers: 1, Hidden: 4, Heads: 3, AttnDim: 4, FFNDim: 8, BytesPerParam: 2},
		{Name: "nobytes", DecLayers: 1, Hidden: 4, Heads: 2, AttnDim: 4, FFNDim: 8},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("%s: expected validation error", m.Name)
		}
	}
}

func TestByName(t *testing.T) {
	m, err := ByName("OPT-13B")
	if err != nil || m.Hidden != 5120 {
		t.Fatalf("ByName: %v %+v", err, m)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestDecoderOnly(t *testing.T) {
	if T511B.DecoderOnly() {
		t.Fatal("T5 is encoder-decoder")
	}
	if !OPT13B.DecoderOnly() {
		t.Fatal("OPT is decoder-only")
	}
	if T511B.TotalLayers() != 48 {
		t.Fatalf("T5 layers = %d, want 48", T511B.TotalLayers())
	}
}

func TestCrossAttentionParams(t *testing.T) {
	// T5 decoder layers carry cross-attention: heavier than encoder layers.
	if T511B.DecLayerParams() <= T511B.EncLayerParams() {
		t.Fatal("decoder layer should outweigh encoder layer for enc-dec model")
	}
	// Decoder-only: decoder layer has no cross-attention surcharge.
	if OPT13B.DecLayerParams() != 4*5120*5120+2*5120*20480 {
		t.Fatalf("OPT dec layer params = %d", OPT13B.DecLayerParams())
	}
}

func TestWeightBytes(t *testing.T) {
	if OPT13B.WeightBytes() != OPT13B.Params()*2 {
		t.Fatal("fp16 weight bytes should be 2x params")
	}
	if OPT13B.DecLayerBytes() != OPT13B.DecLayerParams()*2 {
		t.Fatal("per-layer bytes mismatch")
	}
	if T511B.EncLayerBytes() != T511B.EncLayerParams()*2 {
		t.Fatal("enc layer bytes mismatch")
	}
}

func TestKVSizes(t *testing.T) {
	// One token, one layer: 2 (K and V) * AttnDim * 2 bytes.
	if got, want := OPT13B.KVBytesPerTokenLayer(), int64(2*5120*2); got != want {
		t.Fatalf("KV per token-layer = %d, want %d", got, want)
	}
	if got, want := OPT13B.KVBytesPerToken(), int64(40)*OPT13B.KVBytesPerTokenLayer(); got != want {
		t.Fatalf("KV per token = %d, want %d", got, want)
	}
	if OPT13B.crossKVBytesPerInputToken() != 0 {
		t.Fatal("decoder-only has no cross KV")
	}
	if T511B.crossKVBytesPerInputToken() == 0 {
		t.Fatal("T5 must memoize cross KV")
	}
}

func TestQueryKVBytes(t *testing.T) {
	// Decoder-only counts prompt tokens too.
	optKV := OPT13B.queryKVBytes(100, 50)
	if optKV != 150*OPT13B.KVBytesPerToken() {
		t.Fatalf("OPT query KV = %d", optKV)
	}
	t5KV := T511B.queryKVBytes(100, 50)
	want := 50*T511B.KVBytesPerToken() + 100*T511B.crossKVBytesPerInputToken()
	if t5KV != want {
		t.Fatalf("T5 query KV = %d, want %d", t5KV, want)
	}
}

func TestContextLen(t *testing.T) {
	if got := OPT13B.ContextLen(100, 0); got != 101 {
		t.Fatalf("OPT ctx at pos 0 = %d, want 101", got)
	}
	if got := T511B.ContextLen(100, 0); got != 1 {
		t.Fatalf("T5 ctx at pos 0 = %d, want 1", got)
	}
	if got := OPT13B.ContextLen(10, 9); got != 20 {
		t.Fatalf("OPT ctx at pos 9 = %d, want 20", got)
	}
}

func TestFLOPsScaling(t *testing.T) {
	m := GPT339B
	// Prefill FLOPs scale ~linearly in tokens at fixed seq len.
	f1 := m.encodeLayerFLOPs(128, 256)
	f2 := m.encodeLayerFLOPs(256, 256)
	if ratio := f2 / f1; ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("prefill scaling ratio = %v, want ~2", ratio)
	}
	// Decode FLOPs per iteration are far below prefill of the same batch of
	// queries (each query contributes one token, not seqLen tokens).
	prefill := m.encodeLayerFLOPs(128*256, 256)
	dec := m.DecodeLayerFLOPs(128, 256, 0)
	if dec*50 >= prefill {
		t.Fatalf("decode iter FLOPs %v should be << prefill %v", dec, prefill)
	}
	// Cross-attention adds FLOPs for enc-dec models.
	withCross := T511B.DecodeLayerFLOPs(8, 32, 256)
	noCross := T511B.DecodeLayerFLOPs(8, 32, 0)
	if withCross <= noCross {
		t.Fatal("cross-attention term missing")
	}
}

func TestDecodeAttnBytes(t *testing.T) {
	m := OPT13B
	b := m.DecodeAttnBytes(4, 100, 0)
	if b != int64(4*100)*m.KVBytesPerTokenLayer() {
		t.Fatalf("attn bytes = %d", b)
	}
	// T5 adds cross-cache reads.
	tb := T511B.DecodeAttnBytes(4, 10, 90)
	if tb != int64(4*100)*T511B.KVBytesPerTokenLayer() {
		t.Fatalf("t5 attn bytes = %d", tb)
	}
}

// Property: FLOPs and KV bytes are monotone in their load arguments.
func TestQuickMonotone(t *testing.T) {
	f := func(b1, b2 uint8, c1, c2 uint16) bool {
		lb, hb := int(b1), int(b2)
		if lb > hb {
			lb, hb = hb, lb
		}
		lc, hc := float64(c1), float64(c2)
		if lc > hc {
			lc, hc = hc, lc
		}
		m := OPT13B
		if m.DecodeLayerFLOPs(lb, lc, 0) > m.DecodeLayerFLOPs(hb, hc, 0)+1 {
			return false
		}
		if m.DecodeAttnBytes(lb, lc, 0) > m.DecodeAttnBytes(hb, hc, 0) {
			return false
		}
		return m.encodeLayerFLOPs(lb, lc) <= m.encodeLayerFLOPs(hb, hc)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// queryKVBytes returns the total KV-cache footprint of a single query
// with the given input and output lengths, at the point all output
// tokens are generated.
func (m Model) queryKVBytes(inputLen, outputLen int) int64 {
	if m.DecoderOnly() {
		return int64(inputLen+outputLen) * m.KVBytesPerToken()
	}
	return int64(outputLen)*m.KVBytesPerToken() + int64(inputLen)*m.crossKVBytesPerInputToken()
}

// encodeLayerFLOPs returns the FLOPs for one encoding (prefill) layer
// pass over a batch with the given total token count and mean sequence
// length: 2 FLOPs per parameter per token for the GEMMs plus the
// quadratic attention term 4 * tokens * seqLen * AttnDim.
func (m Model) encodeLayerFLOPs(tokens int, meanSeqLen float64) float64 {
	var params int64
	if m.DecoderOnly() {
		params = m.DecLayerParams()
	} else {
		params = m.EncLayerParams()
	}
	gemm := 2 * float64(params) * float64(tokens)
	attn := 4 * float64(tokens) * meanSeqLen * float64(m.AttnDim)
	return gemm + attn
}

// crossKVBytesPerInputToken returns the cross-attention cache bytes one
// input token occupies across decoder layers (encoder-decoder models
// memoize encoder outputs once per input token; zero for decoder-only).
func (m Model) crossKVBytesPerInputToken() int64 {
	if m.DecoderOnly() {
		return 0
	}
	return m.KVBytesPerTokenLayer() * int64(m.DecLayers)
}
