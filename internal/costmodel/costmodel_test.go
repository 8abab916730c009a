package costmodel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"exegpt/internal/hw"
	"exegpt/internal/model"
)

func engine(t *testing.T, m model.Model) *Engine {
	t.Helper()
	e, err := New(m, hw.A40)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidates(t *testing.T) {
	if _, err := New(model.Model{}, hw.A40); err == nil {
		t.Fatal("expected error for invalid model")
	}
	if _, err := New(model.OPT13B, hw.GPUSpec{Name: "bad"}); err == nil {
		t.Fatal("expected error for invalid GPU")
	}
}

func TestZeroWorkIsFree(t *testing.T) {
	e := engine(t, model.OPT13B)
	if e.EncodeRestTime(0, 1) != 0 || e.EncodeAttnTime(0, 0, 1) != 0 ||
		e.DecodeRestTime(0, 1) != 0 || e.DecodeAttnTime(0, 0, 0, 1) != 0 ||
		e.encodeLayerTime(0, 0, 1, hw.PCIe4x16) != 0 ||
		e.decodeLayerTime(0, 0, 0, 1, hw.PCIe4x16) != 0 {
		t.Fatal("zero work should take zero time")
	}
}

// The central premise of the paper: input encoding is orders of magnitude
// more expensive than a single output-decoding iteration for the same
// batch of queries (§1).
func TestEncodeDominatesDecodeIteration(t *testing.T) {
	e := engine(t, model.OPT13B)
	batch, seq := 16, 256.0
	enc := e.encodeLayerTime(batch*int(seq), seq, 1, hw.PCIe4x16)
	dec := e.decodeLayerTime(batch, seq, 0, 1, hw.PCIe4x16)
	if enc < 20*dec {
		t.Fatalf("encode %.3g not >> decode %.3g", enc, dec)
	}
}

// Small decode batches are dominated by weight streaming: doubling a
// small batch should cost far less than 2x (throughput incentive for
// large decoding batches, §2).
func TestSmallBatchInefficiency(t *testing.T) {
	e := engine(t, model.OPT13B)
	t1 := e.DecodeRestTime(1, 1)
	t32 := e.DecodeRestTime(32, 1)
	if t32 > 4*t1 {
		t.Fatalf("batch 32 time %.3g vs batch 1 %.3g: weight streaming should amortize", t32, t1)
	}
	// Per-query time must strictly improve with batch.
	if t32/32 >= t1 {
		t.Fatal("per-query decode time should drop with batch size")
	}
}

// Tensor parallelism reduces per-layer latency but adds sync overhead:
// TP=2 should be faster than TP=1 for a big layer, but not 2x faster.
func TestTPSpeedupSublinear(t *testing.T) {
	e := engine(t, model.GPT3175B)
	link := hw.NVLink3
	t1 := e.decodeLayerTime(64, 300, 0, 1, link)
	t2 := e.decodeLayerTime(64, 300, 0, 2, link)
	t8 := e.decodeLayerTime(64, 300, 0, 8, link)
	if t2 >= t1 {
		t.Fatalf("TP=2 (%.3g) should beat TP=1 (%.3g)", t2, t1)
	}
	if t2 < t1/2 {
		t.Fatalf("TP=2 speedup should be sublinear: %.3g vs %.3g", t2, t1)
	}
	if t8 >= t2 {
		t.Fatalf("TP=8 (%.3g) should beat TP=2 (%.3g) on NVLink", t8, t2)
	}
}

// Over slow links, high TP degrees lose to low ones for small batches
// (sync dominated) — this is why partial tensor parallelism matters.
func TestTPOverSlowLinkCanHurt(t *testing.T) {
	e := engine(t, model.OPT13B)
	slow := hw.Link{Name: "slow", Latency: 50e-6, Bandwidth: 2e9}
	t1 := e.decodeLayerTime(1, 64, 0, 1, slow)
	t8 := e.decodeLayerTime(1, 64, 0, 8, slow)
	if t8 <= t1 {
		t.Fatalf("TP=8 over slow link (%.3g) should lose to TP=1 (%.3g) at batch 1", t8, t1)
	}
}

func TestDecodeAttnGrowsWithContext(t *testing.T) {
	e := engine(t, model.OPT13B)
	short := e.DecodeAttnTime(16, 64, 0, 1)
	long := e.DecodeAttnTime(16, 1024, 0, 1)
	if long <= short {
		t.Fatalf("attention time should grow with context: %.3g vs %.3g", long, short)
	}
}

func TestCrossAttentionCost(t *testing.T) {
	e := engine(t, model.T511B)
	with := e.DecodeAttnTime(16, 32, 256, 1)
	without := e.DecodeAttnTime(16, 32, 0, 1)
	if with <= without {
		t.Fatal("cross-attention reads should add time for enc-dec models")
	}
}

func TestPPSendAndKVTransfer(t *testing.T) {
	e := engine(t, model.OPT13B)
	if e.ppSendTime(0, hw.PCIe4x16) != 0 {
		t.Fatal("empty send should be free")
	}
	s1 := e.ppSendTime(256, hw.PCIe4x16)
	s2 := e.ppSendTime(512, hw.PCIe4x16)
	if s2 <= s1 {
		t.Fatal("send time should grow with tokens")
	}
	// KV transfer goes through host memory: two DMA hops.
	k := e.kvTransferTime(256)
	direct := hw.P2PTime(hw.HostDMA, int64(256)*e.Model.KVBytesPerToken())
	if k < 2*direct*0.99 {
		t.Fatalf("KV transfer %.3g should be ~2x one hop %.3g", k, direct)
	}
}

// A100 outpaces A40 on identical work.
func TestA100FasterThanA40(t *testing.T) {
	m := model.GPT3101B
	a40, err := New(m, hw.A40)
	if err != nil {
		t.Fatal(err)
	}
	a100, err := New(m, hw.A100)
	if err != nil {
		t.Fatal(err)
	}
	if a100.encodeLayerTime(4096, 256, 1, hw.NVLink3) >= a40.encodeLayerTime(4096, 256, 1, hw.PCIe4x16) {
		t.Fatal("A100 should be faster")
	}
}

// Property: all kernel times are nonnegative and monotone in batch.
func TestQuickMonotoneInBatch(t *testing.T) {
	e := engine(t, model.GPT339B)
	f := func(a, b uint8, ctx uint16) bool {
		lo, hi := int(a), int(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		c := float64(ctx%2048) + 1
		dl, dh := e.decodeLayerTime(lo, c, 0, 1, hw.PCIe4x16), e.decodeLayerTime(hi, c, 0, 1, hw.PCIe4x16)
		if dl < 0 || dh < 0 || dl > dh+1e-12 {
			return false
		}
		el, eh := e.encodeLayerTime(lo, c, 1, hw.PCIe4x16), e.encodeLayerTime(hi, c, 1, hw.PCIe4x16)
		return el >= 0 && eh >= 0 && el <= eh+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}

// Property: latency decreases (or sync-dominates predictably) and
// per-shard work shrinks as TP grows over a fast link with large work.
func TestQuickTPMonotoneLargeWork(t *testing.T) {
	e := engine(t, model.GPT3175B)
	f := func(x uint8) bool {
		tps := []int{1, 2, 4, 8}
		batch := int(x)%64 + 64 // large batch
		prev := 1e18
		for _, tp := range tps {
			cur := e.decodeLayerTime(batch, 512, 0, tp, hw.NVLink3)
			if cur > prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDecodeLayerTime(b *testing.B) {
	e, _ := New(model.GPT3175B, hw.A100)
	for i := 0; i < b.N; i++ {
		_ = e.decodeLayerTime(64, 300, 0, 8, hw.NVLink3)
	}
}

// The full-layer composites below are the shape tests' view of the
// kernel times; production code prices layers through profile.Table,
// which is built from the same kernel times.

// encodeLayerTime returns the full single-layer encoding time including
// tensor-parallel synchronization over the given link (two all-reduces
// of the activation tensor per encoder layer).
func (e *Engine) encodeLayerTime(totalTokens int, meanSeqLen float64, tp int, link hw.Link) float64 {
	if totalTokens <= 0 {
		return 0
	}
	t := e.EncodeRestTime(totalTokens, tp) + e.EncodeAttnTime(totalTokens, meanSeqLen, tp)
	t += 2 * hw.AllReduceTime(link, tp, e.actBytes(totalTokens)/ActBytesPerTokenFactor)
	return t
}

// decodeLayerTime returns the full single-layer decode-iteration time
// including tensor-parallel synchronization (three all-reduces per
// decoder layer).
func (e *Engine) decodeLayerTime(batch int, ctxLen, meanInputLen float64, tp int, link hw.Link) float64 {
	if batch <= 0 {
		return 0
	}
	t := e.DecodeRestTime(batch, tp) + e.DecodeAttnTime(batch, ctxLen, meanInputLen, tp)
	t += 3 * hw.AllReduceTime(link, tp, e.actBytes(batch)/ActBytesPerTokenFactor)
	return t
}

// ppSendTime returns the time to hand a micro-batch's activations
// (totalTokens tokens) to the next pipeline stage over link.
func (e *Engine) ppSendTime(totalTokens int, link hw.Link) float64 {
	return hw.P2PTime(link, e.actBytes(totalTokens)/ActBytesPerTokenFactor)
}

// kvTransferTime returns the time to move the KV-cache entries of
// queries (tokens prompt tokens in total) from an encoding GPU to a
// decoding GPU via host memory, as XRunner does for WAA scheduling (§3):
// device-to-host followed by host-to-device over the host-DMA link.
func (e *Engine) kvTransferTime(tokens int) float64 {
	bytes := int64(tokens) * e.Model.KVBytesPerToken()
	return 2 * hw.P2PTime(hw.HostDMA, bytes)
}
