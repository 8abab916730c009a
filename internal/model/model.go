// Package model defines the LLM architectures evaluated in the ExeGPT
// paper (Table 1) and the arithmetic the profiler and simulator need:
// per-layer parameter counts, weight bytes, key/value-cache sizes, and
// FLOP counts for encoding (prefill) and decoding iterations.
//
// Models carry no weights — only shapes. T5 is an encoder-decoder model;
// OPT and GPT-3 are decoder-only models whose decoding layers run both
// input encoding (prefill) and output decoding (§2).
package model

import "fmt"

// Model describes one transformer configuration.
type Model struct {
	Name string
	// EncLayers and DecLayers are the encoder/decoder layer counts.
	// Decoder-only models have EncLayers == 0.
	EncLayers int
	DecLayers int
	// Hidden is the model (residual-stream) dimension.
	Hidden int
	// Heads is the attention-head count.
	Heads int
	// AttnDim is the total attention projection width (heads x head dim);
	// equal to Hidden for OPT/GPT-3, larger for T5-11B.
	AttnDim int
	// FFNDim is the feed-forward inner dimension.
	FFNDim int
	// VocabSize is used for the embedding/LM-head cost.
	VocabSize int
	// BytesPerParam: 2 for FP16 (the paper evaluates in half precision).
	BytesPerParam int
}

// Predefined models from Table 1.
var (
	// T511B: encoder-decoder, 24+24 layers, hidden 1024, 128 heads,
	// d_ff 65536, attention projection 16384 (128 heads x d_kv 128).
	T511B = Model{
		Name: "T5-11B", EncLayers: 24, DecLayers: 24,
		Hidden: 1024, Heads: 128, AttnDim: 16384, FFNDim: 65536,
		VocabSize: 32128, BytesPerParam: 2,
	}
	// OPT13B: decoder-only, 40 layers, hidden 5120, 40 heads.
	OPT13B = Model{
		Name: "OPT-13B", DecLayers: 40,
		Hidden: 5120, Heads: 40, AttnDim: 5120, FFNDim: 20480,
		VocabSize: 50272, BytesPerParam: 2,
	}
	// GPT339B: decoder-only, 48 layers, hidden 8192, 64 heads.
	GPT339B = Model{
		Name: "GPT-3-39B", DecLayers: 48,
		Hidden: 8192, Heads: 64, AttnDim: 8192, FFNDim: 32768,
		VocabSize: 50257, BytesPerParam: 2,
	}
	// GPT3101B: decoder-only, 80 layers, hidden 10240, 80 heads.
	GPT3101B = Model{
		Name: "GPT-3-101B", DecLayers: 80,
		Hidden: 10240, Heads: 80, AttnDim: 10240, FFNDim: 40960,
		VocabSize: 50257, BytesPerParam: 2,
	}
	// GPT3175B: decoder-only, 96 layers, hidden 12288, 96 heads.
	GPT3175B = Model{
		Name: "GPT-3-175B", DecLayers: 96,
		Hidden: 12288, Heads: 96, AttnDim: 12288, FFNDim: 49152,
		VocabSize: 50257, BytesPerParam: 2,
	}
	// GPT3341B: decoder-only, 120 layers, hidden 15360, 120 heads.
	GPT3341B = Model{
		Name: "GPT-3-341B", DecLayers: 120,
		Hidden: 15360, Heads: 120, AttnDim: 15360, FFNDim: 61440,
		VocabSize: 50257, BytesPerParam: 2,
	}
)

// All lists the Table 1 models in paper order.
var All = []Model{T511B, OPT13B, GPT339B, GPT3101B, GPT3175B, GPT3341B}

// ByName returns the model with the given name.
func ByName(name string) (Model, error) {
	for _, m := range All {
		if m.Name == name {
			return m, nil
		}
	}
	return Model{}, fmt.Errorf("model: unknown model %q", name)
}

// DecoderOnly reports whether the model has no encoder stack.
func (m Model) DecoderOnly() bool { return m.EncLayers == 0 }

// TotalLayers returns EncLayers + DecLayers.
func (m Model) TotalLayers() int { return m.EncLayers + m.DecLayers }

// Validate reports configuration errors.
func (m Model) Validate() error {
	switch {
	case m.DecLayers <= 0:
		return fmt.Errorf("model %q: need at least one decoder layer", m.Name)
	case m.Hidden <= 0 || m.Heads <= 0 || m.AttnDim <= 0 || m.FFNDim <= 0:
		return fmt.Errorf("model %q: nonpositive dimension", m.Name)
	case m.AttnDim%m.Heads != 0:
		return fmt.Errorf("model %q: AttnDim %d not divisible by Heads %d", m.Name, m.AttnDim, m.Heads)
	case m.BytesPerParam <= 0:
		return fmt.Errorf("model %q: BytesPerParam must be positive", m.Name)
	}
	return nil
}

// EncLayerParams returns the parameter count of one encoder layer:
// Q,K,V,O projections (4 * Hidden * AttnDim) plus the two FFN matrices
// (2 * Hidden * FFNDim).
func (m Model) EncLayerParams() int64 {
	h, a, f := int64(m.Hidden), int64(m.AttnDim), int64(m.FFNDim)
	return 4*h*a + 2*h*f
}

// DecLayerParams returns the parameter count of one decoder layer.
// Encoder-decoder models add a cross-attention block (another 4*h*a);
// decoder-only layers match encoder-layer shape.
func (m Model) DecLayerParams() int64 {
	h, a, f := int64(m.Hidden), int64(m.AttnDim), int64(m.FFNDim)
	p := 4*h*a + 2*h*f
	if !m.DecoderOnly() {
		p += 4 * h * a
	}
	return p
}

// Params returns the total parameter count including embeddings.
func (m Model) Params() int64 {
	p := int64(m.EncLayers)*m.EncLayerParams() + int64(m.DecLayers)*m.DecLayerParams()
	p += int64(m.VocabSize) * int64(m.Hidden) // tied embedding / LM head
	return p
}

// WeightBytes returns the total model size in bytes at the configured
// precision.
func (m Model) WeightBytes() int64 {
	return m.Params() * int64(m.BytesPerParam)
}

// EncLayerBytes and DecLayerBytes return per-layer weight sizes.
func (m Model) EncLayerBytes() int64 { return m.EncLayerParams() * int64(m.BytesPerParam) }

// DecLayerBytes returns the weight bytes of one decoder layer.
func (m Model) DecLayerBytes() int64 { return m.DecLayerParams() * int64(m.BytesPerParam) }

// KVBytesPerTokenLayer returns the key/value-cache bytes one token
// occupies in one decoder layer's self-attention cache.
func (m Model) KVBytesPerTokenLayer() int64 {
	return 2 * int64(m.AttnDim) * int64(m.BytesPerParam)
}

// KVBytesPerToken returns the self-attention KV bytes one generated
// token occupies across all decoder layers. For decoder-only models the
// input (prompt) tokens occupy cache at the same rate.
func (m Model) KVBytesPerToken() int64 {
	return m.KVBytesPerTokenLayer() * int64(m.DecLayers)
}

// ContextLen returns the self-attention context length seen while
// decoding output position pos (0-based) for a query with the given
// input length: decoder-only models attend over prompt + generated
// tokens, encoder-decoder models only over generated tokens (the input
// is handled by cross-attention).
func (m Model) ContextLen(inputLen, pos int) int {
	if m.DecoderOnly() {
		return inputLen + pos + 1
	}
	return pos + 1
}

// DecodeLayerFLOPs returns the FLOPs for one decoder layer processing a
// single decoding iteration for batch queries whose mean attention
// context is ctxLen tokens (self plus, for encoder-decoder models,
// cross-attention over meanInputLen input tokens).
func (m Model) DecodeLayerFLOPs(batch int, ctxLen, meanInputLen float64) float64 {
	gemm := 2 * float64(m.DecLayerParams()) * float64(batch)
	attn := 4 * float64(batch) * ctxLen * float64(m.AttnDim)
	if !m.DecoderOnly() {
		attn += 4 * float64(batch) * meanInputLen * float64(m.AttnDim)
	}
	return gemm + attn
}

// DecodeAttnBytes returns the bytes the decode attention kernel streams
// from the KV cache for one layer and one iteration: the whole cache of
// every query in the batch.
func (m Model) DecodeAttnBytes(batch int, ctxLen, meanInputLen float64) int64 {
	per := ctxLen
	if !m.DecoderOnly() {
		per += meanInputLen
	}
	return int64(float64(batch) * per * float64(m.KVBytesPerTokenLayer()))
}
