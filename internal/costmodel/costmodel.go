// Package costmodel provides the analytical GPU kernel-timing model that
// substitutes for the paper's physical A40/A100 testbed.
//
// The paper's XProfiler measures, for a single encoder/decoder layer,
// (a) the attention kernel and (b) the rest of the layer, across tensor-
// parallel degrees, batch sizes and sequence lengths (§3). This package
// computes those same quantities from a roofline model:
//
//   - GEMMs ("rest of layer") take max(compute, weight+activation
//     streaming) time. At small batch the weight-streaming term dominates,
//     which reproduces the small-batch inefficiency that motivates large
//     decoding batches in the paper.
//   - Decode attention streams the entire key/value cache of every query
//     in the batch each iteration and is memory-bandwidth bound.
//   - Prefill (encoding) attention is compute bound with a lower
//     achievable efficiency than dense GEMMs.
//   - Each layer pays fixed kernel-launch overheads, and tensor-parallel
//     execution pays ring all-reduce synchronizations: two per encoder
//     layer and three per decoder layer (§2, Megatron scheme).
//
// All returned times are seconds for ONE layer on ONE GPU of the given
// spec at the given tensor-parallel degree.
package costmodel

import (
	"fmt"

	"exegpt/internal/hw"
	"exegpt/internal/model"
)

// Tunables of the roofline model. They are properties of the kernel
// implementations (CUTLASS/cuBLAS-class), not of a specific GPU.
const (
	// GEMMEff is the peak fraction of tensor-core throughput dense GEMMs
	// achieve at large workload.
	GEMMEff = 0.55
	// AttnEff is the achievable fraction for the prefill attention kernel.
	AttnEff = 0.30
	// GEMMKernelsPerLayer counts launched kernels in "rest of layer"
	// (QKV, attn-out, 2 FFN GEMMs, layernorms, residual adds, softmax).
	GEMMKernelsPerLayer = 9
	// CrossAttnExtraKernels are added for encoder-decoder cross-attention.
	CrossAttnExtraKernels = 3
	// ActBytesPerTokenFactor: activations read+written per token per layer
	// in units of Hidden * BytesPerParam.
	ActBytesPerTokenFactor = 8
)

// Engine computes kernel times for one model on one GPU spec.
type Engine struct {
	Model model.Model
	GPU   hw.GPUSpec
}

// New returns an Engine after validating the model.
func New(m model.Model, gpu hw.GPUSpec) (*Engine, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if gpu.PeakFLOPS <= 0 || gpu.MemBandwidth <= 0 {
		return nil, fmt.Errorf("costmodel: invalid GPU spec %q", gpu.Name)
	}
	return &Engine{Model: m, GPU: gpu}, nil
}

// gemmTime returns the roofline time for GEMM work of the given FLOPs
// whose weights occupy weightBytes and whose activations move actBytes,
// all already divided per tensor-parallel shard by the caller.
func (e *Engine) gemmTime(flops float64, weightBytes, actBytes int64) float64 {
	compute := flops / (e.GPU.PeakFLOPS * GEMMEff)
	memory := float64(weightBytes+actBytes) / e.GPU.MemBandwidth
	if compute > memory {
		return compute
	}
	return memory
}

// launch returns the fixed overhead for n kernel launches.
func (e *Engine) launch(n int) float64 {
	return float64(n) * e.GPU.KernelLaunchOverhead
}

// layerWeightBytes returns the weight bytes of one layer of the given
// kind (encoder or decoder); decoder-only models use decoder layers for
// both phases.
func (e *Engine) layerWeightBytes(encoder bool) int64 {
	if encoder && !e.Model.DecoderOnly() {
		return e.Model.EncLayerBytes()
	}
	return e.Model.DecLayerBytes()
}

// actBytes approximates activation traffic for the given token count.
func (e *Engine) actBytes(tokens int) int64 {
	return int64(tokens) * int64(e.Model.Hidden) * int64(e.Model.BytesPerParam) * ActBytesPerTokenFactor
}

// EncodeRestTime returns the non-attention ("rest of layer") time of one
// encoding layer pass over totalTokens input tokens, sharded over tp GPUs.
func (e *Engine) EncodeRestTime(totalTokens, tp int) float64 {
	if totalTokens <= 0 {
		return 0
	}
	w := e.layerWeightBytes(true) / int64(tp)
	flops := 2 * float64(e.layerWeightBytes(true)/int64(e.Model.BytesPerParam)) * float64(totalTokens) / float64(tp)
	return e.gemmTime(flops, w, e.actBytes(totalTokens)/int64(tp)) + e.launch(GEMMKernelsPerLayer)
}

// EncodeAttnTime returns the attention-kernel time of one encoding layer
// over a batch of totalTokens tokens with the given mean sequence
// length, sharded over tp GPUs.
func (e *Engine) EncodeAttnTime(totalTokens int, meanSeqLen float64, tp int) float64 {
	if totalTokens <= 0 {
		return 0
	}
	flops := 4 * float64(totalTokens) * meanSeqLen * float64(e.Model.AttnDim) / float64(tp)
	compute := flops / (e.GPU.PeakFLOPS * AttnEff)
	mem := float64(e.actBytes(totalTokens)) / float64(tp) / e.GPU.MemBandwidth
	t := compute
	if mem > t {
		t = mem
	}
	return t + e.launch(2)
}

// DecodeRestTime returns the non-attention time of one decoder layer for
// one decoding iteration of the given batch, sharded over tp GPUs.
func (e *Engine) DecodeRestTime(batch, tp int) float64 {
	if batch <= 0 {
		return 0
	}
	w := e.layerWeightBytes(false) / int64(tp)
	flops := 2 * float64(e.Model.DecLayerParams()) * float64(batch) / float64(tp)
	kernels := GEMMKernelsPerLayer
	if !e.Model.DecoderOnly() {
		kernels += CrossAttnExtraKernels
	}
	return e.gemmTime(flops, w, e.actBytes(batch)/int64(tp)) + e.launch(kernels)
}

// DecodeAttnTime returns the attention-kernel time of one decoder layer
// for one decoding iteration: a memory-bound sweep of the KV cache of
// every query in the batch (mean self-attention context ctxLen tokens,
// plus cross-attention over meanInputLen for encoder-decoder models).
func (e *Engine) DecodeAttnTime(batch int, ctxLen, meanInputLen float64, tp int) float64 {
	if batch <= 0 {
		return 0
	}
	bytes := float64(e.Model.DecodeAttnBytes(batch, ctxLen, meanInputLen)) / float64(tp)
	flops := e.Model.DecodeLayerFLOPs(batch, ctxLen, meanInputLen) / float64(tp)
	attnFlops := flops - 2*float64(e.Model.DecLayerParams())*float64(batch)/float64(tp)
	compute := attnFlops / (e.GPU.PeakFLOPS * AttnEff)
	mem := bytes / e.GPU.MemBandwidth
	t := mem
	if compute > t {
		t = compute
	}
	return t + e.launch(2)
}
