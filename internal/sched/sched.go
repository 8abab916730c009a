// Package sched defines execution-schedule types: the scheduling
// policies (RRA, WAA-C, WAA-M of §4.1), the four control variables
// (§4.2), partial tensor parallelism, and the GPU/layer allocation each
// policy produces.
package sched

import (
	"fmt"

	"exegpt/internal/hw"
	"exegpt/internal/model"
)

// Policy selects the resource-allocation policy.
type Policy int

// Policies.
const (
	// RRA assigns encoders and decoders to every GPU round-robin; the
	// schedule alternates one encoding phase with ND decoding iterations.
	RRA Policy = iota
	// WAAC splits GPUs into dedicated encoder and decoder pipelines
	// proportionally to estimated computation times.
	WAAC
	// WAAM splits GPUs so that per-GPU memory consumption balances.
	WAAM
)

// String implements fmt.Stringer, rendering the registered family name.
func (p Policy) String() string {
	if f, ok := families[p]; ok {
		return f.Name
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// IsWAA reports whether the policy is one of the paper's workload-aware
// allocations. Capability checks belong on Family.Caps (DedicatedPools
// is what most former IsWAA call sites actually meant); this remains
// only for the WAA split rule itself.
func (p Policy) IsWAA() bool { return p == WAAC || p == WAAM }

// TPSpec is the partial tensor-parallelism control variable: TP of the
// given Degree is applied to GPUs GPUs (a multiple of Degree); remaining
// GPUs run without tensor parallelism (Figure 4(d)).
type TPSpec struct {
	Degree int
	GPUs   int
}

// Validate checks the spec against a GPU count.
func (t TPSpec) Validate(totalGPUs int) error {
	switch {
	case t.Degree < 1:
		return fmt.Errorf("sched: TP degree %d < 1", t.Degree)
	case t.GPUs < 0 || t.GPUs > totalGPUs:
		return fmt.Errorf("sched: TP GPU count %d out of range 0..%d", t.GPUs, totalGPUs)
	case t.Degree > 1 && t.GPUs%t.Degree != 0:
		return fmt.Errorf("sched: TP GPU count %d not a multiple of degree %d", t.GPUs, t.Degree)
	case t.Degree == 1 && t.GPUs != 0:
		return fmt.Errorf("sched: TP degree 1 must have zero TP GPUs")
	}
	return nil
}

// Stages returns the pipeline depth that totalGPUs collapse into under
// this spec: each TP group of Degree GPUs forms one stage.
func (t TPSpec) Stages(totalGPUs int) int {
	if t.Degree <= 1 {
		return totalGPUs
	}
	return totalGPUs - t.GPUs + t.GPUs/t.Degree
}

// Config is a complete execution schedule: the policy plus the four
// control variables of §4.2 (batch size, decoder micro-batch, partial
// tensor parallelism, encoding frequency).
type Config struct {
	Policy Policy
	// BE and BD are the encoder and decoder batch sizes. For RRA, BE is
	// derived from BD and the completion distribution; for WAA, BD is
	// derived as BE * mean output length (§4.1).
	BE, BD int
	// Bm is the number of decoder micro-batches (WAA only; >= 1).
	Bm int
	// ND is the number of decoding iterations per encoding phase (RRA
	// only); the encoding frequency is 1/ND.
	ND int
	// TP is the partial tensor-parallelism spec.
	TP TPSpec
}

// Validate checks the configuration for a cluster of totalGPUs.
func (c Config) Validate(totalGPUs int) error {
	if err := c.TP.Validate(totalGPUs); err != nil {
		return err
	}
	if c.BE < 1 || c.BD < 1 {
		return fmt.Errorf("sched: batch sizes must be >= 1, got BE=%d BD=%d", c.BE, c.BD)
	}
	f, ok := FamilyOf(c.Policy)
	if !ok {
		return fmt.Errorf("sched: unknown policy %v", c.Policy)
	}
	return f.Validate(c, totalGPUs)
}

// String renders the schedule like the paper's Table 6 rows: families
// that schedule by encoding frequency show ND, the rest show Bm.
func (c Config) String() string {
	if f, ok := FamilyOf(c.Policy); ok && f.Caps.UsesND && !f.Caps.UsesBm {
		return fmt.Sprintf("%s{BE=%d BD=%d ND=%d TP=%dx%d}", c.Policy, c.BE, c.BD, c.ND, c.TP.Degree, c.TP.GPUs)
	}
	return fmt.Sprintf("%s{BE=%d BD=%d Bm=%d TP=%dx%d}", c.Policy, c.BE, c.BD, c.Bm, c.TP.Degree, c.TP.GPUs)
}

// Role describes what a pipeline stage executes.
type Role int

// Stage roles.
const (
	// RoleBoth: the stage holds both encoder and decoder layers (RRA).
	RoleBoth Role = iota
	// RoleEncode: dedicated encoding stage (WAA).
	RoleEncode
	// RoleDecode: dedicated decoding stage (WAA).
	RoleDecode
)

// Stage is one pipeline stage: a TP group of GPUs holding a contiguous
// span of layers.
type Stage struct {
	Role Role
	// FirstRank is the first GPU rank in the stage's TP group.
	FirstRank int
	// TP is the tensor-parallel degree (group size).
	TP int
	// EncLayers and DecLayers are the layer counts the stage holds.
	// For decoder-only models "encoder layers" are the decoding layers
	// used for input prefill (§2).
	EncLayers, DecLayers int
	// CrossNode reports whether the TP group spans machines (slower
	// collective link).
	CrossNode bool
}

// GPUs returns the stage's GPU count (== TP degree).
func (s Stage) GPUs() int { return s.TP }

// Allocation maps a schedule onto a cluster.
type Allocation struct {
	Policy Policy
	// Stages in pipeline order. For WAA, encode stages precede decode
	// stages and the two pipelines run asynchronously.
	Stages []Stage
	// EncGPUs and DecGPUs are the dedicated GPU counts (WAA);
	// zero for RRA, where all GPUs serve both roles.
	EncGPUs, DecGPUs int
}

// EncStages returns the stages that run encoding.
func (a Allocation) EncStages() []Stage {
	var out []Stage
	for _, s := range a.Stages {
		if s.Role == RoleEncode || s.Role == RoleBoth {
			out = append(out, s)
		}
	}
	return out
}

// DecStages returns the stages that run decoding.
func (a Allocation) DecStages() []Stage {
	var out []Stage
	for _, s := range a.Stages {
		if s.Role == RoleDecode || s.Role == RoleBoth {
			out = append(out, s)
		}
	}
	return out
}

// TotalGPUs returns the GPUs covered by the allocation.
func (a Allocation) TotalGPUs() int {
	n := 0
	for _, s := range a.Stages {
		n += s.GPUs()
	}
	return n
}

// splitEven distributes total layers over n stages as evenly as
// possible, front-loading remainders (FasterTransformer partitions
// encoders/decoders evenly across pipeline stages, §2).
func splitEven(total, n int) []int {
	out := make([]int, n)
	if n == 0 {
		return out
	}
	base, rem := total/n, total%n
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// buildStages lays out stage TP groups over consecutive ranks starting
// at firstRank: TP groups first, then single-GPU stages.
func buildStages(cluster hw.Cluster, firstRank, gpus int, tp TPSpec, role Role) []Stage {
	var stages []Stage
	rank := firstRank
	if tp.Degree > 1 {
		groups := tp.GPUs / tp.Degree
		for g := 0; g < groups && rank+tp.Degree <= firstRank+gpus; g++ {
			stages = append(stages, Stage{
				Role: role, FirstRank: rank, TP: tp.Degree,
				CrossNode: cluster.GroupLink(rank, tp.Degree).Name == cluster.InterNode.Name,
			})
			rank += tp.Degree
		}
	}
	for ; rank < firstRank+gpus; rank++ {
		stages = append(stages, Stage{Role: role, FirstRank: rank, TP: 1})
	}
	return stages
}

// AllocateRRA produces the Round-Robin Allocation: every GPU (or TP
// group) receives E/N consecutive encoders and D/N consecutive decoders
// (§4.1, Figure 3 top).
func AllocateRRA(m model.Model, cluster hw.Cluster, tp TPSpec) (Allocation, error) {
	n := cluster.TotalGPUs()
	if err := tp.Validate(n); err != nil {
		return Allocation{}, err
	}
	stages := buildStages(cluster, 0, n, tp, RoleBoth)
	encTotal := m.EncLayers
	if m.DecoderOnly() {
		// Decoder-only models prefill through the decoder layers.
		encTotal = m.DecLayers
	}
	encSplit := splitEven(encTotal, len(stages))
	decSplit := splitEven(m.DecLayers, len(stages))
	for i := range stages {
		stages[i].EncLayers = encSplit[i]
		stages[i].DecLayers = decSplit[i]
	}
	return Allocation{Policy: RRA, Stages: stages}, nil
}

// WAASplit computes the encoder/decoder GPU split.
//
// WAA-C (§4.1): encGPUs = round(N * CE/(CE+CD)) where CE, CD are the
// estimated per-batch encoding and decoding stage times. WAA-M balances
// estimated per-GPU memory instead: encBytes and decBytes are the total
// memory footprints of the encoding and decoding sides.
func WAASplit(n int, policy Policy, ce, cd float64, encBytes, decBytes int64) (encGPUs, decGPUs int, err error) {
	if n < 2 {
		return 0, 0, fmt.Errorf("sched: WAA needs >= 2 GPUs, have %d", n)
	}
	var frac float64
	switch policy {
	case WAAC:
		if ce <= 0 || cd <= 0 {
			return 0, 0, fmt.Errorf("sched: WAA-C needs positive cost estimates (ce=%v cd=%v)", ce, cd)
		}
		frac = ce / (ce + cd)
	case WAAM:
		if encBytes <= 0 || decBytes <= 0 {
			return 0, 0, fmt.Errorf("sched: WAA-M needs positive memory estimates")
		}
		frac = float64(encBytes) / float64(encBytes+decBytes)
	default:
		return 0, 0, fmt.Errorf("sched: %v is not a WAA policy", policy)
	}
	encGPUs = int(float64(n)*frac + 0.5)
	if encGPUs < 1 {
		encGPUs = 1
	}
	if encGPUs > n-1 {
		encGPUs = n - 1
	}
	return encGPUs, n - encGPUs, nil
}

// AllocateWAA produces the Workload-Aware Allocation: encGPUs dedicated
// encoding stages followed by decGPUs dedicated decoding stages, run
// asynchronously (§4.1, Figure 3 bottom). The TP spec applies to the
// decoding pipeline (where latency accumulates over many iterations).
func AllocateWAA(m model.Model, cluster hw.Cluster, policy Policy, encGPUs, decGPUs int, tp TPSpec) (Allocation, error) {
	if !policy.IsWAA() {
		return Allocation{}, fmt.Errorf("sched: %v is not a WAA policy", policy)
	}
	return allocatePools(m, cluster, policy, encGPUs, decGPUs, tp)
}

// allocatePools lays out the dedicated-pool allocation shared by every
// DedicatedPools family: encGPUs encoding stages followed by decGPUs
// decoding stages, TP applied to the decode pipeline.
func allocatePools(m model.Model, cluster hw.Cluster, policy Policy, encGPUs, decGPUs int, tp TPSpec) (Allocation, error) {
	n := cluster.TotalGPUs()
	if encGPUs < 1 || decGPUs < 1 || encGPUs+decGPUs != n {
		return Allocation{}, fmt.Errorf("sched: WAA split %d+%d must cover %d GPUs", encGPUs, decGPUs, n)
	}
	if err := tp.Validate(decGPUs); err != nil {
		return Allocation{}, err
	}
	encStages := buildStages(cluster, 0, encGPUs, TPSpec{Degree: 1}, RoleEncode)
	decStages := buildStages(cluster, encGPUs, decGPUs, tp, RoleDecode)

	encTotal := m.EncLayers
	if m.DecoderOnly() {
		encTotal = m.DecLayers
	}
	encSplit := splitEven(encTotal, len(encStages))
	for i := range encStages {
		encStages[i].EncLayers = encSplit[i]
	}
	decSplit := splitEven(m.DecLayers, len(decStages))
	for i := range decStages {
		decStages[i].DecLayers = decSplit[i]
	}
	return Allocation{
		Policy:  policy,
		Stages:  append(encStages, decStages...),
		EncGPUs: encGPUs,
		DecGPUs: decGPUs,
	}, nil
}

// WeightBytesPerGPU returns the model-weight bytes held by each GPU of
// the given stage (layer shards divide across the TP group).
func WeightBytesPerGPU(m model.Model, s Stage) int64 {
	var b int64
	encLayerBytes := m.EncLayerBytes()
	if m.DecoderOnly() {
		encLayerBytes = m.DecLayerBytes()
	}
	switch s.Role {
	case RoleBoth:
		// RRA GPUs hold their encoder and decoder layer shares. For
		// decoder-only models the same decoder layers serve both phases,
		// so only the decoder share is stored.
		if m.DecoderOnly() {
			b = int64(s.DecLayers) * m.DecLayerBytes()
		} else {
			b = int64(s.EncLayers)*encLayerBytes + int64(s.DecLayers)*m.DecLayerBytes()
		}
	case RoleEncode:
		b = int64(s.EncLayers) * encLayerBytes
	case RoleDecode:
		b = int64(s.DecLayers) * m.DecLayerBytes()
	}
	return b / int64(s.TP)
}

// Deployment records which cluster and GPU count a model runs on
// (Table 2).
type Deployment struct {
	Model   model.Model
	Cluster hw.Cluster
	GPUs    int
}

// DefaultDeployments mirrors Table 2.
var DefaultDeployments = []Deployment{
	{Model: model.T511B, Cluster: hw.A40Cluster, GPUs: 8},
	{Model: model.OPT13B, Cluster: hw.A40Cluster, GPUs: 4},
	{Model: model.GPT339B, Cluster: hw.A40Cluster, GPUs: 16},
	{Model: model.GPT3101B, Cluster: hw.A100Cluster, GPUs: 16},
	{Model: model.GPT3175B, Cluster: hw.A100Cluster, GPUs: 16},
	{Model: model.GPT3175B, Cluster: hw.A40Cluster, GPUs: 32},
	{Model: model.GPT3341B, Cluster: hw.A40Cluster, GPUs: 48},
}

// DeploymentFor returns the default deployment of a model, preferring
// the first Table 2 entry.
func DeploymentFor(name string) (Deployment, error) {
	for _, d := range DefaultDeployments {
		if d.Model.Name == name {
			return d, nil
		}
	}
	return Deployment{}, fmt.Errorf("sched: no default deployment for model %q", name)
}
