// Package distsweep is the result side of a distributed evaluation
// sweep: the wire unit a sweep worker ships per evaluated cell, and the
// fold that turns a complete cell set back into what a single-process
// sweep produces.
//
// A sweep grid flattens into a canonical cell list
// (experiments.SweepGrid.Cells). A pull worker (internal/dispatch)
// streams one versioned CellEnvelope per evaluated cell, stamped with
// the grid fingerprint, so the coordinator can account for — and
// re-lease — individual cells. MergeCells checks that the envelopes
// form exactly one coherent cover of the grid — same format version,
// same fingerprint, same grid size, every cell exactly once — and Fold
// reduces the cells into the rows, eval counts and per-deployment
// Pareto frontiers a single-process Sweep produces, bit-identically.
// The single-process `exegpt sweep` goes through the same Fold, so the
// two artifacts are byte-identical by construction.
//
// The rows come back by concatenating cells in grid order. The
// frontiers come back by folding every cell's per-policy-group frontier
// into one core.Frontier per (model, cluster, GPUs, policy group) —
// the cross-task latency→throughput envelope of that deployment —
// which is well-defined because Frontier.Merge is order-independent.
package distsweep

import (
	"encoding/json"
	"fmt"
	"sort"

	"exegpt/internal/atomicfile"
	"exegpt/internal/core"
	"exegpt/internal/experiments"
)

// EnvelopeVersion is the cell envelope format version. The coordinator
// refuses envelopes written by a different version rather than guessing
// at field semantics.
const EnvelopeVersion = 1

// CellEnvelope is the versioned result of one evaluated sweep cell.
type CellEnvelope struct {
	Version int `json:"version"`
	// Fingerprint identifies the (grid, context) the cell was cut from
	// (experiments.Context.GridFingerprint); cells only merge with cells
	// carrying the same fingerprint.
	Fingerprint string `json:"fingerprint"`
	// Total is the grid's full cell count; the cell's index lies in
	// 0..Total-1 and a merge needs exactly one envelope per index.
	Total  int                    `json:"total"`
	Result experiments.CellResult `json:"result"`
}

// NewCellEnvelope stamps one cell result for the dispatch coordinator.
func NewCellEnvelope(fingerprint string, total int, result experiments.CellResult) *CellEnvelope {
	return &CellEnvelope{
		Version: EnvelopeVersion, Fingerprint: fingerprint,
		Total: total, Result: result,
	}
}

// validate checks the envelope's internal consistency.
func (e *CellEnvelope) validate() error {
	if e.Version != EnvelopeVersion {
		return fmt.Errorf("distsweep: cell envelope version %d, this build reads %d", e.Version, EnvelopeVersion)
	}
	if e.Fingerprint == "" {
		return fmt.Errorf("distsweep: cell envelope missing grid fingerprint")
	}
	if e.Total < 1 {
		return fmt.Errorf("distsweep: cell envelope total %d < 1", e.Total)
	}
	if e.Result.Cell < 0 || e.Result.Cell >= e.Total {
		return fmt.Errorf("distsweep: cell index %d out of range 0..%d", e.Result.Cell, e.Total-1)
	}
	return nil
}

// Encode renders the envelope as indented JSON with a trailing newline.
func (e *CellEnvelope) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeCell parses and validates a cell envelope. Truncated or
// otherwise corrupt JSON, an unknown format version, and inconsistent
// metadata all fail with a descriptive error.
func DecodeCell(data []byte) (*CellEnvelope, error) {
	var e CellEnvelope
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("distsweep: corrupt cell envelope: %w", err)
	}
	if err := e.validate(); err != nil {
		return nil, err
	}
	return &e, nil
}

// DeploymentFrontier is the merged cross-task Pareto frontier of one
// (deployment, policy group): every feasible (latency, throughput)
// point any task's schedule search discovered on that hardware with
// that policy family, Pareto-reduced.
type DeploymentFrontier struct {
	Model    string        `json:"model"`
	Cluster  string        `json:"cluster"`
	GPUs     int           `json:"gpus"`
	Group    string        `json:"group"`
	Frontier core.Frontier `json:"frontier"`
}

// Merged is the folded sweep: exactly what a single-process sweep over
// the same grid produces. Rows are in grid order; Evals is the total
// schedule-search evaluation count; Frontiers are sorted by (model,
// cluster, GPUs, group). Nothing in it depends on how the cells were
// distributed, so every sweep mode writes the same bytes.
type Merged struct {
	Fingerprint string                 `json:"fingerprint"`
	Cells       int                    `json:"cells"`
	Evals       int                    `json:"evals"`
	Rows        []experiments.SweepRow `json:"rows"`
	Frontiers   []DeploymentFrontier   `json:"frontiers"`
}

// Encode renders the merged sweep as indented JSON with a trailing
// newline. The encoding is deterministic: no maps, and every float
// round-trips bit-exactly.
func (m *Merged) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteFile atomically writes the merged sweep to path.
func (m *Merged) WriteFile(path string) error {
	data, err := m.Encode()
	if err != nil {
		return err
	}
	return atomicfile.Write(path, data, 0o644)
}

// MergeCells folds a complete cell-envelope set into one sweep result.
// It fails — rather than silently merging — when envelopes disagree on
// format version, fingerprint or grid size, or when the set is not
// exactly one envelope per cell 0..Total-1. Arrival order does not
// matter.
func MergeCells(envs []*CellEnvelope) (*Merged, error) {
	if len(envs) == 0 {
		return nil, fmt.Errorf("distsweep: no cell envelopes to merge")
	}
	ref := envs[0]
	cells := make([]experiments.CellResult, 0, len(envs))
	for _, e := range envs {
		if err := e.validate(); err != nil {
			return nil, err
		}
		if e.Fingerprint != ref.Fingerprint {
			return nil, fmt.Errorf("distsweep: grid fingerprint mismatch: cell %d has %.12s…, cell %d has %.12s…",
				ref.Result.Cell, ref.Fingerprint, e.Result.Cell, e.Fingerprint)
		}
		if e.Total != ref.Total {
			return nil, fmt.Errorf("distsweep: grid size mismatch: %d vs %d cells", ref.Total, e.Total)
		}
		cells = append(cells, e.Result)
	}
	if len(envs) != ref.Total {
		return nil, fmt.Errorf("distsweep: incomplete cell set: have %d of %d", len(envs), ref.Total)
	}
	return Fold(ref.Fingerprint, cells)
}

// Fold reduces a complete cell set into the Merged output. The cells
// may arrive in any order but must cover the grid 0..len-1 exactly
// once; Fold sorts them in place.
func Fold(fingerprint string, cells []experiments.CellResult) (*Merged, error) {
	sort.Slice(cells, func(i, j int) bool { return cells[i].Cell < cells[j].Cell })
	for i, c := range cells {
		if c.Cell != i {
			return nil, fmt.Errorf("distsweep: cell coverage broken at grid index %d (found cell %d): workers did not cover the grid exactly once", i, c.Cell)
		}
	}

	m := &Merged{Fingerprint: fingerprint, Cells: len(cells)}
	type key struct {
		model, cluster string
		gpus           int
		group          string
	}
	frontiers := map[key]*core.Frontier{}
	var order []key
	for _, c := range cells {
		m.Evals += c.Evals
		m.Rows = append(m.Rows, c.Rows...)
		for i := range c.Frontiers {
			gf := &c.Frontiers[i]
			k := key{model: gf.Model, cluster: gf.Cluster, gpus: gf.GPUs, group: gf.Group}
			f, ok := frontiers[k]
			if !ok {
				f = &core.Frontier{}
				frontiers[k] = f
				order = append(order, k)
			}
			f.Merge(&gf.Frontier)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.model != b.model {
			return a.model < b.model
		}
		if a.cluster != b.cluster {
			return a.cluster < b.cluster
		}
		if a.gpus != b.gpus {
			return a.gpus < b.gpus
		}
		return a.group < b.group
	})
	for _, k := range order {
		m.Frontiers = append(m.Frontiers, DeploymentFrontier{
			Model: k.model, Cluster: k.cluster, GPUs: k.gpus, Group: k.group,
			Frontier: *frontiers[k],
		})
	}
	return m, nil
}
