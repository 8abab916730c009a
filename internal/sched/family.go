// Execution-policy family registry: the single seam through which the
// runner, the simulator/evaluator estimate paths, and the B&B schedule
// search learn about a policy. A family registers its name, capability
// flags, search axes, config validation and TP branch admission here;
// the other layers ask the registry instead of switching on Policy
// values. Its allocation builder (AllocateRRA, AllocateWAA,
// AllocateDisagg) is called by the family's own estimators in core.
// Adding a policy means registering a Family (plus per-family
// estimators in core) — no switch in core or runner grows a new arm.
package sched

import (
	"fmt"
	"sort"
	"strconv"
)

// Caps are a family's capability flags, replacing ad-hoc IsWAA checks.
type Caps struct {
	// DedicatedPools: encoding and decoding run on disjoint GPU pools as
	// asynchronous pipelines (WAA-shaped allocations with RoleEncode /
	// RoleDecode stages). False means every GPU serves both roles
	// (RRA-shaped, RoleBoth).
	DedicatedPools bool
	// UsesND: the ND control variable (decoding iterations per encoding
	// phase) is meaningful for this family.
	UsesND bool
	// UsesBm: the Bm control variable (decoder micro-batches) is
	// meaningful for this family.
	UsesBm bool
}

// AxisKind names a B&B root-branch search axis; the scheduler maps each
// kind onto a concrete value ladder bounded by its MaxBatch/MaxND/MaxBm
// knobs.
type AxisKind int

// Search axes.
const (
	// AxisBD ranges the decoder batch size over 1..MaxBatch.
	AxisBD AxisKind = iota
	// AxisBE ranges the encoder batch size over 1..MaxBatch/4.
	AxisBE
	// AxisND ranges the decoding iterations per encoding phase.
	AxisND
	// AxisBm ranges the decoder micro-batch count.
	AxisBm
)

// Family describes one execution-policy family to every layer.
type Family struct {
	Policy Policy
	// Name is the canonical render of the policy (Policy.String and the
	// JSON encoding).
	Name string
	// Group labels the policy's sweep system row (policies searched
	// together report under one group label).
	Group string
	Caps  Caps
	// Axes are the family's B&B root-branch search axes in split order.
	Axes []AxisKind
	// Validate checks the family-specific control variables; the common
	// TP/batch checks run before it.
	Validate func(c Config, totalGPUs int) error
	// AdmitTP reports whether a (policy, TP) pair can root a B&B branch
	// on a cluster of totalGPUs.
	AdmitTP func(tp TPSpec, totalGPUs int) bool
}

var families = map[Policy]Family{}

// Register adds a family to the registry; duplicate policies or names
// panic (registration is an init-time programming contract).
func Register(f Family) {
	if _, dup := families[f.Policy]; dup {
		panic(fmt.Sprintf("sched: duplicate family for policy %d", int(f.Policy)))
	}
	if f.Name == "" || f.Validate == nil || f.AdmitTP == nil {
		panic(fmt.Sprintf("sched: incomplete family %q", f.Name))
	}
	for _, g := range families {
		if g.Name == f.Name {
			panic(fmt.Sprintf("sched: duplicate family name %q", f.Name))
		}
	}
	families[f.Policy] = f
}

// FamilyOf returns the registered family for a policy.
func FamilyOf(p Policy) (Family, bool) {
	f, ok := families[p]
	return f, ok
}

// Families returns every registered family in canonical Policy order.
func Families() []Family {
	out := make([]Family, 0, len(families))
	for _, f := range families {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Policy < out[j].Policy })
	return out
}

// MarshalJSON encodes the policy as its family name, so JSON artifacts
// stay meaningful as families become pluggable.
func (p Policy) MarshalJSON() ([]byte, error) {
	return []byte(strconv.Quote(p.String())), nil
}

// admitAnyTP admits every valid TP spec (shared-pool families).
func admitAnyTP(TPSpec, int) bool { return true }

// admitPoolTP rejects TP groups that span the whole cluster: the decode
// pool cannot take every GPU when a dedicated encode pool must exist.
func admitPoolTP(tp TPSpec, totalGPUs int) bool { return tp.GPUs < totalGPUs }

// validatePoolConfig is the shared Bm/GPU-count check of the
// dedicated-pool families (§4.1).
func validatePoolConfig(c Config, totalGPUs int) error {
	if c.Bm < 1 {
		return fmt.Errorf("sched: WAA requires Bm >= 1, got %d", c.Bm)
	}
	if totalGPUs < 2 {
		return fmt.Errorf("sched: WAA requires at least 2 GPUs (dedicated encode and decode)")
	}
	return nil
}

// waaFamily builds the Family for one WAA variant; the two differ only
// in Policy/Name (the split rule dispatches inside WAASplit).
func waaFamily(p Policy, name string) Family {
	return Family{
		Policy: p,
		Name:   name,
		Group:  "ExeGPT-WAA",
		Caps:   Caps{DedicatedPools: true, UsesBm: true},
		Axes:   []AxisKind{AxisBE, AxisBm},
		Validate: func(c Config, totalGPUs int) error {
			return validatePoolConfig(c, totalGPUs)
		},
		AdmitTP: admitPoolTP,
	}
}

func init() {
	Register(Family{
		Policy: RRA,
		Name:   "RRA",
		Group:  "ExeGPT-RRA",
		Caps:   Caps{UsesND: true},
		Axes:   []AxisKind{AxisBD, AxisND},
		Validate: func(c Config, totalGPUs int) error {
			if c.ND < 1 {
				return fmt.Errorf("sched: RRA requires ND >= 1, got %d", c.ND)
			}
			return nil
		},
		AdmitTP: admitAnyTP,
	})
	Register(waaFamily(WAAC, "WAA-C"))
	Register(waaFamily(WAAM, "WAA-M"))
}
