// Per-family estimator registry: the core half of the execution-policy
// seam. Each sched.Family registers its reference (Simulator) and fast
// (Evaluator) estimate implementations here — in a family_<name>.go
// file, which calls the family's sched allocation builder — and both
// Estimate entry points dispatch through the registry. Adding a family
// never grows a switch in this package; the sched/familytest
// conformance suite pins the two paths bit-identical for every
// registration.
package core

import (
	"fmt"

	"exegpt/internal/sched"
)

// familyEstimator couples one family's two estimate paths. ref is the
// reference timeline construction; fast is the memoized hot-loop
// variant, required bit-identical to ref (the golden and equivalence
// tests enforce this for the built-ins, familytest for any family).
type familyEstimator struct {
	ref  func(*Simulator, sched.Config) (Estimate, error)
	fast func(*Evaluator, sched.Config) (Estimate, error)
}

var familyEstimators = map[sched.Policy]familyEstimator{}

// registerEstimator wires a family's estimate paths into Simulator and
// Evaluator dispatch; both paths are mandatory by construction.
func registerEstimator(p sched.Policy, fe familyEstimator) {
	if _, dup := familyEstimators[p]; dup {
		panic(fmt.Sprintf("core: duplicate estimator for policy %v", p))
	}
	if fe.ref == nil || fe.fast == nil {
		panic(fmt.Sprintf("core: estimator for policy %v must implement both paths", p))
	}
	familyEstimators[p] = fe
}

// axesFor returns the search axes for a policy, mapping the family's
// declared axis kinds onto the scheduler's bounded value ladders.
// Unregistered policies fall back to the pool-family axes; their
// configs are rejected by Validate at evaluation time.
func (s *Scheduler) axesFor(policy sched.Policy) []Axis {
	kinds := []sched.AxisKind{sched.AxisBE, sched.AxisBm}
	if f, ok := sched.FamilyOf(policy); ok {
		kinds = f.Axes
	}
	axes := make([]Axis, len(kinds))
	for i, k := range kinds {
		switch k {
		case sched.AxisBD:
			axes[i] = batchAxis(sched.AxisBD, s.MaxBatch)
		case sched.AxisBE:
			axes[i] = batchAxis(sched.AxisBE, s.MaxBatch/4)
		case sched.AxisND:
			axes[i] = ndAxis(s.MaxND)
		case sched.AxisBm:
			axes[i] = bmAxis(s.MaxBm)
		default:
			panic(fmt.Sprintf("core: unknown axis kind %d for policy %v", int(k), policy))
		}
	}
	return axes
}

// admitBranch reports whether a (policy, TP) pair can root a search
// branch, asking the family registry. Unregistered policies are
// admitted so their configs surface as infeasible estimates rather
// than silently vanishing from the search.
func admitBranch(policy sched.Policy, tp sched.TPSpec, totalGPUs int) bool {
	if f, ok := sched.FamilyOf(policy); ok {
		return f.AdmitTP(tp, totalGPUs)
	}
	return true
}
