// The skeletal disaggregated prefill/decode family: a proof of the
// pluggable policy seam. Like WAA it runs prefill (encode) and decode
// on disjoint GPU pools, but the split is a fixed even rule rather than
// workload-aware, and the KV handover is modeled on the critical path
// (pool-to-pool pull, no host staging overlap). It registers here and
// in core's per-family estimator registry; no switch anywhere grows an
// arm for it. Experimental: the CLI's `all` policy set and serve's
// default set leave it out; select it with `-policies disagg`.
package sched

import (
	"fmt"

	"exegpt/internal/hw"
	"exegpt/internal/model"
)

// Disagg is the disaggregated prefill/decode policy: dedicated prefill
// and decode pools split evenly, with the KV transfer between pools on
// the critical path.
const Disagg Policy = 3

// DisaggSplit divides n GPUs evenly between the pools, giving the
// KV-heavy decode pool the remainder.
func DisaggSplit(n int) (encGPUs, decGPUs int, err error) {
	if n < 2 {
		return 0, 0, fmt.Errorf("sched: disagg needs >= 2 GPUs, have %d", n)
	}
	encGPUs = n / 2
	return encGPUs, n - encGPUs, nil
}

// AllocateDisagg produces the disaggregated allocation: an even pool
// split laid out like WAA's dedicated pipelines (TP on the decode
// side).
func AllocateDisagg(m model.Model, cluster hw.Cluster, tp TPSpec) (Allocation, error) {
	encGPUs, decGPUs, err := DisaggSplit(cluster.TotalGPUs())
	if err != nil {
		return Allocation{}, err
	}
	return allocatePools(m, cluster, Disagg, encGPUs, decGPUs, tp)
}

func init() {
	Register(Family{
		Policy: Disagg,
		Name:   "DISAGG",
		Group:  "ExeGPT-PD",
		Caps:   Caps{DedicatedPools: true, UsesBm: true},
		Axes:   []AxisKind{AxisBE, AxisBm},
		Validate: func(c Config, totalGPUs int) error {
			if c.Bm < 1 {
				return fmt.Errorf("sched: disagg requires Bm >= 1, got %d", c.Bm)
			}
			if totalGPUs < 2 {
				return fmt.Errorf("sched: disagg requires at least 2 GPUs (dedicated prefill and decode pools)")
			}
			return nil
		},
		AdmitTP: admitPoolTP,
	})
}
