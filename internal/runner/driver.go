// Execution-driver registry: the runner's end of the per-family
// dispatch. A family's capability flags select its driver — dedicated
// encode/decode pools run on the asynchronous eventsim driver, shared
// pools on the synchronized cycle driver — so a family registered in
// sched lands in both the batch Run and incremental OpenRun engines
// without a new policy branch here.
package runner

import (
	"fmt"

	"exegpt/internal/sched"
	"exegpt/internal/workload"
)

// driver executes schedules for one capability class of families. Both
// engines route through it: runBatch drains a pre-drawn request slice
// (Engine.Run) over the allocation's decode stages; openInit/openWake
// bind the incremental OpenRun's pipeline state and admission restart.
type driver interface {
	runBatch(e *Engine, cfg sched.Config, alloc sched.Allocation, reqs []workload.Request, states []*stageState) (Result, error)
	openInit(o *OpenRun) error
	openWake(o *OpenRun)
}

// driverByCaps maps a family's capabilities onto its driver.
func driverByCaps(c sched.Caps) driver {
	if c.DedicatedPools {
		return pooledDriver{}
	}
	return syncDriver{}
}

// driverFor resolves the driver for a policy from the family registry.
func driverFor(p sched.Policy) (driver, error) {
	if f, ok := sched.FamilyOf(p); ok {
		return driverByCaps(f.Caps), nil
	}
	return nil, fmt.Errorf("runner: no driver for policy %v", p)
}

// syncDriver runs the synchronized phase loop of shared-pool families
// (one encoding phase then ND decoding iterations, Figure 4(a)).
type syncDriver struct{}

func (syncDriver) runBatch(e *Engine, cfg sched.Config, alloc sched.Allocation, reqs []workload.Request, states []*stageState) (Result, error) {
	return e.runRRA(cfg, alloc, reqs, states)
}

func (syncDriver) openInit(o *OpenRun) error { return nil }

func (syncDriver) openWake(o *OpenRun) { o.rraCycle() }

// pooledDriver runs dedicated-pool families as asynchronous encoder and
// decoder pipelines on the discrete-event simulator (Figure 4(b)).
type pooledDriver struct{}

func (pooledDriver) runBatch(e *Engine, cfg sched.Config, alloc sched.Allocation, reqs []workload.Request, states []*stageState) (Result, error) {
	return e.runWAA(cfg, alloc, reqs, states)
}

func (pooledDriver) openInit(o *OpenRun) error {
	encStages, decStages := o.alloc.EncStages(), o.alloc.DecStages()
	if len(encStages) == 0 || len(decStages) == 0 {
		return fmt.Errorf("runner: WAA needs dedicated encode and decode stages")
	}
	o.bm = min(o.cfg.Bm, len(decStages))
	// Same in-flight bound as the batch engine: the encoder pipeline
	// holds one batch per stage plus handover slack.
	o.maxInflight = len(encStages) + 3
	return nil
}

func (pooledDriver) openWake(o *OpenRun) { o.startEncode() }
