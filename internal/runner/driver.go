// Execution-driver registry: the runner's end of the per-family
// dispatch. A family's capability flags select its driver — dedicated
// encode/decode pools run as asynchronous encoder and decoder
// pipelines, shared pools as the synchronized cycle — so a family
// registered in sched runs on the engine (Engine.Run and OpenRun alike)
// without a new policy branch here.
package runner

import (
	"fmt"

	"exegpt/internal/sched"
)

// driver binds one capability class of families onto an OpenRun:
// openInit sets up its pipeline state and event callbacks, and openWake
// restarts admission when an arrival finds the engine parked.
type driver interface {
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

func (syncDriver) openInit(o *OpenRun) error {
	o.onDecode, o.onStep = o.rraDecode, o.rraStep
	return nil
}

func (syncDriver) openWake(o *OpenRun) { o.rraCycle() }

// pooledDriver runs dedicated-pool families as asynchronous encoder and
// decoder pipelines on the discrete-event simulator (Figure 4(b)).
type pooledDriver struct{}

func (pooledDriver) openInit(o *OpenRun) error {
	encStages, decStages := o.alloc.EncStages(), o.alloc.DecStages()
	if len(encStages) == 0 || len(decStages) == 0 {
		return fmt.Errorf("runner: WAA needs dedicated encode and decode stages")
	}
	o.bm = min(o.cfg.Bm, len(decStages))
	// The encoder pipeline naturally holds one batch per stage, and the
	// KV handover keeps more in flight; bound the buffer so the encoder
	// is never throttled below its steady issue rate but cannot run
	// unboundedly ahead of the decoder.
	o.maxInflight = len(encStages) + 3
	o.onEncode, o.onStep = o.startEncode, o.waaStep
	return nil
}

func (pooledDriver) openWake(o *OpenRun) { o.startEncode() }
