package main

import (
	"encoding/json"
	"flag"
	"fmt"

	"exegpt/internal/atomicfile"
	"exegpt/internal/serve"
)

// cmdServe runs the online serving loop: open-loop arrivals into the
// incremental runner engine, with adaptive schedule switching.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	newCtx := commonFlags(fs)
	resolve := targetFlags(fs)
	policySet := fs.String("policies", "all", "policy set: rra, waa, disagg or all")
	arrival := fs.String("arrival", "poisson", "arrival process: poisson, mmpp, diurnal or step")
	rate := fs.Float64("rate", 2, "mean arrival rate in requests/second")
	duration := fs.Float64("duration", 300, "serving duration in virtual seconds (arrivals stop, then the backlog drains)")
	slo := fs.Float64("slo", 0, "per-request latency SLO in seconds (0 = none); bounds the schedule search and counts violations")
	window := fs.Float64("window", 10, "stats/controller window width in seconds")
	switchCost := fs.Float64("switch-cost", 5, "modeled TP re-shard downtime per schedule switch, in virtual seconds")
	driftTol := fs.Float64("drift-tol", 0.25, "relative arrival-rate/length drift that triggers a controller evaluation")
	checkEvery := fs.Int("check-every", 3, "controller period in windows")
	stepAt := fs.Float64("step-at", 0, "step arrivals: time of the rate step in seconds")
	stepFactor := fs.Float64("step-factor", 0, "step arrivals: rate multiplier after the step")
	jsonOut := fs.String("json", "", "also write the JSON report artifact to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	tgt, err := resolve()
	if err != nil {
		return err
	}
	groups, err := parsePolicies(*policySet)
	if err != nil {
		return err
	}

	ctx := newCtx()
	d, err := ctx.Deploy(tgt.model, tgt.cluster, tgt.gpus, tgt.task)
	if err != nil {
		return err
	}

	rep, err := serve.Run(d, serve.Options{
		Arrival:    *arrival,
		Rate:       *rate,
		Duration:   *duration,
		Seed:       ctx.Seed,
		SLO:        *slo,
		Window:     *window,
		SwitchCost: *switchCost,
		DriftTol:   *driftTol,
		CheckEvery: *checkEvery,
		StepAt:     *stepAt,
		StepFactor: *stepFactor,
		Policies:   flattenPolicies(groups),
	})
	if err != nil {
		return err
	}
	fmt.Print(rep.Summary())
	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := atomicfile.Write(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", *jsonOut)
	}
	return nil
}
