package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchSpec is BENCHMARK.json: the metrics every workload reports, with
// the bound by which each may worsen.
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec() (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

// declared is what a plain (end-to-end) or traced (per-layer) run must
// report.
func (s benchSpec) declared(traced bool) []specMetric {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

func bound(b float64) *float64 { return &b }

// workloadMetrics are the end-to-end metrics only one workload has, so
// they sit in the result files and the printed table rather than in
// BENCHMARK.json, whose metrics every workload reports. Simulated
// outcomes are deterministic at a seed, so their bound is 0.
var workloadMetrics = []specMetric{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: bound(0.10)},
	{Name: "search_ms_p50", Unit: "ms", Better: "lower", Bound: bound(0.10)},
	{Name: "search_ms_p99", Unit: "ms", Better: "lower", Bound: bound(0.10)},
	{Name: "search_samples", Unit: "count", Better: "higher", Bound: bound(0)},
	{Name: "exegpt_vs_ft_x", Unit: "x", Better: "higher", Bound: bound(0)},
	{Name: "bound_violations", Unit: "count", Better: "lower", Bound: bound(0)},
	{Name: "selections", Unit: "count", Better: "higher", Bound: bound(0)},
	{Name: "est_tput_err_p50", Unit: "share", Better: "lower", Bound: bound(0)},
	{Name: "max_rate_S_rps", Unit: "req/s", Better: "higher", Bound: bound(0)},
	{Name: "max_rate_C2_rps", Unit: "req/s", Better: "higher", Bound: bound(0)},
	{Name: "slo_attain", Unit: "share", Better: "higher", Bound: bound(0)},
	{Name: "p99_S_12rps_s", Unit: "s", Better: "lower", Bound: bound(0)},
	{Name: "p99_C2_4rps_s", Unit: "s", Better: "lower", Bound: bound(0)},
	{Name: "failed_frac", Unit: "share", Better: "lower", Bound: bound(0)},
}

// lookup finds a metric's definition: BENCHMARK.json first, then the
// workload-only metrics. Per-layer metrics carry no bound.
func (s benchSpec) lookup(name string) (specMetric, bool) {
	for _, set := range [][]specMetric{s.EndToEnd, s.PerLayer, workloadMetrics} {
		for _, m := range set {
			if m.Name == name {
				return m, true
			}
		}
	}
	return specMetric{}, false
}
