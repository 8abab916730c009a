# Mirrors the CI jobs in .github/workflows/ci.yml.

GO ?= go

.PHONY: all build test race lint bench bench-report sweep-smoke sweep-golden serve-smoke serve-golden policy-conformance clean

all: build

build:
	$(GO) build ./...
	$(GO) build -o exegpt ./cmd/exegpt

test:
	$(GO) test ./...

# Race-detect the concurrency-critical packages: the parallel scheduler
# search, the runner engines, the parallel experiment sweep, the
# distributed-sweep fold (concurrent workers sharing one profile
# cache), and the work-stealing dispatcher.
race:
	$(GO) test -race ./internal/core/... ./internal/runner/... ./internal/experiments/... ./internal/par/... ./internal/distsweep/... ./internal/atomicfile/... ./internal/dispatch/... ./internal/serve/...

# Sweep smoke: run a small deterministic sweep (one deployment, two
# tasks) and require its JSON artifact (rows, schedule-eval count,
# per-deployment frontiers) to be byte-identical to the committed
# golden. A deliberate behavior change regenerates the golden with
# `make sweep-golden`.
SWEEP_DIR := .sweep-demo
SWEEP_FLAGS := -quick -models OPT-13B -tasks S,T
sweep-smoke: build
	rm -rf $(SWEEP_DIR) && mkdir -p $(SWEEP_DIR)
	./exegpt sweep $(SWEEP_FLAGS) -json $(SWEEP_DIR)/sweep.json > /dev/null
	cmp GOLDEN_sweep.json $(SWEEP_DIR)/sweep.json
	@echo "sweep artifact == committed golden (byte-identical)"

sweep-golden: build
	./exegpt sweep $(SWEEP_FLAGS) -json GOLDEN_sweep.json > /dev/null

# Online-serving smoke: run a deterministic serving scenario — a rate
# step that fires one schedule switch — and require the JSON artifact
# to be byte-identical to the committed golden. A deliberate behavior
# change regenerates the golden with `make serve-golden`.
SERVE_DIR := .serve-demo
SERVE_FLAGS := -quick -arrival step -rate 1 -step-at 40 -step-factor 8 \
	-duration 120 -slo 5 -window 5 -switch-cost 2 -check-every 2
serve-smoke: build
	rm -rf $(SERVE_DIR) && mkdir -p $(SERVE_DIR)
	./exegpt serve $(SERVE_FLAGS) -json $(SERVE_DIR)/serve.json > /dev/null
	cmp GOLDEN_serve.json $(SERVE_DIR)/serve.json
	@echo "serve artifact == committed golden (byte-identical)"

serve-golden: build
	./exegpt serve $(SERVE_FLAGS) -json GOLDEN_serve.json > /dev/null

# Execution-policy seam: run the per-family conformance suite under the
# race detector and forbid new policy-identity branches outside the
# sched registry.
policy-conformance:
	$(GO) test -race ./internal/sched/familytest/
	./scripts/policy_gate.sh

lint:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

# Compare the reference and Evaluator estimate paths plus the
# sequential/parallel/multi-bound schedule search.
bench:
	$(GO) test -bench 'FindBest|Estimate' -run '^$$' -benchmem ./internal/core/

# Regenerate the committed Estimate/FindBest and multi-bound sweep
# perf reports.
bench-report: build
	./exegpt bench -time 1 -out BENCH_estimate.json -sweep-out BENCH_sweep.json

clean:
	rm -f exegpt
	rm -rf $(SWEEP_DIR) $(SERVE_DIR)
