# Mirrors the CI jobs in .github/workflows/ci.yml.

GO ?= go

.PHONY: all build test race lint bench sweep-smoke sweep-golden figures-golden serve-smoke serve-golden policy-conformance clean

all: build

build:
	$(GO) build ./...
	$(GO) build -o exegpt ./cmd/exegpt

test:
	$(GO) test ./...

# Race-detect the concurrency-critical packages: the parallel scheduler
# search, the runner engines, the parallel experiment sweep (cells on a
# worker pool sharing one profile memo), the atomic file writes, and the
# serving loop.
race:
	$(GO) test -race ./internal/core/... ./internal/runner/... ./internal/experiments/... ./internal/par/... ./internal/atomicfile/... ./internal/serve/...

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

# The stdout of the full `exegpt figures` and `exegpt tables` is pinned
# byte for byte in cmd/exegpt/testdata by TestFiguresTablesMatchGolden
# (tier-1). A deliberate behavior change regenerates it here.
figures-golden:
	UPDATE_GOLDEN=1 $(GO) test ./cmd/exegpt -run '^TestFiguresTablesMatchGolden$$'

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
# sequential/parallel/multi-bound and warm/cold schedule search and the
# RRA+WAA-C search of BenchmarkSchedulerBB, then time the three ways
# to price a decode iteration, the event simulator's schedule/fire
# paths and one serve-ladder rung (BenchmarkServeRung: OPT-13B/4xA40,
# task S, Poisson 24 req/s for 600 virtual seconds). The end-to-end
# benchmark is `sh bench/run.sh`.
bench:
	$(GO) test -bench 'FindBest|Estimate|SchedulerBB' -run '^$$' -benchmem ./internal/core/
	$(GO) test -bench 'DecodePricers' -run '^$$' -benchmem ./internal/profile/
	$(GO) test -bench . -run '^$$' -benchmem ./internal/eventsim/
	$(GO) test -bench 'ServeRung' -run '^$$' -benchmem ./internal/serve/

clean:
	rm -f exegpt
	rm -rf $(SWEEP_DIR) $(SERVE_DIR)
