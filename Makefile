# Mirrors the CI jobs in .github/workflows/ci.yml.

GO ?= go

.PHONY: all build test race lint bench bench-report sweep-smoke sweep-golden sweep-dispatch serve-smoke serve-golden policy-conformance clean

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

# End-to-end dispatched sweep on one box: an HTTP coordinator (`sweep
# -mode dispatch`) plus two pull workers attaching over TCP, one killed
# right after launch so its leases requeue (a late-attaching worker
# takes over). The merged artifact and the printed table must be
# byte-identical to the single-process sweep's.
DISPATCH_DIR := .dispatch-demo
DISPATCH_ADDR := 127.0.0.1:18080
sweep-dispatch: build
	rm -rf $(DISPATCH_DIR) && mkdir -p $(DISPATCH_DIR)/profiles
	./exegpt sweep -quick -models OPT-13B -tasks S,T \
		-profile-cache $(DISPATCH_DIR)/profiles -json $(DISPATCH_DIR)/single.json > $(DISPATCH_DIR)/single.txt
	./exegpt sweep -quick -models OPT-13B -tasks S,T -mode dispatch \
		-profile-cache $(DISPATCH_DIR)/profiles -http $(DISPATCH_ADDR) \
		-lease-timeout 3s -dispatch-idle 60s -json $(DISPATCH_DIR)/dispatched.json > $(DISPATCH_DIR)/dispatched.txt & \
	./exegpt sweep -quick -models OPT-13B -tasks S,T \
		-profile-cache $(DISPATCH_DIR)/profiles -mode pull -connect http://$(DISPATCH_ADDR) -worker-id w1 & \
	W1=$$!; sleep 0.3; kill -9 $$W1 2>/dev/null; \
	./exegpt sweep -quick -models OPT-13B -tasks S,T -dispatch-idle 15s \
		-profile-cache $(DISPATCH_DIR)/profiles -mode pull -connect http://$(DISPATCH_ADDR) -worker-id w2 || true; \
	wait
	cmp $(DISPATCH_DIR)/single.json $(DISPATCH_DIR)/dispatched.json
	diff $(DISPATCH_DIR)/single.txt $(DISPATCH_DIR)/dispatched.txt
	@echo "dispatched sweep == single-process sweep (byte-identical)"

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
	rm -rf $(DISPATCH_DIR) $(SWEEP_DIR) $(SERVE_DIR)
