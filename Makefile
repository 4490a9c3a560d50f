# Developer entry points for the WiDir reproduction. `make check` is
# the pre-commit gate: build + vet + determinism lint + protocol-model
# conformance + shared-state certificate + exhaustive model checking +
# full test suite + race on the concurrency-bearing packages.

GO ?= go

.PHONY: build test race vet lint model mcheck vet-model repro bench bench-json bench-gate serve-smoke serve-cluster-smoke clean-cache check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The experiment runner fans simulations across goroutines, the
# machine package owns the results it publishes through it, the mesh,
# wireless and fault packages carry the shared state those parallel
# runs tick, the serve farm layers HTTP workers on top, and the
# cluster/client layers hedge requests across peers; these are the
# packages where a data race could hide.
race:
	$(GO) test -race ./internal/exp/ ./internal/machine/ ./internal/mesh/ ./internal/wireless/ ./internal/fault/ ./internal/serve/ ./internal/cluster/ ./cmd/widir-client/ ./cmd/widir-serve/

vet:
	$(GO) vet ./...

# Static determinism audit (DESIGN.md §10): mapiter, walltime,
# globalrand, floatorder, gonosync over the whole module.
lint:
	$(GO) run ./cmd/widir-lint ./...

# Protocol-model conformance (DESIGN.md §13): extract the dir and l1
# FSMs from internal/coherence and diff against the checked-in spec.
model:
	$(GO) run ./cmd/widir-model -check

# Exhaustive protocol model checking (DESIGN.md §15): explore every
# reachable state of the default model (3 L1s, ~1M canonical states,
# about a minute) and fail on any swmr / integrity / deadlock /
# liveness violation or spec-relation divergence. On failure the
# counterexample trace artifacts land in mcheck-cex.*.
mcheck:
	$(GO) run ./cmd/widir-mcheck -check \
	    -trace mcheck-cex.jsonl -perfetto mcheck-cex.perfetto.json

# Shared-state certificate (DESIGN.md §18): interprocedural effect
# analysis over the tick path, diffed against the checked-in ledger
# internal/vet/ledger.widirvet. Fails on unregistered, stale or
# unclassified state — rerun `go run ./cmd/widir-vet -update` after
# deliberate state changes and re-classify the TODO entries.
vet-model:
	$(GO) run ./cmd/widir-vet -check

# Reproduction gate: rerun the full paper evaluation at full scale
# (about a minute on 2 cores) and byte-compare its stdout against the
# checked-in results/experiments-full-scale.txt. Wall-clock timings go
# to stderr, so any difference is a change in simulated results.
repro:
	$(GO) run ./cmd/widir-experiments -exp all -scale 1.0 > repro-current.txt
	diff -u results/experiments-full-scale.txt repro-current.txt
	@echo "full-scale evaluation matches results/experiments-full-scale.txt"

# One pass over every evaluation benchmark (reduced workload scale by
# default; add WIDIR_BENCH_FLAGS="-widir.scale=1.0" for full runs).
# This is the quick smoke; bench-json below is the measured run.
bench:
	$(GO) test -bench=. -benchtime=1x $(WIDIR_BENCH_FLAGS)

# Measured perf record (DESIGN.md §14, EXPERIMENTS.md): run the
# simulator-performance benchmarks at a fixed -benchtime/-count and
# parse the output into BENCH_<date>.json via cmd/widir-bench. The
# date is injected here because the tool itself never reads the clock
# (walltime determinism lint).
PERF_BENCH = BenchmarkMachineCycle$$|BenchmarkMachineCycleTracingOff|BenchmarkSimFastForward
BENCH_DATE = $(shell date +%F)
bench-json:
	$(GO) test ./internal/machine -run '^$$' -bench '$(PERF_BENCH)' \
	    -benchtime 1s -count 3 -benchmem \
	    | $(GO) run ./cmd/widir-bench -date $(BENCH_DATE) -out BENCH_$(BENCH_DATE).json
	@echo wrote BENCH_$(BENCH_DATE).json

# Regression gate: rerun the measured benchmarks and compare against
# the checked-in baseline record. Fails on >15% ns/op regression or
# any allocs/op increase. CI runs this on every push.
BENCH_BASELINE = BENCH_2026-08-08.json
bench-gate:
	$(GO) test ./internal/machine -run '^$$' -bench '$(PERF_BENCH)' \
	    -benchtime 1s -count 3 -benchmem \
	    | $(GO) run ./cmd/widir-bench -date $(BENCH_DATE) -out bench-current.json \
	          -compare $(BENCH_BASELINE)

# Simulation-farm self-test (DESIGN.md §16): boot widir-serve against
# a throwaway cache dir, run a tiny sweep, restart over the same dir,
# and verify the repeat sweep is served entirely from the disk cache
# (zero re-simulations) with byte-identical results.
serve-smoke:
	$(GO) run ./cmd/widir-serve -smoke

# Multi-node fault-tolerance self-test (DESIGN.md §17): boot a 3-node
# cluster as real subprocesses, run a sweep, SIGKILL one node mid-sweep,
# restart it over the same cache dir, and require (a) the queue journal
# to replay the accepted runs so the job completes under its original
# id, and (b) reruns of both sweeps to finish with ZERO new simulations
# anywhere in the cluster, byte-identical to the first pass.
serve-cluster-smoke:
	$(GO) run ./cmd/widir-serve -cluster-smoke

# Drop the local farm cache (widir-serve's default -cache location).
clean-cache:
	rm -rf widir-cache

check: build vet lint model vet-model mcheck test race serve-smoke serve-cluster-smoke
