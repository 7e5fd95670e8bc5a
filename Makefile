# Mirrors .github/workflows/ci.yml: `make ci` is what CI runs.

GO ?= go

.PHONY: build test race allocs bench profile lint ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race exercises the concurrent experiment engine (worker pool,
# singleflight memoization, batched Setup-hook runs) under the detector.
race:
	$(GO) test -race -timeout 30m ./...

# Allocation pins without -race, which changes allocation counts (the
# fleet pin skips under it).
allocs:
	$(GO) test ./internal/fleet -run TestSimRunAllocationFree -v
	$(GO) test ./internal/cache ./internal/prefetch ./internal/trace -run 'ZeroAllocs$$'

# One iteration per paper figure, benchmarks only (race and allocs run
# the unit tests).
bench:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# Profiling workflow (see DESIGN.md "Performance"): cpuprofile one root
# benchmark (BENCH, default the scenario-mix hot path) and print the top
# functions; `make profile BENCH=BenchmarkFleetMega10k` profiles the warm
# 10,000-machine fleet. The profile stays in /tmp for interactive digs:
# `go tool pprof /tmp/cachepart-cpu.prof`.
BENCH ?= BenchmarkScenarioMix

profile:
	$(GO) test -run '^$$' -bench '^$(BENCH)$$' -benchtime=5x \
		-cpuprofile /tmp/cachepart-cpu.prof -o /tmp/cachepart-bench.test .
	$(GO) tool pprof -top -nodecount=20 /tmp/cachepart-cpu.prof

lint:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "unformatted files:" >&2; echo "$$out" >&2; exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (CI runs it)"; \
	fi

ci: build lint race allocs bench
