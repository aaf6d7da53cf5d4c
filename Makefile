# Developer entry points; CI (.github/workflows/ci.yml) runs the same
# steps as `make check`.

GO ?= go

# Pinned versions for the external linters installed by `make tools`.
# solverlint itself is built from this repository and needs nothing
# beyond the Go toolchain; staticcheck and govulncheck run only where
# the pinned binaries are installed (CI, or after `make tools` on a
# networked machine) and are skipped gracefully elsewhere.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3
FUZZTIME ?= 30s

.PHONY: all build test race vet fmt-check lint solverlint tools check perfbench bench bench-service benchgate fuzz smoke chaos clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race-repeat runs the tests matching pattern $(1) in packages $(2)
# under -race, -count=3. It fails first when the pattern matches no
# test in one of the packages: go test -run passes silently when
# nothing matches, which would turn a renamed suite into a no-op.
define race-repeat
	@for p in $(2); do \
		if ! $(GO) test -list '$(1)' $$p | grep -q '^Test'; then \
			echo "race: -run '$(1)' matches no test in $$p"; exit 1; \
		fi; \
	done
	$(GO) test -race -count=3 -run '$(1)' $(2)
endef

# Race job, mirroring CI: the full suite once, then the multi-worker
# search determinism suites and the non-overlap differential suites,
# the stateful-session suites and the
# serving path's concurrency suites (singleflight, admission gate,
# cache flights, permuted-order dedup waiters, spec aliases and decoded
# shapes outliving the pooled reader)
# repeated -count=3 (scheduling-order bugs rarely show on a single
# run).
race:
	$(GO) test -race ./...
	$(call race-repeat,Parallel|Prune|Fixpoint,./internal/csp ./internal/geost ./internal/core)
	$(call race-repeat,MaximalEmptyRects|Session,./internal/online)
	$(call race-repeat,Session|Singleflight|Admission|Queued|Eviction|Cancel|QueueWait|Gate|Join|Permuted|Aliases|Outlive,./internal/service)

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Project-specific analyzers (see DESIGN.md, "Static analysis"). Exit 1
# on findings; suppressions need an inline
# `//solverlint:allow <analyzer> <reason>` comment.
solverlint:
	$(GO) run ./cmd/solverlint ./...

# Full lint: go vet and solverlint always; staticcheck and govulncheck
# when their pinned binaries are on PATH (install with `make tools`).
lint: vet solverlint
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck $(STATICCHECK_VERSION) not installed; skipping (make tools)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo "govulncheck ./..."; govulncheck ./...; \
	else \
		echo "govulncheck $(GOVULNCHECK_VERSION) not installed; skipping (make tools)"; \
	fi

# Install the in-repo tooling plus the pinned external linters (the
# external ones require network access).
tools:
	$(GO) install ./cmd/tracecat
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

check: fmt-check vet lint build race perfbench

# The benchmark harness is its own module (perfbench/go.mod, replacing
# repro with ../), so the root build never compiles it. Vet and test it
# here so an API change that breaks the benchmark fails before the
# benchmark runs.
perfbench:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# The observability acceptance benchmarks: the search, which counts its
# effort in plain fields, must keep the baseline allocation profile; the
# span benchmark prices one traced request.
bench:
	$(GO) test -run xxx -bench BenchmarkSearch -benchmem ./internal/csp
	$(GO) test -run xxx -bench 'BenchmarkSpan' -benchmem ./internal/obs

# Native Go fuzzing beyond the committed corpus. Each target gets
# FUZZTIME of mutation; new crashers land in testdata/fuzz/.
# FuzzDecodeRequest's seeds include a 192 KB request body, whose
# minimisation would otherwise stall the run for a minute per find.
fuzz:
	$(GO) test -run xxx -fuzz FuzzDomain -fuzztime $(FUZZTIME) ./internal/csp
	$(GO) test -run xxx -fuzz FuzzPlacementValid -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run xxx -fuzz FuzzCanonDigest -fuzztime $(FUZZTIME) ./internal/canon
	$(GO) test -run xxx -fuzz FuzzDigestMatchesStringKeys -fuzztime $(FUZZTIME) ./internal/canon
	$(GO) test -run xxx -fuzz FuzzBaselineValid -fuzztime $(FUZZTIME) ./internal/baseline
	$(GO) test -run xxx -fuzz FuzzPresolveEquivalence -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run xxx -fuzz FuzzValidAnchors -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run xxx -fuzz FuzzNonOverlapFixpoint -fuzztime $(FUZZTIME) ./internal/geost
	$(GO) test -run xxx -fuzz FuzzHeightObjective -fuzztime $(FUZZTIME) ./internal/geost
	$(GO) test -run xxx -fuzz FuzzPruneOthers -fuzztime $(FUZZTIME) ./internal/geost
	$(GO) test -run xxx -fuzz FuzzValueOrder -fuzztime $(FUZZTIME) ./internal/geost
	$(GO) test -run xxx -fuzz FuzzDecodeRequest -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/service
	$(GO) test -run xxx -fuzz FuzzFrontKey -fuzztime $(FUZZTIME) ./internal/service

# The serving benchmark pair behind EXPERIMENTS.md: a cached Table-I
# placement (a byte-identical repeat, and a spelling the front table
# has not seen) versus the same request re-solved from scratch, and the
# request decode alone. The allocation pins of both hit paths run
# first.
bench-service:
	$(GO) test -run 'TestExplicitHitAllocs|TestRepeatHitAllocs' -bench 'BenchmarkServiceCacheHit|BenchmarkDecodeRequest' -benchtime 2s ./internal/service
	$(GO) test -run xxx -bench BenchmarkServiceColdSolve -benchtime 2x ./internal/service

# The solver benchmark-regression gate: re-solve the pinned scenario
# set and fail on effort regressions (nodes/backtracks/height) against
# the committed BENCH_solver.json. Re-baseline after intended changes
# with `go test -run TestBenchGate -benchgate-update .`.
benchgate:
	sh scripts/benchgate.sh

# End-to-end daemon smoke test (requires curl): build cmd/placed, serve
# the committed smoke request, require miss → byte-identical hit, then
# a hit on the same digest for its permuted explicit spelling.
smoke:
	sh scripts/smoke.sh

# Fault-injected chaos soak (requires curl): placed and loadgen built
# under -race, a mixed fault spec with graceful degradation on, every
# 200 response checked for placement validity. Tune with FAULTS=...,
# REQUESTS=..., SEED=....
chaos:
	sh scripts/chaos.sh

clean:
	$(GO) clean ./...
