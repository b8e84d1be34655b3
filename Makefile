# SMARQ — build, test, and experiment targets.

GO ?= go
# Worker-pool bound for the figure harness (0 = GOMAXPROCS).
PARALLEL ?= 0

.PHONY: all build test race bench-all figures figures-json examples clean ci \
	fmt-check lint bench-smoke fuzz-smoke chaos-smoke trace-smoke fleet-smoke \
	analyze-smoke

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The deterministic CI gates, runnable locally in one shot. Not included,
# run them separately: race and fleet-smoke (under the race detector),
# fuzz-smoke (time-boxed fuzzing) and lint (fetches its pinned tools on
# first use).
ci: build test fmt-check bench-smoke trace-smoke analyze-smoke chaos-smoke

# Static analysis and known-vulnerability scan. Tool versions are pinned
# so the gate is reproducible; `go run pkg@version` fetches them into the
# module cache on first use (network required once, cached by CI).
STATICCHECK = honnef.co/go/tools/cmd/staticcheck@2024.1.1
GOVULNCHECK = golang.org/x/vuln/cmd/govulncheck@v1.1.3

lint:
	$(GO) run $(STATICCHECK) ./...
	$(GO) run $(GOVULNCHECK) ./...

# Fail if any file needs gofmt.
fmt-check:
	@files=$$(gofmt -l .); \
	if [ -n "$$files" ]; then \
		echo "gofmt required for:"; echo "$$files"; exit 1; \
	fi; echo "gofmt clean"

# Regenerate a small, fast artifact subset and compare it against the
# checked-in golden (tolerant numeric compare) — the figure regression
# gate. Refresh the golden with:
#   go run ./cmd/smarq-bench -only table1,fig15 -bench swim,mgrid -json \
#     > testdata/bench-smoke.golden.json
bench-smoke:
	$(GO) run ./cmd/smarq-bench -only table1,fig15 -bench swim,mgrid -json \
		-parallel $(PARALLEL) \
		| $(GO) run ./cmd/smarq-golden -golden testdata/bench-smoke.golden.json -got -

# Telemetry trace gate: re-trace a small committed workload and compare
# the Perfetto (Chrome trace-event) JSON and the metrics snapshot against
# the checked-in goldens. Traces are stamped with the simulated cycle
# clock, so the run is deterministic and the compare is effectively
# exact. Refresh the goldens with:
#   go run ./cmd/smarq-run -file testdata/trace-smoke.s \
#     -trace testdata/trace-smoke.golden.json -trace-format chrome \
#     -metrics testdata/trace-smoke.metrics.golden.json >/dev/null
trace-smoke:
	$(GO) run ./cmd/smarq-run -file testdata/trace-smoke.s \
		-trace /tmp/trace-smoke.json -trace-format chrome \
		-metrics /tmp/trace-smoke.metrics.json >/dev/null
	$(GO) run ./cmd/smarq-golden -golden testdata/trace-smoke.golden.json \
		-got /tmp/trace-smoke.json
	$(GO) run ./cmd/smarq-golden -golden testdata/trace-smoke.metrics.golden.json \
		-got /tmp/trace-smoke.metrics.json
	@echo "trace-smoke: ok"

# Postmortem analyzer gate: regenerate a seeded chaos trace and a pair of
# per-tenant fleet traces, run smarq-analyze over all three, and compare
# the JSON report against the checked-in golden. Both the traces (cycle-
# stamped, fleet tenants byte-identical to solo runs) and the analyzer
# (sorted runs, integer percentiles) are deterministic, so the compare is
# effectively exact at any worker count. Refresh the golden with:
#   make analyze-smoke ANALYZE_GOLDEN_OUT=testdata/analyze-smoke.golden.json
ANALYZE_TMP = /tmp/smarq-analyze-smoke
ANALYZE_GOLDEN_OUT =
analyze-smoke:
	rm -rf $(ANALYZE_TMP) && mkdir -p $(ANALYZE_TMP)
	$(GO) run ./cmd/smarq-run -bench equake -chaos-seed 7 -chaos-host -health \
		-compile-workers 2 -trace $(ANALYZE_TMP)/solo-equake.jsonl >/dev/null
	$(GO) run ./cmd/smarq-bench -tenants 2 -tenant-mix swim,equake \
		-compile-workers 2 -trace $(ANALYZE_TMP)/fleet.jsonl >/dev/null
	$(GO) run ./cmd/smarq-analyze -json \
		$(ANALYZE_TMP)/solo-equake.jsonl \
		$(ANALYZE_TMP)/fleet.tenant0-swim.jsonl \
		$(ANALYZE_TMP)/fleet.tenant1-equake.jsonl \
		> $(ANALYZE_TMP)/report.json
ifeq ($(ANALYZE_GOLDEN_OUT),)
	$(GO) run ./cmd/smarq-golden -golden testdata/analyze-smoke.golden.json \
		-got $(ANALYZE_TMP)/report.json
	@echo "analyze-smoke: ok"
else
	cp $(ANALYZE_TMP)/report.json $(ANALYZE_GOLDEN_OUT)
	@echo "analyze-smoke: refreshed $(ANALYZE_GOLDEN_OUT)"
endif

# Short differential fuzz of the dynopt pipeline, of the decoded
# interpreter engine, of the paged guest memory and of the region
# executor: FuzzInterpDecoded drives interp.Run, a loop over the same
# RunBlock that dynopt runs, FuzzMemory checks guest.Memory against a
# flat byte slice, the one oracle that does not itself run on
# guest.Memory, and FuzzExecuteDecoded runs random compiled regions
# through vliw.ExecContext.Execute and the reference executor under every
# alias hardware mode (seed corpora also run under plain `go test`). Go
# allows one -fuzz pattern per invocation, hence four commands.
fuzz-smoke:
	$(GO) test -run='^FuzzDynopt$$' -fuzz='^FuzzDynopt$$' -fuzztime=10s ./internal/dynopt
	$(GO) test -run='^FuzzInterpDecoded$$' -fuzz='^FuzzInterpDecoded$$' -fuzztime=10s ./internal/interp
	$(GO) test -run='^FuzzMemory$$' -fuzz='^FuzzMemory$$' -fuzztime=10s ./internal/guest
	$(GO) test -run='^FuzzExecuteDecoded$$' -fuzz='^FuzzExecuteDecoded$$' -fuzztime=10s ./internal/vliw

# Chaos gate: the seeded fault-injection soak (spurious alias exceptions,
# guard-fail storms, compile failures, and the host fault classes: worker
# panics, watchdog kills, poisoned results) with the
# rollback invariant checker on, the region ladder's and the health
# controller's unit tests (one hysteresis machine, internal/health), plus
# CLI replay smokes. SMARQ_CHAOS_FULL=1
# widens to the full suite. Three inline-compile chaos runs (ammp; swim,
# whose injected compile-fail drops and demotions re-install earlier
# builds; and equake with host faults, which exercises the worker-panic
# and poison fallback) are compared against checked-in goldens: stdout
# exactly, the metrics snapshot with smarq-golden. Refresh the goldens
# with:
#   make chaos-smoke CHAOS_GOLDEN_OUT=testdata
CHAOS_TMP = /tmp/smarq-chaos-smoke
CHAOS_GOLDEN_OUT =
chaos-smoke:
	$(GO) test -count=1 ./internal/faultinject ./internal/health
	$(GO) test -run='^TestChaos|^TestInvariantChecker|^TestSpuriousAlias|^TestCompileFail|^TestGuardFailInjection|^TestHostChaos|^TestWorkerPanic|^TestWatchdog|^TestPoisoned|^TestOneOutputScreen|^TestHealth|^TestLadder|^TestHardeningRollbacks|^TestDemoteTo|^TestPinnedEntry|^TestChronicOffenderCap' \
		-count=1 ./internal/dynopt
	$(GO) run ./cmd/smarq-run -bench equake -chaos-seed 7 -check-invariants >/dev/null
	$(GO) run ./cmd/smarq-run -bench equake -chaos-seed 7 -chaos-host -health \
		-compile-workers 2 -check-invariants >/dev/null
	rm -rf $(CHAOS_TMP) && mkdir -p $(CHAOS_TMP)
	$(GO) run ./cmd/smarq-run -bench ammp -chaos-seed 7 \
		-metrics $(CHAOS_TMP)/chaos-inline-ammp.metrics.golden.json \
		> $(CHAOS_TMP)/chaos-inline-ammp.golden.txt
	$(GO) run ./cmd/smarq-run -bench swim -chaos-seed 7 \
		-metrics $(CHAOS_TMP)/chaos-inline-swim.metrics.golden.json \
		> $(CHAOS_TMP)/chaos-inline-swim.golden.txt
	$(GO) run ./cmd/smarq-run -bench equake -chaos-seed 11 -chaos-host -health \
		-check-invariants \
		-metrics $(CHAOS_TMP)/chaos-inline-equake.metrics.golden.json \
		> $(CHAOS_TMP)/chaos-inline-equake.golden.txt
ifeq ($(CHAOS_GOLDEN_OUT),)
	for b in ammp swim equake; do \
		diff -u testdata/chaos-inline-$$b.golden.txt $(CHAOS_TMP)/chaos-inline-$$b.golden.txt || exit 1; \
		$(GO) run ./cmd/smarq-golden -golden testdata/chaos-inline-$$b.metrics.golden.json \
			-got $(CHAOS_TMP)/chaos-inline-$$b.metrics.golden.json || exit 1; \
	done
	@echo "chaos-smoke: ok"
else
	cp $(CHAOS_TMP)/chaos-inline-* $(CHAOS_GOLDEN_OUT)/
	@echo "chaos-smoke: refreshed goldens in $(CHAOS_GOLDEN_OUT)"
endif

# Fleet gate: 8 concurrent tenants over the process's compile pool and
# the shared code cache, under the race detector pinned to 2 cores, with
# every tenant's stats, guest registers and memory digest diffed against
# its solo run (the fleet determinism contract). Tenants of one benchmark
# also share its one immutable program and decoded code, so this races
# their first build and decode too. Every tenant's Run also borrows its
# vreg files, undo log and alias detector from one process-wide pool, so
# this races those loans. CI adds, under -race, the shared-program tests of
# internal/harness, internal/interp and internal/workload, the
# executor-pool tests of internal/dynopt (ConcurrentBorrow,
# SplitRunMatchesOneRun), its inline-fleet test (InlineFleet: tenants
# whose compiles install at their request, over one shared cache), and
# RunWaitsForItsJobs (no compile job of a queued System outlives its Run).
fleet-smoke:
	GOMAXPROCS=2 $(GO) run -race ./cmd/smarq-bench -tenants 8 \
		-tenant-mix swim,equake -compile-workers 2 -fleet-verify >/dev/null
	@echo "fleet-smoke: ok"

# One testing.B benchmark per table/figure plus micro-benchmarks (the
# full sweep; slow).
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every table and figure of the paper (plus the ablation,
# unrolling and Efficeon extensions). Cells fan out over PARALLEL
# workers; output is byte-identical at any parallelism.
figures:
	$(GO) run ./cmd/smarq-bench -parallel $(PARALLEL)

figures-json:
	$(GO) run ./cmd/smarq-bench -json -parallel $(PARALLEL)

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/reorder
	$(GO) run ./examples/storeforward
	$(GO) run ./examples/scaling
	$(GO) run ./examples/assembler

clean:
	$(GO) clean ./...
