# Developer / CI entry points. `make verify` is the tier-1 gate.

CARGO ?= cargo

.PHONY: verify build test bench bench-no-run bench-smoke perfbench-smoke recovery-smoke chaos-smoke session-smoke clippy fmt lint lint-baseline examples figures

EXAMPLES := $(basename $(notdir $(wildcard examples/*.rs)))

verify: fmt build test clippy lint bench-no-run recovery-smoke chaos-smoke session-smoke perfbench-smoke examples

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q

clippy:
	$(CARGO) clippy --all-targets -- -D warnings

bench:
	$(CARGO) bench -p kath_bench

bench-no-run:
	$(CARGO) bench --no-run

# Quick end-to-end runs of the perf benches (small corpora, few reps):
# prove the morsel-parallel, durable-recovery, vector-search, paged
# out-of-core storage, compiled-pipeline, and concurrent-transaction
# paths still run and refresh BENCH_parallel.json / BENCH_recovery.json /
# BENCH_vector.json / BENCH_storage.json / BENCH_compiled.json /
# BENCH_txn.json's schemas without the full sweeps.
bench-smoke:
	$(CARGO) run -q --release -p kath_bench --bin parallel_bench -- --quick
	$(CARGO) run -q --release -p kath_bench --bin recovery_bench -- --quick
	$(CARGO) run -q --release -p kath_bench --bin vector_bench -- --quick
	$(CARGO) run -q --release -p kath_bench --bin storage_bench -- --quick
	$(CARGO) run -q --release -p kath_bench --bin compiled_bench -- --quick
	$(CARGO) run -q --release -p kath_bench --bin fault_bench -- --quick
	$(CARGO) run -q --release -p kath_bench --bin txn_bench -- --quick

# Repository-benchmark smoke: one traced second of each NL workload
# (perfbench/README.md). The traced replay asserts its result equals
# KathDB::query's, so a passing run checks that results, lineage and token
# bills stay identical end to end; it also keeps the standalone perfbench
# package compiling against engine API changes. Fails unless the last
# line reports "correct": true. perfbench refuses to run under the
# KATHDB_* variables the CI test legs set, to keep its measurements clean;
# this smoke checks correctness only, so it runs with them unset.
perfbench-smoke:
	for w in nl_cold nl_session; do \
		last=$$(env -u KATHDB_THREADS -u KATHDB_POOL_PAGES -u KATHDB_COMPILE -u KATHDB_FAULTS \
			bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 1 | tail -n 1); \
		echo "$$w: $$last"; \
		echo "$$last" | grep -q '"correct": true' || exit 1; \
	done

# Crash-recovery smoke: a child process populates a durable DB (WAL-logged
# inserts around a checkpoint) and dies via abort(); the parent reopens and
# asserts every committed row survived.
recovery-smoke:
	$(CARGO) run -q --release -p kath_bench --bin recovery_smoke

# Fault-injection smoke: seeded fault schedules on the I/O seam drive a
# durable SQL workload; the run asserts every failure is typed and a
# fault-free reopen recovers exactly the acknowledged prefix, plus a 0ms
# query-deadline cancellation leg (see docs/robustness.md).
chaos-smoke:
	$(CARGO) run -q --release -p kath_bench --bin chaos_smoke

# Concurrent-session smoke: 8 writer sessions commit framed transactions
# while 8 readers take MVCC snapshots under seeded interleavings; asserts
# no torn reads (every snapshot is a per-writer committed prefix of
# complete transactions) and that post-crash recovery — including a
# hand-torn Begin-without-Commit WAL tail — equals the acked commits
# exactly (see docs/concurrency.md). CI also runs this under
# KATHDB_FAULTS as a chaos leg.
session-smoke:
	$(CARGO) run -q --release -p kath_bench --bin session_smoke

fmt:
	$(CARGO) fmt --all --check

# Workspace static analysis: io-seam, panic ratchet, lock order, atomics,
# nondeterminism (see docs/static-analysis.md). Fails on any finding.
lint:
	$(CARGO) run -q --release -p kath_lint --bin kathdb-lint

# Regenerates lint-baseline.json from the current panic-site counts — the
# only sanctioned way to change the ratchet (it may only shrink).
lint-baseline:
	$(CARGO) run -q --release -p kath_lint --bin kathdb-lint -- --write-baseline

examples:
	for e in $(EXAMPLES); do \
		$(CARGO) run -q --release --example $$e </dev/null || exit 1; \
	done

figures:
	$(CARGO) run -q --release -p kath_bench --bin paper_figures
