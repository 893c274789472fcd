# Developer entry points.  Everything runs against the in-tree sources
# (PYTHONPATH=src), no install required.

PYTHON ?= python
PYTHONPATH := src

.PHONY: test lint lint-perf smoke metrics-smoke warehouse-smoke stage-smoke sta-smoke dse-smoke bench-trajectory bench

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

# Determinism & parallel-safety static analysis (rule catalog:
# docs/static-analysis.md).  --strict: any finding fails, including
# warnings and stale suppressions.  Every run is whole-program: the
# cross-file rules run over the import/call graph; the content-hash
# cache (.repro-lint-cache.json) makes warm re-runs near-instant.  The
# examples drive executors and pool payloads, so they are linted too,
# and so are the frozen reference kernels and the kernel benchmarks
# that drive them: an unordered iteration or an unseeded RNG there
# would make the bitwise equivalence suites and the benchmark gates
# flaky.
lint:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli lint --strict \
		src/repro examples tests/eda/*_reference.py tests/ml/*_reference.py \
		benchmarks/*_benchmark.py

# Lint cache smoke: cold vs warm lint over src/repro must produce
# identical reports with a >=5x warm speedup and zero cache misses.
lint-perf:
	PYTHONPATH=$(PYTHONPATH) timeout 240 $(PYTHON) \
		benchmarks/lint_perf_benchmark.py --smoke

# One small parallel campaign through the FlowExecutor, bounded by a
# hard timeout: proves the process pool, the result cache and the CLI
# stats plumbing work end to end without burning CI minutes.
smoke:
	PYTHONPATH=$(PYTHONPATH) timeout 180 $(PYTHON) -m repro.cli explore \
		--design PHY --rounds 2 --concurrent 3 --workers 2 --seed 1
	PYTHONPATH=$(PYTHONPATH) timeout 180 $(PYTHON) -m repro.cli mab \
		--design PHY --arms 0.4,0.6 --iterations 2 --concurrent 2 --workers 2

# A bounded 2-worker instrumented campaign: every parallel run's step
# metrics plus executor events must land in one METRICS JSONL file that
# `repro metrics summary` can read back — the cross-process collection
# path end to end.  Migrating the file into a sqlite warehouse then
# checks zero loss (the migrate exits 1 on any mismatch) and writes the
# CLI's own warehouse-op records.
metrics-smoke:
	rm -f .metrics-smoke.jsonl .metrics-smoke.sqlite
	PYTHONPATH=$(PYTHONPATH) timeout 240 $(PYTHON) -m repro.cli explore \
		--design PHY --rounds 2 --concurrent 3 --workers 2 --seed 1 \
		--metrics-out .metrics-smoke.jsonl
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli metrics summary \
		--in .metrics-smoke.jsonl --design phy
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli metrics migrate \
		--in .metrics-smoke.jsonl --db .metrics-smoke.sqlite
	rm -f .metrics-smoke.jsonl .metrics-smoke.sqlite

# Warehouse smoke: two small campaigns land in one sqlite warehouse
# under distinct campaign ids, then the cross-campaign read path is
# exercised end to end (summary, per-campaign query, retention).  The
# last query exits 1 unless the compaction recorded its own op record.
warehouse-smoke:
	rm -f .warehouse-smoke.sqlite
	PYTHONPATH=$(PYTHONPATH) timeout 240 $(PYTHON) -m repro.cli explore \
		--design PHY --rounds 2 --concurrent 3 --workers 2 --seed 1 \
		--metrics-db .warehouse-smoke.sqlite --campaign smoke-a
	PYTHONPATH=$(PYTHONPATH) timeout 240 $(PYTHON) -m repro.cli explore \
		--design PHY --rounds 2 --concurrent 3 --workers 2 --seed 2 \
		--metrics-db .warehouse-smoke.sqlite --campaign smoke-b
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli metrics summary \
		--in .warehouse-smoke.sqlite --design phy
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli metrics query \
		--in .warehouse-smoke.sqlite --campaign smoke-b
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli metrics compact \
		--db .warehouse-smoke.sqlite --keep-last 1
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli metrics query \
		--in .warehouse-smoke.sqlite --metric warehouse.compact.removed
	rm -f .warehouse-smoke.sqlite

# Stage-prefix cache smoke: a small router-knob sweep at a fixed
# (design, seed), once through a serial executor's own stage cache and
# once on 2 workers.  Asserts bit-identical results with the cache on
# and off and at least one prefix hit (more jobs than workers, so a
# worker-local cache must serve a shared prefix); the serial leg must
# also resume at least one router iteration from a cached trajectory.
stage-smoke:
	PYTHONPATH=$(PYTHONPATH) timeout 240 $(PYTHON) \
		benchmarks/stage_cache_benchmark.py --smoke --workers 1
	PYTHONPATH=$(PYTHONPATH) timeout 240 $(PYTHON) \
		benchmarks/stage_cache_benchmark.py --smoke --workers 2

# Incremental STA smoke: the kernel equivalence suites (bitwise vs. the
# frozen pre-refactor engines, random-edit walks through update()) plus
# the optimizer benchmark in assert-only mode (bit-identical QoR, >=2x
# less timing work).
sta-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q \
		tests/eda/test_sta_equivalence.py tests/eda/test_sta_incremental.py
	PYTHONPATH=$(PYTHONPATH) timeout 240 $(PYTHON) \
		benchmarks/incremental_sta_benchmark.py --smoke

# DSE kill-policy smoke: the same sweep campaign twice through the
# declarative engine — blind vs. online MDP killing — asserting the
# doomed points are killed, the best result is bit-identical and the
# killing campaign executes >=1.3x less runtime proxy; then one CLI
# engine run with killing and a surrogate.  Last, a determinism guard:
# a surrogate campaign collecting into a fresh sqlite warehouse, once
# serial and twice on 2 workers, must print the same campaign lines
# (the wall-clock "executor:" line and the "metrics:" destination line
# aside).
DSE_GUARD = $(PYTHON) -m repro.cli dse --design MCU --strategy explorer \
	--rounds 3 --concurrent 3 --kill mdp --surrogate forest --seed 2

dse-smoke:
	PYTHONPATH=$(PYTHONPATH) timeout 240 $(PYTHON) \
		benchmarks/dse_kill_benchmark.py --smoke
	PYTHONPATH=$(PYTHONPATH) timeout 240 $(PYTHON) -m repro.cli dse \
		--design MCU --strategy explorer --rounds 2 --concurrent 3 \
		--kill mdp --surrogate forest --seed 2
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for run in 1-a 2-b 2-c; do \
		PYTHONPATH=$(PYTHONPATH) timeout 240 $(DSE_GUARD) \
			--workers $${run%-*} --metrics-db "$$tmp/$$run.sqlite" \
			> "$$tmp/$$run.out" || exit 1; \
		grep -v -e '^executor:' -e '^metrics:' "$$tmp/$$run.out" \
			> "$$tmp/$$run.txt"; \
	done && \
	cat "$$tmp/1-a.txt" && \
	cmp "$$tmp/1-a.txt" "$$tmp/2-b.txt" && cmp "$$tmp/1-a.txt" "$$tmp/2-c.txt" && \
	echo "dse determinism guard: 1 serial and 2 two-worker campaigns agree"

# Benchmark trajectory: run the STA benchmarks (vectorized-kernel
# speedup on the largest corpus design, incremental-update work saved
# on PULPino), the place & route kernel benchmark (annealer and
# global-router fast paths), the lint-analyzer cache benchmark and the
# DSE kill-policy benchmark, merge their summaries into
# BENCH_sta.json / BENCH_place_route.json / BENCH_lint.json /
# BENCH_dse.json, and fail on regression against the committed
# baselines.  Thresholds are ratios measured within one run, so they
# carry across machines.
bench-trajectory:
	rm -f BENCH_sta.json BENCH_place_route.json BENCH_lint.json \
		BENCH_dse.json BENCH_metrics.json
	PYTHONPATH=$(PYTHONPATH) timeout 240 $(PYTHON) \
		benchmarks/vectorized_sta_benchmark.py --smoke --json BENCH_sta.json
	PYTHONPATH=$(PYTHONPATH) timeout 240 $(PYTHON) \
		benchmarks/incremental_sta_benchmark.py --smoke --json BENCH_sta.json
	$(PYTHON) benchmarks/check_bench_regression.py BENCH_sta.json \
		benchmarks/BENCH_sta_baseline.json
	PYTHONPATH=$(PYTHONPATH) timeout 240 $(PYTHON) \
		benchmarks/vectorized_place_route_benchmark.py --smoke \
		--json BENCH_place_route.json
	$(PYTHON) benchmarks/check_bench_regression.py BENCH_place_route.json \
		benchmarks/BENCH_place_route_baseline.json
	PYTHONPATH=$(PYTHONPATH) timeout 240 $(PYTHON) \
		benchmarks/lint_perf_benchmark.py --smoke --json BENCH_lint.json
	$(PYTHON) benchmarks/check_bench_regression.py BENCH_lint.json \
		benchmarks/BENCH_lint_baseline.json
	PYTHONPATH=$(PYTHONPATH) timeout 240 $(PYTHON) \
		benchmarks/dse_kill_benchmark.py --smoke --json BENCH_dse.json
	$(PYTHON) benchmarks/check_bench_regression.py BENCH_dse.json \
		benchmarks/BENCH_dse_baseline.json
	PYTHONPATH=$(PYTHONPATH) timeout 240 $(PYTHON) \
		benchmarks/metrics_warehouse_benchmark.py --smoke \
		--json BENCH_metrics.json
	$(PYTHON) benchmarks/check_bench_regression.py BENCH_metrics.json \
		benchmarks/BENCH_metrics_baseline.json

bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/ --benchmark-only
