# Development targets. `make qa` is the pre-merge gate documented in
# benchmarks/README.md: the in-tree static-analysis pass (per-file
# rules plus the whole-program effect analyzer behind --deep), ruff,
# mypy (both skipped with a notice when not installed), the
# bit-for-bit determinism checker (which also proves the parallel
# scoring engine -- and the sliced subset search -- bit-identical at
# workers=2), and the serve-smoke check (the scoring daemon serves the
# CLI's exact bits and shuts down leak-free).
# `make bench` includes the engine's cold-vs-warm cache bench, the
# subset evaluator's sliced-vs-naive bench, the warm-substrate
# bench (persistent pool vs pool-per-call + disk-cold vs disk-warm
# CLI), the tracing-overhead bench, the history-recording overhead
# bench (<= 5% with the run-history store enabled, bit-identical),
# the kernel bench (shape dispatcher vs scalar oracle loops: banded
# all-pairs DTW >= 5x, mixed-length bucketed >= 3x, all
# bit-identical), and the shard fan-out bench (all-pairs
# DTW through 2 local shard daemons >= 1.6x over 1 on multi-core
# hosts, bit-identical everywhere), guarded by the BENCH_engine.json /
# BENCH_subset.json / BENCH_parallel.json / BENCH_obs.json /
# BENCH_history.json / BENCH_kernels.json / BENCH_shard.json baselines.

PYTHON ?= python
RUN = PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) $(PYTHON)

.PHONY: qa lint lint-deep ruff mypy determinism serve-smoke \
	shard-smoke history-smoke test bench bench-engine bench-subset \
	bench-parallel bench-obs bench-history bench-kernels bench-shard

qa: lint lint-deep ruff mypy determinism serve-smoke shard-smoke \
		history-smoke
	@echo "qa: all gates passed"

lint:
	$(RUN) -m repro.qa.lint src/repro

lint-deep:
	$(RUN) -m repro.qa.lint --deep src/repro

ruff:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src/repro; \
	else \
		echo "ruff not installed; skipping (pip install ruff)"; \
	fi

mypy:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed; skipping (pip install mypy)"; \
	fi

determinism:
	$(RUN) -m repro.qa.determinism --workers 2

# Serve-smoke: boot the scoring daemon, score over real HTTP, diff the
# served scorecards bit-for-bit against the one-shot CLI (cold, warm,
# restarted-over-a-warm-disk-tier, concurrent), check the warm-cache
# counters moved, and verify a leak-free shutdown.
serve-smoke:
	$(RUN) -m repro.qa.service_check --workers 2

# Shard-smoke: boot 2 local daemons as shard workers, run sharded
# scoring and subset search (cold, disk-warm, kill-one-shard), and
# diff every artifact bit-for-bit against the serial oracle (same
# check as `repro qa --shards 2`).
shard-smoke:
	$(RUN) -m repro.qa.shard_check --shards 2

# History-smoke: recording on vs off must be bit-identical, an
# equal-digest re-run must diff to zero, and a perturbed score bit /
# inflated wall time / degraded hit rate must each trip the trajectory
# gates (same check as `repro qa --history`).
history-smoke:
	$(RUN) -m repro.qa.history_check

test:
	$(RUN) -m pytest -x -q

bench: bench-engine bench-subset bench-parallel bench-obs \
		bench-history bench-kernels bench-shard
	$(RUN) -m pytest benchmarks -q

bench-engine:
	$(RUN) -m repro.engine.bench --check

bench-subset:
	$(RUN) -m repro.engine.subset_bench --check

bench-parallel:
	$(RUN) -m repro.engine.parallel_bench --check

bench-obs:
	$(RUN) -m repro.obs.bench --check

bench-history:
	$(RUN) -m repro.obs.history_bench --check

bench-kernels:
	$(RUN) -m repro.stats.kernel_bench --check

bench-shard:
	$(RUN) -m repro.engine.shard_bench --check
