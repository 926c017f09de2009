"""Shard determinism check: sharded runs must carry the serial bits.

The shard fan-out (:mod:`repro.engine.shard`, DESIGN.md §14) claims
bit-identity at any shard count, under any block assignment, through
shard failure and re-dispatch, and with or without a shared disk
tier. This checker boots N real local daemons (in-process
:class:`~repro.service.app.ServiceThread` instances on
ephemeral ports -- the same daemon ``repro serve`` runs) as shard
workers, then diffs every sharded artifact bit-for-bit against the
serial oracle:

* **cold** -- a sharded ``repro score`` equivalent with empty caches;
* **disk-warm** -- the coordinator and every daemon share one
  ``--cache-dir``; a second sharded run over the now-warm tier must
  serve disk hits and the same bits;
* **kill-one-shard** -- one of the N daemons is shut down before the
  run; the coordinator must mark it dead, re-dispatch its blocks to
  the survivors (visible in ``shard_failures`` /
  ``shard_blocks_redispatched``), and still produce the oracle's bits;
* **sharded subset search** -- ``SubsetSearch`` candidate batches
  executed on the shards, diffed against the serial search report.

Run as ``python -m repro.qa.shard_check --shards 2`` (the CI shard
smoke job) or via ``repro qa --shards 2``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace


def _boot_daemons(config, n_shards):
    """N in-process daemons; returns (threads, 'host:port,...' spec)."""
    from repro.service import ServiceThread

    threads = [ServiceThread(config).start() for _ in range(n_shards)]
    spec = ",".join(f"{t.host}:{t.port}" for t in threads)
    return threads, spec


def _stop_daemons(threads, failures, label):
    from repro.service import ServiceClient

    for thread in threads:
        try:
            ServiceClient(host=thread.host, port=thread.port,
                          retries=0).shutdown()
            thread.join()
        except Exception as exc:  # qa-ignore[overbroad-except]
            # Shutdown failure is itself a finding, not a crash.
            failures.append(f"[{label}:shutdown] {exc!r}")


def _sharded_scorecard(suite, focus, config, shard_hosts):
    """One sharded scoring run through a fresh coordinator engine;
    returns (scorecard, metrics-values dict)."""
    from repro.engine import Engine
    from repro.experiments import runner
    from repro.experiments.runner import measure_suites, perspector_for

    runner.clear_cache()
    sharded_config = replace(config, shards=shard_hosts)
    matrix = measure_suites([suite], sharded_config)[suite]
    engine = Engine.from_config(sharded_config)
    try:
        card = perspector_for(sharded_config, engine=engine).score(
            matrix, focus=focus)
        return card, engine.metrics.snapshot().as_dict()
    finally:
        engine.close()


def _diff_run(cli_card, suite, focus, config, shard_hosts, label,
              failures, expect_disk_hits=False, expect_dispatch=True):
    """Run one sharded scoring arm and diff it against the oracle."""
    from repro.qa.determinism import diff_scorecards

    card, values = _sharded_scorecard(suite, focus, config, shard_hosts)
    failures.extend(f"[{label}] {m}" for m in diff_scorecards(cli_card,
                                                              card))
    if str(card) != str(cli_card):
        failures.append(f"[{label}] rendered text differs from the "
                        f"serial oracle")
    if expect_dispatch and values.get("shard_blocks_dispatched", 0) <= 0:
        failures.append(f"[{label}] expected shard blocks to be "
                        f"dispatched; counter is "
                        f"{values.get('shard_blocks_dispatched', 0)}")
    if expect_disk_hits and values.get("disk_hits", 0) <= 0:
        failures.append(f"[{label}] expected nonzero disk-tier hits on "
                        f"the warm run; got {values.get('disk_hits', 0)}")
    return values


def _check_search(serial_engine_config, shard_hosts, seed, failures,
                  label):
    """Sharded subset search vs the serial search, bit-for-bit."""
    from repro.engine import Engine, SubsetEvaluator, SubsetSearch
    from repro.engine.bench import build_subject
    from repro.qa.determinism import diff_search_results

    matrix = build_subject(seed=seed, n_workloads=10, n_events=3,
                           length=32)

    def _search(engine):
        evaluator = SubsetEvaluator(matrix, seed=seed, engine=engine)
        return SubsetSearch(matrix, 4, seed=seed,
                            evaluator=evaluator).search(8, method="lhs")

    serial_engine = Engine.from_config(serial_engine_config)
    try:
        serial = _search(serial_engine)
    finally:
        serial_engine.close()
    sharded_engine = Engine.from_config(
        replace(serial_engine_config, shards=shard_hosts))
    try:
        sharded = _search(sharded_engine)
        values = sharded_engine.metrics.snapshot().as_dict()
    finally:
        sharded_engine.close()
    failures.extend(f"[{label}] {m}"
                    for m in diff_search_results(serial, sharded))
    if values.get("shard_blocks_dispatched", 0) <= 0:
        failures.append(f"[{label}] expected shard blocks to be "
                        f"dispatched during the search; counter is "
                        f"{values.get('shard_blocks_dispatched', 0)}")


def check_shards(n_shards=2, suite="nbench", focus="all", cache_dir=None,
                 quick=True):
    """Run the full sharded-vs-serial check; returns a list of failure
    strings (empty = PASS). The serial oracle runs with no shards."""
    from repro.engine.diskcache import stale_artifacts
    from repro.engine.shm import leaked_segments
    from repro.experiments import runner
    from repro.experiments.runner import ExperimentConfig
    from repro.qa.determinism import diff_scorecards
    from repro.qa.service_check import _cli_scorecard

    if n_shards < 1:
        raise ValueError(f"need at least one shard, got {n_shards}")
    preset = (ExperimentConfig.quick if quick
              else ExperimentConfig.full)()
    # Workers stay at 1 on both arms: sharding replaces the pool
    # fan-out, and the oracle proves the serial path. Daemons and
    # coordinator share one config.
    config = replace(preset, workers=1, cache_dir=None)
    failures = []

    # Serial oracle, cold measurement memo: the bits every sharded run
    # must reproduce.
    runner.clear_cache()
    cli_card = _cli_scorecard(suite, focus, config)

    # -- cold + kill-one-shard (same daemon generation) -------------------
    threads, spec = _boot_daemons(config, n_shards)
    try:
        _diff_run(cli_card, suite, focus, config, spec,
                  f"shards={n_shards}:cold", failures)
        if len(threads) > 1:
            # Kill shard 0, keep its address in the host list: the
            # coordinator must discover the corpse, re-dispatch its
            # blocks to the survivors and still produce the oracle bits.
            _stop_daemons(threads[:1], failures,
                          f"shards={n_shards}:kill-one")
            values = _diff_run(cli_card, suite, focus, config,
                               spec, f"shards={n_shards}:kill-one",
                               failures)
            if values.get("shard_failures", 0) < 1:
                failures.append(f"[shards={n_shards}:kill-one] expected "
                                f"the dead shard to be detected; "
                                f"shard_failures is "
                                f"{values.get('shard_failures', 0)}")
            if values.get("shard_blocks_redispatched", 0) < 1:
                failures.append(f"[shards={n_shards}:kill-one] expected "
                                f"re-dispatched blocks; counter is "
                                f"{values.get('shard_blocks_redispatched', 0)}")
            survivors = threads[1:]
        else:
            survivors = threads
        # -- sharded subset search over the surviving daemons -------------
        live_spec = ",".join(f"{t.host}:{t.port}" for t in survivors)
        _check_search(config, live_spec, seed=3, failures=failures,
                      label=f"shards={len(survivors)}:search")
    finally:
        _stop_daemons(threads[1:] if len(threads) > 1 else threads,
                      failures, f"shards={n_shards}")

    # -- disk-warm: daemons and coordinator share one cache dir -----------
    if cache_dir is not None:
        disk_config = replace(config, cache_dir=cache_dir)
        threads, spec = _boot_daemons(disk_config, n_shards)
        try:
            _diff_run(cli_card, suite, focus, disk_config, spec,
                      f"shards={n_shards}:disk-cold", failures)
            # On a fully warm tier every pair is a disk hit and there is
            # nothing left to dispatch -- the disk IS the fast path.
            _diff_run(cli_card, suite, focus, disk_config, spec,
                      f"shards={n_shards}:disk-warm", failures,
                      expect_disk_hits=True, expect_dispatch=False)
        finally:
            _stop_daemons(threads, failures,
                          f"shards={n_shards}:disk")

    # -- one shard must equal many shards must equal serial ---------------
    threads, spec = _boot_daemons(config, 1)
    try:
        card_one, _values = _sharded_scorecard(suite, focus, config, spec)
        failures.extend(f"[shards=1] {m}"
                        for m in diff_scorecards(cli_card, card_one))
    finally:
        _stop_daemons(threads, failures, "shards=1")

    # Leak checks: every daemon was shut down; nothing may survive.
    import gc

    gc.collect()
    leaked = leaked_segments()
    if leaked:
        failures.append(f"leaked shared-memory segment(s) after "
                        f"shutdown: {sorted(leaked)}")
    if cache_dir is not None:
        stale = stale_artifacts(cache_dir)
        if stale:
            failures.append(f"stale disk-cache tmp artifact(s) after "
                            f"shutdown: {sorted(stale)}")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.qa.shard_check",
        description="Shard smoke: boot N local scoring daemons as shard "
                    "workers, run sharded scoring and subset search, "
                    "diff bit-for-bit against the serial oracle "
                    "(cold, disk-warm, kill-one-shard).",
    )
    parser.add_argument("--shards", type=int, default=2, metavar="N",
                        help="shard daemons to boot (default 2)")
    parser.add_argument("--suite", default="nbench",
                        help="suite to score (default: nbench)")
    parser.add_argument("--focus", default="all",
                        choices=["all", "llc", "tlb", "branch", "core"])
    parser.add_argument("--full", action="store_true",
                        help="full-length traces (slower; default is "
                             "the quick preset)")
    args = parser.parse_args(argv)

    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-shard-smoke-") as tmp:
        failures = check_shards(
            n_shards=args.shards, suite=args.suite, focus=args.focus,
            cache_dir=tmp, quick=not args.full,
        )
    head = (f"shard determinism check (shards={args.shards}, "
            f"suite={args.suite!r}, focus={args.focus!r}): ")
    if not failures:
        print(head + "PASS -- sharded scorecards and subset search "
                     "bit-identical to the serial oracle (cold, "
                     "disk-warm, kill-one-shard, single-shard); failed-shard blocks re-dispatched; "
                     "shutdown leak-free")
        return 0
    print(head + f"FAIL -- {len(failures)} problem(s)")
    for failure in failures:
        print(f"  {failure}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
