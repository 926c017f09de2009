"""``cold-compare``: the six-suite compare, cold and then disk-warm.

Each round runs ``perspector --quick compare <six suites> --workers 2
--cache-dir <fresh empty dir>`` as a new CLI process, then the same
command again over the now-warm directory. The first spends most of
its time in trace synthesis and cache/TLB/branch simulation; the
second reads only the disk tier. ``wall_s`` is the two commands
together; a "request" is one command.

Checks, after the timed commands: the cold table against independent
references computed from the measured counters (trend by plain DTW,
coverage by SVD, spread by ``scipy.stats.kstest``), the warm table
byte-identical to the cold one, counter properties of every measured
row, two workloads re-measured alone, the digest of two pinned rows,
and one workload's address stream replayed through a list-based LRU
model at the Table II cache geometries.
"""

from __future__ import annotations

import glob
import json
import os
import subprocess
import time
from dataclasses import dataclass, replace

import numpy as np

import refs
from run import Op

IN_PROCESS = False

SUITES = {"full": ("parsec", "spec17", "ligra", "lmbench", "nbench",
                   "sgxgauge"),
          "tiny": ("nbench", "sgxgauge")}

#: Miss counters and the access counters that bound them.
MISS_PAIRS = (
    ("branch-misses", "branch-instructions"),
    ("dTLB-load-misses", "dTLB-loads"),
    ("dTLB-store-misses", "dTLB-stores"),
    ("LLC-load-misses", "LLC-loads"),
    ("LLC-store-misses", "LLC-stores"),
)

#: Intervals of one workload's trace replayed through the LRU model.
LRU_INTERVALS = 8

SETUP_REPEATS = 5
COMMAND_TIMEOUT_S = 170


@dataclass
class State:
    setup_times: list
    rounds: int = 0


@dataclass
class Round:
    wall_s: float
    latencies_ms: list
    ops: list
    cache_dir: str = ""
    cold_stdout: str = ""
    layers: tuple = ()


def _command(ctx, cache_dir, trace_dir=None):
    return ctx.cli(trace_dir) + [
        "--quick", "compare", *SUITES[ctx.size], "--workers", "2",
        "--cache-dir", cache_dir]


def _launch(ctx, argv, trace_dir=None):
    """Run one CLI process to completion; ``(seconds, returncode,
    stdout, stderr)``."""
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ctx.work, env=ctx.env(trace_dir),
                          capture_output=True, text=True,
                          timeout=COMMAND_TIMEOUT_S)
    return (time.perf_counter() - start, proc.returncode, proc.stdout,
            proc.stderr)


def setup(ctx):
    """CLI start-up, measured by listing the suites a few times."""
    times = []
    for _ in range(SETUP_REPEATS):
        seconds, code, out, err = _launch(ctx, ctx.cli() + ["suites"])
        if code != 0 or not set(SUITES["full"]) <= set(out.split()):
            raise RuntimeError(f"repro suites failed ({code}): {err}")
        times.append(seconds)
    return State(setup_times=times)


def _timed_commands(ctx, state, trace_dir=None):
    state.rounds += 1
    cache_dir = os.path.join(ctx.work, f"cache-{state.rounds}")
    os.makedirs(cache_dir)
    cold = Op("cold-compare")
    warm = Op("warm-compare")
    t_cold, code, cold_out, err = _launch(
        ctx, _command(ctx, cache_dir, trace_dir), trace_dir)
    cold.check(code == 0, f"exit {code}: {err[-500:]}")
    t_warm, code, warm_out, err = _launch(
        ctx, _command(ctx, cache_dir, trace_dir), trace_dir)
    warm.check(code == 0, f"exit {code}: {err[-500:]}")
    warm.check(warm_out == cold_out,
               "disk-warm table differs from the cold table")
    return Round(wall_s=t_cold + t_warm,
                 latencies_ms=[t_cold * 1e3, t_warm * 1e3],
                 ops=[cold, warm], cache_dir=cache_dir,
                 cold_stdout=cold_out)


def round(ctx, state):
    return _timed_commands(ctx, state)


# -- checks -------------------------------------------------------------------


def _measured(ctx, cache_dir):
    """The measured suites, read back from the disk tier the CLI wrote."""
    from repro.experiments import runner

    runner.clear_cache()
    config = replace(runner.ExperimentConfig.quick(), cache_dir=cache_dir)
    return runner.measure_suites(SUITES[ctx.size], config), config


def _parse_table(text):
    rows = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 5 and parts[0] not in ("suite",):
            try:
                rows[parts[0]] = [float(p) for p in parts[1:]]
            except ValueError:
                continue
    return rows


def _check_table(op, table, matrices):
    """Trend, coverage and spread columns against the references."""
    names = list(matrices)
    op.check(sorted(table) == sorted(names),
             f"table rows {sorted(table)} != suites {sorted(names)}")
    if sorted(table) != sorted(names):
        return
    joint = refs.joint_minmax([matrices[n].values for n in names])
    for name, x in zip(names, joint):
        _cluster, trend, cov, spread = table[name]
        per_event = refs.trend_per_event(matrices[name].series)
        expected = {
            "trend": float(np.mean(list(per_event.values()))),
            "coverage": refs.coverage(x),
            "spread": refs.spread(x),
        }
        for score, printed in (("trend", trend), ("coverage", cov),
                               ("spread", spread)):
            ref = expected[score]
            op.check(abs(ref - printed) <= 0.5e-4 + 1e-9 * abs(ref),
                     f"{name} {score}: printed {printed} vs reference "
                     f"{ref:.6f}")


def _check_counters(matrices):
    integral = Op("counters-integral", known_fault="cycles-not-integral")
    consistent = Op("counters-consistent")
    for name, m in matrices.items():
        for j, event in enumerate(m.events):
            column = m.values[:, j]
            series = [np.asarray(s, dtype=float) for s in m.series[event]]
            values = np.concatenate([column] + series)
            bad = ~(np.isfinite(values) & (values >= 0)
                    & (values == np.round(values)))
            integral.check(not bad.any(),
                           f"{name}/{event}: {int(bad.sum())} values are not "
                           f"finite non-negative integers")
            sums = np.array([s.sum() for s in series])
            if bad.any():
                # Fractional counts (the fault counters-integral reports)
                # sum to the total only up to the summation order.
                same = all(refs.close(a, b, rel=1e-12)
                           for a, b in zip(sums, column))
            else:
                same = np.array_equal(sums, column)
            consistent.check(same, f"{name}/{event}: series sums != totals")
        for miss, access in MISS_PAIRS:
            i, k = m.events.index(miss), m.events.index(access)
            consistent.check(bool(np.all(m.values[:, i] <= m.values[:, k])),
                             f"{name}: {miss} > {access} in a total")
            for w, (sm, sa) in enumerate(zip(m.series[miss],
                                             m.series[access])):
                consistent.check(bool(np.all(np.asarray(sm)
                                             <= np.asarray(sa))),
                                 f"{name}/{m.workloads[w]}: {miss} > "
                                 f"{access} in an interval")
    return [integral, consistent]


def _pick(ctx, matrices, salt):
    rng = np.random.default_rng([ctx.seed, salt])
    names = list(matrices)
    out = []
    for _ in range(2):
        suite = names[int(rng.integers(len(names)))]
        workloads = matrices[suite].workloads
        out.append((suite, workloads[int(rng.integers(len(workloads)))]))
    return out


def _check_remeasure(ctx, matrices, config):
    """Two workloads measured alone on a fresh session reproduce their
    rows of the suite measurement bit for bit."""
    from repro.workloads import load_suite

    op = Op("remeasure")
    for suite, workload in _pick(ctx, matrices, 1):
        m = matrices[suite]
        alone = config.session().run_workload(
            load_suite(suite).workload(workload))
        row = m.workloads.index(workload)
        op.check(np.array_equal(alone.vector(m.events), m.values[row]),
                 f"{suite}/{workload}: re-measured totals differ")
        for event in m.events:
            op.check(np.array_equal(np.asarray(alone.series[event]),
                                    np.asarray(m.series[event][row])),
                     f"{suite}/{workload}/{event}: re-measured series "
                     f"differ")
    return op


def _check_digest(matrices):
    import digest

    op = Op("digest")
    pinned = digest.load()
    for key, expected in pinned.items():
        suite, workload = key.split("/")
        if suite not in matrices:
            continue
        got = digest.row_digest(matrices[suite], workload)
        op.check(got == expected, f"{key}: counter digest {got[:12]} != "
                                  f"pinned {expected[:12]}")
    return op


def _check_lru(ctx, matrices, config):
    """One workload's address stream through ``SetAssociativeCache``
    and :class:`refs.ListLRUCache` at each Table II geometry."""
    from repro.uarch.cache import SetAssociativeCache
    from repro.uarch.config import xeon_e2186g
    from repro.workloads import load_suite

    op = Op("lru-reference")
    suite, workload = _pick(ctx, matrices, 2)[0]
    trace = list(load_suite(suite).workload(workload).intervals(
        n_intervals=LRU_INTERVALS, ops_per_interval=config.ops_per_interval,
        seed=ctx.seed))
    addrs = np.concatenate([t.addresses for t in trace]).tolist()
    writes = np.concatenate([t.is_write for t in trace]).tolist()
    machine = xeon_e2186g()
    for level in (machine.l1, machine.l2, machine.llc):
        program = SetAssociativeCache(level)
        program.access_many(np.asarray(addrs, dtype=np.int64),
                            np.asarray(writes, dtype=bool))
        model = refs.ListLRUCache(level.size_bytes, level.line_bytes,
                                  level.associativity)
        for a, w in zip(addrs, writes):
            model.access(a, w)
        s = program.stats
        got = {"loads": s.loads, "stores": s.stores,
               "load_misses": s.load_misses, "store_misses": s.store_misses,
               "evictions": s.evictions, "writebacks": s.writebacks}
        op.check(got == model.counters(),
                 f"{suite}/{workload} {level.name}: {got} != "
                 f"{model.counters()}")
    return op


CHECK_OPS = ("counters-integral", "counters-consistent", "remeasure",
             "digest", "lru-reference")


def check(ctx, state, result):
    cold = result.ops[0]
    if not cold.ok:
        # Every round attempts the same operations, checked or not.
        ops = [Op(name) for name in CHECK_OPS]
        for op in ops:
            op.check(False, "not checked: the cold compare failed")
        return ops
    matrices, config = _measured(ctx, result.cache_dir)
    _check_table(cold, _parse_table(result.cold_stdout), matrices)
    ops = _check_counters(matrices)
    ops.append(_check_remeasure(ctx, matrices, config))
    ops.append(_check_digest(matrices))
    ops.append(_check_lru(ctx, matrices, config))
    return ops


# -- traced pass --------------------------------------------------------------


def traced_pass(ctx, state):
    import tracing

    trace_dir = os.path.join(ctx.work, f"trace-{state.rounds + 1}")
    os.makedirs(trace_dir)
    result = _timed_commands(ctx, state, trace_dir)
    payloads = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.json"))):
        with open(path) as f:
            payloads.append(json.load(f))
    result.layers = tracing.layer_metrics(payloads)
    return result


def teardown(ctx, state):
    pass

