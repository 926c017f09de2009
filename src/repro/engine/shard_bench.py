"""Shard fan-out benchmark: 2 local shard daemons vs 1.

One timed comparison, guarded by the committed ``BENCH_shard.json``
baseline: an all-pairs DTW matrix (the dominant scoring kernel, and the
workload the shard fan-out exists for) computed through
``Engine(shards=...)`` against **one** local ``repro serve`` daemon and
then against **two**, each daemon a real subprocess. Work is CPU-bound
on the daemons, so two shards on two cores should cut the wall time
nearly in half; the gate is >= 1.6x. Each arm is timed best-of-3
against the same launched daemons, every repeat through a fresh
coordinator engine (the daemons' ``dtw-pairs`` op caches nothing, so
every repeat is cold); the baseline records each arm's spread.

Both arms are also diffed bit-for-bit against a local serial engine --
``identical: true`` in the baseline is the shard fan-out's whole
premise (DESIGN.md §14), and it is enforced unconditionally.

The *speedup* gate needs hardware that can actually run two daemons at
once: on a single-core host the two arms time-share one CPU and the
ratio is physics-bound to ~1x, so the check records the measured ratio
but only enforces it when ``os.cpu_count() >= 2`` (the same
skip-with-notice convention ``make qa`` uses for absent tools).

::

    python -m repro.engine.shard_bench            # run and print
    python -m repro.engine.shard_bench --write    # refresh baseline
    python -m repro.engine.shard_bench --check    # gate (exit 1)
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time

import numpy as np

#: The 2-shard arm must clear this ratio over the 1-shard arm (also
#: stored in the baseline), on hosts with at least MIN_CORES cores.
MIN_SPEEDUP = 1.6
MIN_CORES = 2
#: Timed repeats per arm; the best one counts.
REPEATS = 3
DEFAULT_BASELINE = "BENCH_shard.json"

#: All-pairs subject: 48 series x length 220 is ~1128 DTW pairs --
#: a few seconds of batched compute, so the per-block HTTP + hex
#: transport cost stays in the noise.
SUBJECT = {"n_series": 48, "length": 220}

_BANNER = re.compile(
    r"repro serve: listening on http://([^:]+):(\d+)")


def build_series(seed=0, n_series=48, length=220):
    """The bench subject: seeded random-walk series (cumsum of unit
    normals), the same family every other bench draws from."""
    rng = np.random.default_rng(seed)
    return [np.cumsum(rng.standard_normal(length))
            for _ in range(n_series)]


def _daemon_command():
    return [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            "--workers", "1"]


def _cli_env():
    """Child env whose PYTHONPATH resolves this very repro package."""
    src = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    current = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not current else os.pathsep.join(
        [src, current])
    # A shard daemon must never shard (repro serve strips the flag, but
    # keep the bench hermetic against the caller's environment too).
    env.pop("REPRO_SHARDS", None)
    return env


def _launch_daemons(n):
    """Start n `repro serve` subprocesses; returns [(proc, host, port)]
    once every daemon has printed its listening banner."""
    daemons = []
    try:
        for _ in range(n):
            proc = subprocess.Popen(
                _daemon_command(), env=_cli_env(),
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True,
            )
            while True:
                line = proc.stderr.readline()
                if not line:
                    raise RuntimeError(
                        "shard daemon exited before its listening "
                        f"banner (exit {proc.poll()})")
                match = _BANNER.search(line)
                if match:
                    daemons.append((proc, match.group(1),
                                    int(match.group(2))))
                    break
    except BaseException:
        _stop_daemons(daemons)
        raise
    return daemons


def _stop_daemons(daemons):
    from repro.service import ServiceClient

    for proc, host, port in daemons:
        try:
            if proc.poll() is None:
                ServiceClient(host=host, port=port, retries=0,
                              connect_timeout=5.0).shutdown()
        except Exception:  # qa-ignore[overbroad-except]
            proc.terminate()
        finally:
            proc.wait(timeout=30)
            proc.stderr.close()


def _timed_sharded_matrix(series, daemons):
    """REPEATS cold sharded all-pairs DTW matrices, each through a
    fresh coordinator engine; returns (matrices, secs)."""
    from repro.engine.engine import Engine

    spec = ",".join(f"{host}:{port}" for _proc, host, port in daemons)
    matrices, times = [], []
    for _ in range(REPEATS):
        with Engine(workers=1, shards=spec) as engine:
            start = time.perf_counter()
            matrices.append(engine.dtw_matrix(series))
            times.append(time.perf_counter() - start)
    return matrices, times


def _spread(times):
    """(max - min) / min of one arm's repeat times."""
    return round((max(times) - min(times)) / min(times), 3)


def run_shard_bench(seed=0, subject=None):
    """1 local shard daemon vs 2 on one all-pairs DTW matrix."""
    subject = dict(SUBJECT if subject is None else subject)
    series = build_series(seed=seed, **subject)

    from repro.engine.engine import Engine

    with Engine(workers=1) as engine:
        serial = engine.dtw_matrix(series)

    arms = {}
    for n_shards in (1, 2):
        daemons = _launch_daemons(n_shards)
        try:
            arms[n_shards] = _timed_sharded_matrix(series, daemons)
        finally:
            _stop_daemons(daemons)

    identical = all(
        matrix.tobytes() == serial.tobytes()
        for matrices, _times in arms.values() for matrix in matrices
    )
    one_s, two_s = min(arms[1][1]), min(arms[2][1])
    return {
        "subject": subject,
        "cores": os.cpu_count(),
        "repeats": REPEATS,
        "one_shard_s": round(one_s, 4),
        "one_shard_spread": _spread(arms[1][1]),
        "two_shard_s": round(two_s, 4),
        "two_shard_spread": _spread(arms[2][1]),
        "speedup": (round(one_s / two_s, 2) if two_s > 0
                    else float("inf")),
        "identical": identical,
        "min_speedup": MIN_SPEEDUP,
    }


def render(result):
    subject = result["subject"]
    lines = [
        "shard fan-out bench (all-pairs DTW, "
        f"{subject['n_series']} series x length {subject['length']}, "
        f"best of {result['repeats']}, {result['cores']} cores):",
        f"  1 shard:  {result['one_shard_s']:.3f} s "
        f"(spread {result['one_shard_spread']:.0%})",
        f"  2 shards: {result['two_shard_s']:.3f} s "
        f"(spread {result['two_shard_spread']:.0%}) "
        f"({result['speedup']:.1f}x; gate >= "
        f"{result['min_speedup']:.1f}x on >= {MIN_CORES} cores)",
        f"  sharded matrices bit-identical to serial: "
        f"{result['identical']}",
    ]
    if (result.get("cores") or 0) < MIN_CORES:
        lines.append(
            f"  single-core host ({result.get('cores')} core): speedup "
            "gate not enforced -- two daemons time-share one CPU; "
            "bit-identity still enforced")
    return "\n".join(lines)


def check(result, baseline):
    """Failure strings (empty = pass) for a result vs a baseline."""
    min_speedup = float(baseline.get("min_speedup", MIN_SPEEDUP))
    failures = []
    if not result["identical"]:
        failures.append("sharded DTW matrices are not bit-identical "
                        "to the serial engine's")
    if (result.get("cores") or 0) >= MIN_CORES \
            and result["speedup"] < min_speedup:
        failures.append(
            f"2-shard speedup {result['speedup']:.1f}x below the "
            f"{min_speedup:.1f}x baseline on a "
            f"{result['cores']}-core host"
        )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine.shard_bench",
        description="Time an all-pairs DTW matrix through 1 vs 2 local "
                    "shard daemons and diff both against the serial "
                    "engine.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", metavar="PATH", default=DEFAULT_BASELINE,
                        help="baseline file for --write/--check")
    parser.add_argument("--write", action="store_true",
                        help="write the result as the new baseline")
    parser.add_argument("--check", action="store_true",
                        help="fail unless the 2-shard arm clears the "
                             "baseline's min_speedup (>= 2 cores) "
                             "bit-identically")
    args = parser.parse_args(argv)

    result = run_shard_bench(seed=args.seed)
    print(render(result))

    if args.write:
        with open(args.json, "w") as f:
            json.dump(result, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.json}")
    if args.check:
        try:
            with open(args.json) as f:
                baseline = json.load(f)
        except FileNotFoundError:
            baseline = {}
        failures = check(result, baseline)
        if failures:
            for failure in failures:
                print(f"CHECK FAIL: {failure}")
            return 1
        enforced = (result.get("cores") or 0) >= MIN_CORES
        print("check passed: sharded arms bit-identical"
              + (f" and 2 shards >= "
                 f"{float(baseline.get('min_speedup', MIN_SPEEDUP)):.1f}x"
                 if enforced else
                 " (speedup gate skipped on this single-core host)"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
