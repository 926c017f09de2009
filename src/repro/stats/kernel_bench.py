"""Scalar-oracle-vs-dispatcher benchmark for the stats compute kernels.

Times the shape dispatchers (:mod:`repro.stats.backend`) against the
scalar oracle loops they must reproduce -- one
:func:`~repro.stats.dtw.dtw_distance` per pair, one
:func:`~repro.stats.kstest.ks_statistic_uniform` per column -- on the
pairwise hot path (the banded all-pairs DTW sweep and the
shape-bucketed mixed-length sweep) plus an informational column-KS
timing. The committed ``BENCH_kernels.json`` baseline (where
``reference_s`` is the oracle loop and ``vectorized_s`` the
dispatcher) records the expected shape; its ``min_speedup_banded``
(5x) and ``min_speedup_mixed`` (3x) fields are the guards ``--check``
(the ``make bench-kernels`` target) enforces.

::

    python -m repro.stats.kernel_bench            # run and print
    python -m repro.stats.kernel_bench --write    # refresh BENCH_kernels.json
    python -m repro.stats.kernel_bench --check    # exit 1 below baseline

Timings are machine-dependent and only indicative; the speedup *ratio*
is the contract. Every dispatcher result is additionally diffed
bit-for-bit against the oracle loop's -- a kernel that bought its
speed with a single flipped bit fails here before it fails anywhere
subtle.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.stats.backend import ks_columns, pair_distances
from repro.stats.dtw import dtw_distance
from repro.stats.kstest import ks_statistic_uniform

#: Banded all-pairs subject: SPEC'17-sized (43 series), equal length.
BANDED_SUBJECT = {"n_series": 43, "length": 100, "band": 8}
#: Mixed-length subject: same count, lengths cycling through four sizes
#: so the shape-bucketed kernel sees several buckets per sweep.
MIXED_SUBJECT = {"n_series": 43, "lengths": (64, 80, 96, 100)}
#: Column-KS subject (informational timing, no gate).
KS_SUBJECT = {"n_samples": 256, "n_columns": 512}

MIN_SPEEDUP_BANDED = 5.0
MIN_SPEEDUP_MIXED = 3.0
DEFAULT_BASELINE = "BENCH_kernels.json"
REPEATS = 3


def build_banded_subject(seed=0, n_series=43, length=100, band=8):
    """Equal-length series stacked ``(n, L)`` plus the all-pairs index."""
    rng = np.random.default_rng(seed)
    arrays = [rng.uniform(0.0, 10.0, size=length) for _ in range(n_series)]
    idx_i, idx_j = np.triu_indices(n_series, k=1)
    return arrays, idx_i, idx_j, band


def build_mixed_subject(seed=1, n_series=43, lengths=(64, 80, 96, 100)):
    """Unequal-length series (cycling lengths) plus the all-pairs index."""
    rng = np.random.default_rng(seed)
    arrays = [
        rng.uniform(0.0, 10.0, size=lengths[i % len(lengths)])
        for i in range(n_series)
    ]
    idx_i, idx_j = np.triu_indices(n_series, k=1)
    return arrays, idx_i, idx_j


def _best_of(repeats, fn):
    """Best-of-N wall time and the last result (results are
    deterministic, so any run's output stands for all of them)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _time_pairs(arrays, idx_i, idx_j, band, repeats=REPEATS):
    """Time the per-pair oracle loop vs the dispatcher over one pair
    sweep; bit-diff the results."""
    ref_s, ref = _best_of(repeats, lambda: np.array(
        [dtw_distance(arrays[i], arrays[j], band=band)
         for i, j in zip(idx_i, idx_j)]))
    vec_s, vec = _best_of(
        repeats, lambda: pair_distances(arrays, idx_i, idx_j, band))
    return {
        "n_pairs": int(len(idx_i)),
        "reference_s": round(ref_s, 4),
        "vectorized_s": round(vec_s, 4),
        "speedup": (round(ref_s / vec_s, 2) if vec_s > 0
                    else float("inf")),
        "identical": (np.asarray(ref, dtype=float).tobytes()
                      == np.asarray(vec, dtype=float).tobytes()),
    }


def _time_ks(seed=2, n_samples=4096, n_columns=24, repeats=REPEATS):
    """Time the per-column oracle loop vs the KS dispatcher."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n_samples, n_columns))
    ref_s, ref = _best_of(repeats, lambda: np.array(
        [ks_statistic_uniform(x[:, c]) for c in range(x.shape[1])]))
    vec_s, vec = _best_of(repeats, lambda: ks_columns(x))
    return {
        "n_samples": n_samples,
        "n_columns": n_columns,
        "reference_s": round(ref_s, 4),
        "vectorized_s": round(vec_s, 4),
        "speedup": (round(ref_s / vec_s, 2) if vec_s > 0
                    else float("inf")),
        "identical": (np.asarray(ref, dtype=float).tobytes()
                      == np.asarray(vec, dtype=float).tobytes()),
    }


def run_bench(seed=0):
    """Run all three kernel sweeps; return the result record."""
    arrays, idx_i, idx_j, band = build_banded_subject(
        seed=seed, **BANDED_SUBJECT)
    banded = _time_pairs(arrays, idx_i, idx_j, band)

    arrays, idx_i, idx_j = build_mixed_subject(
        seed=seed + 1, **MIXED_SUBJECT)
    mixed = _time_pairs(arrays, idx_i, idx_j, None)

    ks = _time_ks(seed=seed + 2, **KS_SUBJECT)

    return {
        "banded": {**BANDED_SUBJECT, **banded},
        "mixed": {**{k: list(v) if isinstance(v, tuple) else v
                     for k, v in MIXED_SUBJECT.items()}, **mixed},
        "ks": ks,
        "min_speedup_banded": MIN_SPEEDUP_BANDED,
        "min_speedup_mixed": MIN_SPEEDUP_MIXED,
    }


def render(result):
    banded, mixed, ks = result["banded"], result["mixed"], result["ks"]
    lines = [
        "stats kernel bench (scalar oracle loop vs shape dispatcher):",
        f"  banded all-pairs DTW ({banded['n_series']} series, "
        f"L={banded['length']}, band={banded['band']}, "
        f"{banded['n_pairs']} pairs):",
        f"    oracle loop: {banded['reference_s']:.3f} s",
        f"    dispatcher:  {banded['vectorized_s']:.3f} s  "
        f"({banded['speedup']:.1f}x, gate >= "
        f"{result['min_speedup_banded']:.0f}x, "
        f"bit-identical: {banded['identical']})",
        f"  mixed-length bucketed DTW ({mixed['n_series']} series, "
        f"lengths {mixed['lengths']}, {mixed['n_pairs']} pairs):",
        f"    oracle loop: {mixed['reference_s']:.3f} s",
        f"    dispatcher:  {mixed['vectorized_s']:.3f} s  "
        f"({mixed['speedup']:.1f}x, gate >= "
        f"{result['min_speedup_mixed']:.0f}x, "
        f"bit-identical: {mixed['identical']})",
        f"  column KS ({ks['n_samples']} samples x "
        f"{ks['n_columns']} columns, informational):",
        f"    oracle loop: {ks['reference_s']:.3f} s",
        f"    dispatcher:  {ks['vectorized_s']:.3f} s  "
        f"({ks['speedup']:.1f}x, bit-identical: {ks['identical']})",
    ]
    return "\n".join(lines)


def check(result, baseline):
    """Gate failures for one run against one baseline record."""
    gate_banded = float(baseline.get("min_speedup_banded",
                                     MIN_SPEEDUP_BANDED))
    gate_mixed = float(baseline.get("min_speedup_mixed",
                                    MIN_SPEEDUP_MIXED))
    failures = []
    for name in ("banded", "mixed", "ks"):
        if not result[name]["identical"]:
            failures.append(f"{name}: dispatcher results are not "
                            f"bit-identical to the scalar oracle loop")
    if result["banded"]["speedup"] < gate_banded:
        failures.append(
            f"banded: speedup {result['banded']['speedup']:.1f}x below "
            f"the {gate_banded:.0f}x gate")
    if result["mixed"]["speedup"] < gate_mixed:
        failures.append(
            f"mixed: speedup {result['mixed']['speedup']:.1f}x below "
            f"the {gate_mixed:.0f}x gate")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.stats.kernel_bench",
        description="Time the DTW / KS shape dispatchers against the "
                    "scalar oracle loops; verify bit-identity.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", metavar="PATH", default=DEFAULT_BASELINE,
                        help="baseline file for --write/--check")
    parser.add_argument("--write", action="store_true",
                        help="write the result as the new baseline")
    parser.add_argument("--check", action="store_true",
                        help="fail unless speedups meet the baseline's "
                             "gates and all results are bit-identical")
    args = parser.parse_args(argv)

    result = run_bench(seed=args.seed)
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
        print(f"check passed: banded >= "
              f"{baseline.get('min_speedup_banded', MIN_SPEEDUP_BANDED):.0f}x, "
              f"mixed >= "
              f"{baseline.get('min_speedup_mixed', MIN_SPEEDUP_MIXED):.0f}x, "
              f"all bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
