"""Seeded inputs for the benchmark workloads.

Everything the program receives is generated here from the run's
``--seed``: the counter matrices the ``rescore`` workload scores, the
request sequence the ``served`` callers send, and the samples the
checks draw. The same seed gives the same inputs; nothing is read from
disk.

The ``rescore`` suites are shaped like the six modelled ones
(13/43/8/10/10/8 workloads) over the 14 Table IV events, with
12-interval series at raw-count magnitude (a real ``perf stat -I`` run
counts millions of cycles per interval but only tens of page faults).
Each suite plants a few clusters of similar workloads, and each
workload moves through one to three phases, so every score has
structure to find.
"""

from __future__ import annotations

import numpy as np

#: (suite name, workloads) -- the shapes of parsec, spec17, ligra,
#: lmbench, nbench and sgxgauge.
SUITE_SHAPES = (
    ("g-parsec", 13), ("g-spec17", 43), ("g-ligra", 8),
    ("g-lmbench", 10), ("g-nbench", 10), ("g-sgxgauge", 8),
)

#: Smaller shapes for the benchmark's own tests (``--size tiny``).
TINY_SHAPES = (("g-a", 6), ("g-b", 9), ("g-c", 5))

N_INTERVALS = 12

#: Independent events: log10 of a typical per-interval count.
BASE_LOG10 = {
    "cpu-cycles": 6.5,
    "branch-instructions": 5.3,
    "dtlb_walk_pending": 4.2,
    "stalls_mem_any": 5.6,
    "page-faults": 1.2,
    "dTLB-loads": 5.5,
    "dTLB-stores": 4.9,
    "LLC-loads": 3.6,
    "LLC-stores": 3.0,
}

#: Miss events drawn as a share of their access event, so a miss count
#: never exceeds its access count: miss event -> (access event, log10 of
#: a typical miss ratio).
MISS_OF = {
    "branch-misses": ("branch-instructions", -1.7),
    "dTLB-load-misses": ("dTLB-loads", -2.0),
    "dTLB-store-misses": ("dTLB-stores", -2.2),
    "LLC-load-misses": ("LLC-loads", -0.5),
    "LLC-store-misses": ("LLC-stores", -0.7),
}


def _workload_series(rng, center, n_intervals):
    """Per-event integer series for one workload around a cluster
    centre (log10 rates), with one to three phases."""
    n_phases = int(rng.integers(1, 4))
    cuts = np.sort(rng.choice(np.arange(1, n_intervals), size=n_phases - 1,
                              replace=False)) if n_phases > 1 else []
    phase_of = np.searchsorted(np.asarray(cuts), np.arange(n_intervals),
                               side="right")
    series = {}
    for event, base in BASE_LOG10.items():
        level = center[event] + rng.normal(0.0, 0.08)
        shifts = rng.normal(0.0, 0.35, size=n_phases)
        rate = 10.0 ** (level + shifts[phase_of])
        series[event] = rng.poisson(rate).astype(float)
    for event, (access, ratio_log10) in MISS_OF.items():
        ratio = np.clip(10.0 ** (center[event] + rng.normal(0.0, 0.05)
                                 + rng.normal(0.0, 0.2, size=n_phases)
                                 [phase_of]), 0.0, 1.0)
        trials = series[access].astype(np.int64)
        series[event] = rng.binomial(trials, ratio).astype(float)
    return series


def generate_suite(rng, name, n_workloads, events, n_intervals=N_INTERVALS):
    """One suite as a :class:`~repro.core.matrix.CounterMatrix`."""
    from repro.core.matrix import CounterMatrix

    n_clusters = max(2, n_workloads // 4)
    centers = []
    for _ in range(n_clusters):
        center = {e: b + rng.normal(0.0, 0.45)
                  for e, b in BASE_LOG10.items()}
        center.update({e: r + rng.normal(0.0, 0.4)
                       for e, (_a, r) in MISS_OF.items()})
        centers.append(center)
    membership = rng.integers(0, n_clusters, size=n_workloads)
    membership[:n_clusters] = np.arange(n_clusters)  # no empty cluster
    per_workload = [_workload_series(rng, centers[c], n_intervals)
                    for c in membership]
    values = np.array([[s[e].sum() for e in events] for s in per_workload])
    return CounterMatrix(
        workloads=tuple(f"w{i:02d}" for i in range(n_workloads)),
        events=tuple(events),
        values=values,
        series={e: [s[e] for s in per_workload] for e in events},
        suite_name=name,
    )


def generate_suites(seed, shapes=SUITE_SHAPES):
    """The ``rescore`` inputs for one seed: ``{name: CounterMatrix}`` in
    ``shapes`` order."""
    from repro.perf.events import TABLE_IV_EVENTS

    rng = np.random.default_rng([seed, 0x5EED])
    return {name: generate_suite(rng, name, n, TABLE_IV_EVENTS)
            for name, n in shapes}


def permuted(matrix, rng):
    """The same suite with its workload rows in another order."""
    order = rng.permutation(matrix.n_workloads)
    return matrix.select_workloads([matrix.workloads[i] for i in order])


def scaled(matrix, factor):
    """The same suite with every counter (totals and series) times
    ``factor`` -- a change of counter units."""
    from repro.core.matrix import CounterMatrix

    return CounterMatrix(
        workloads=matrix.workloads, events=matrix.events,
        values=matrix.values * factor,
        series={e: [np.asarray(s) * factor for s in ss]
                for e, ss in matrix.series.items()},
        suite_name=matrix.suite_name,
    )
