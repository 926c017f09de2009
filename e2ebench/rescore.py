"""``rescore``: scoring generated counter matrices through the public API.

Nothing is simulated. The inputs are six suites from :mod:`inputs`;
every operation gets a fresh ``Engine`` at ``workers=1``, as every CLI
call does, so the engine, statistics and core layers do all the work.
One round, in a fixed order:

* ``compare`` of the six seeded suites under focus ``all``, ``llc`` and
  ``tlb``;
* ``SubsetSearch`` of 64 LHS candidates for an 8-workload subset of the
  43-workload suite, and ``SuiteComposer.compose`` of an 8-workload
  suite from the six pooled;
* a ``score`` of each suite of the *metamorphic family* -- six suites
  of the same shapes generated from a fixed seed, so that the outcome
  does not depend on ``--seed`` -- and, for the five suites of up to 13
  workloads, a ``score`` of a row-permuted copy and a ``score`` of a
  copy with every counter times 100.

The permuted and scaled scores must equal the plain score within a
ULP-level tolerance: the scores claim to be functions of the suite, not
of row order or counter units. Two program faults break that today
(README.md): those operations count as failed until they are mended.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass

import numpy as np

import inputs
import refs
from run import Op

IN_PROCESS = True

#: The CLI's metric seed (``ExperimentConfig.metric_seed``).
METRIC_SEED = 3
#: Seed of the metamorphic family; fixed, so the known faults fail the
#: same operations on every run.
FAMILY_SEED = 2023
SCALE = 100.0
#: "Equal" for a metamorphic pair: a few thousand ULPs of slack for
#: a different summation order, far below any real score movement.
METAMORPHIC_REL = 1e-12
#: Suites up to this size get metamorphic copies. The 43-workload
#: suite's two copies would cost a quarter of the round (its score is
#: ~90% of the family's scoring time) and show nothing the five smaller
#: suites do not.
METAMORPHIC_MAX_WORKLOADS = 13
#: DTW pairs per event checked against the plain DP reference.
DTW_SAMPLES = 3
SETUP_REPEATS = 5

SIZES = {
    "full": dict(shapes=inputs.SUITE_SHAPES, search_suite="g-spec17",
                 search_size=8, candidates=64, compose_size=8),
    "tiny": dict(shapes=inputs.TINY_SHAPES, search_suite="g-b",
                 search_size=4, candidates=8, compose_size=4),
}

@dataclass
class State:
    setup_times: list
    seeded: dict
    family: dict
    permuted: dict
    scaled: dict


@dataclass
class Record:
    op: Op
    kind: str
    arg: str
    result: object
    engine: object


@dataclass
class Round:
    wall_s: float
    latencies_ms: list
    ops: list
    records: list
    layers: tuple = ()


def _inputs(ctx):
    shapes = SIZES[ctx.size]["shapes"]
    seeded = inputs.generate_suites(ctx.seed, shapes)
    family = inputs.generate_suites(FAMILY_SEED, shapes)
    rng = np.random.default_rng(FAMILY_SEED)
    copied = {n: m for n, m in family.items()
              if m.n_workloads <= METAMORPHIC_MAX_WORKLOADS}
    permuted = {n: inputs.permuted(m, rng) for n, m in copied.items()}
    scaled = {n: inputs.scaled(m, SCALE) for n, m in copied.items()}
    return seeded, family, permuted, scaled


def setup(ctx):
    """Generate the inputs (several times, for a steadier set-up
    figure)."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        made = _inputs(ctx)
        times.append(time.perf_counter() - start)
    return State(times, *made)


def _plan(state):
    """The round's operations, small and large interleaved so that no
    stretch of host noise lands on one kind only."""
    plan = [("compare", "all")]
    for i, name in enumerate(state.family):
        plan.append(("score", name))
        if name in state.permuted:
            plan += [("permuted", name), ("scaled", name)]
        if i == 1:
            plan.append(("compare", "llc"))
        if i == 3:
            plan.append(("compare", "tlb"))
    plan += [("search", ""), ("compose", "")]
    return plan


def _execute(ctx, state, kind, arg):
    from repro.core.composer import SuiteComposer, merge_pools
    from repro.core.perspector import Perspector, PerspectorConfig
    from repro.engine import Engine, SubsetSearch

    size = SIZES[ctx.size]
    engine = Engine(workers=1)
    perspector = Perspector(config=PerspectorConfig(seed=METRIC_SEED),
                            engine=engine)
    if kind == "compare":
        return perspector.compare(*state.seeded.values(), focus=arg), engine
    if kind == "score":
        return perspector.score(state.family[arg]), engine
    if kind == "permuted":
        return perspector.score(state.permuted[arg]), engine
    if kind == "scaled":
        return perspector.score(state.scaled[arg]), engine
    if kind == "search":
        search = SubsetSearch(state.seeded[size["search_suite"]],
                              size["search_size"], seed=METRIC_SEED,
                              engine=engine)
        return search.search(size["candidates"], method="lhs"), engine
    pool = merge_pools(*state.seeded.values())
    return SuiteComposer(size["compose_size"],
                         seed=METRIC_SEED).compose(pool), engine


def round(ctx, state):
    records, latencies = [], []
    start = time.perf_counter()
    for kind, arg in _plan(state):
        known = {"permuted": "cluster-row-order",
                 "scaled": "trend-counter-units"}.get(kind)
        op = Op(f"{kind}:{arg}" if arg else kind, known_fault=known)
        t0 = time.perf_counter()
        try:
            result, engine = _execute(ctx, state, kind, arg)
        # The round must reach its end: a raising operation is a failed
        # operation, reported with its traceback.
        except Exception:
            op.check(False, traceback.format_exc(limit=3))
            result, engine = None, None
        if known is None:
            # The metamorphic copies are checks, not calls a user
            # makes: they count in wall_s but not as requests.
            latencies.append((time.perf_counter() - t0) * 1e3)
        records.append(Record(op, kind, arg, result, engine))
    wall = time.perf_counter() - start
    return Round(wall_s=wall, latencies_ms=latencies,
                 ops=[r.op for r in records], records=records)


# -- checks -------------------------------------------------------------------


def _check_card(op, card, x, series, engine, rng, samples):
    """One scorecard against the references. ``x`` is the matrix the
    card was scored on (normalized as the program normalizes it);
    sampled DTW pairs are queued in ``samples`` for one batched
    reference sweep."""
    from repro.core.normalization import normalize_series_set

    name = card.suite_name
    op.check(refs.close(card.coverage, refs.coverage(x)),
             f"{name} coverage {card.coverage} vs reference "
             f"{refs.coverage(x)}")
    op.check(refs.close(card.spread, refs.spread(x)),
             f"{name} spread {card.spread} vs reference {refs.spread(x)}")
    cluster = card.details["cluster"]
    per_k = cluster.per_k
    op.check(refs.close(card.cluster, float(np.mean(list(per_k.values())))),
             f"{name} cluster is not the mean of its per-k silhouettes")
    op.check(per_k[cluster.best_k] == max(per_k.values()),
             f"{name} best_k {cluster.best_k} is not the best silhouette")
    sil = refs.silhouette(x, cluster.labels_at_best_k)
    op.check(refs.close(per_k[cluster.best_k], sil),
             f"{name} silhouette at k={cluster.best_k}: "
             f"{per_k[cluster.best_k]} vs reference {sil}")
    per_event = card.details["trend"].per_event
    op.check(refs.close(card.trend,
                        float(np.mean(list(per_event.values())))),
             f"{name} trend is not the mean of its per-event scores")
    for event, value in per_event.items():
        norm = normalize_series_set(series[event])
        dmatrix = engine.dtw_matrix(norm)
        n = len(norm)
        op.check(refs.close(value, float(dmatrix.sum() / (n * (n - 1)))),
                 f"{name}/{event} trend {value} is not the mean of its "
                 f"DTW matrix")
        for _ in range(DTW_SAMPLES):
            i, j = rng.choice(n, size=2, replace=False)
            samples.append((op, f"{name}/{event} DTW({i},{j})",
                            norm[i], norm[j], dmatrix[i, j]))


def _check_samples(samples):
    if not samples:
        return
    ref = refs.dtw_pairs([s[2] for s in samples], [s[3] for s in samples])
    for (op, label, _a, _b, got), want in zip(samples, ref):
        op.check(refs.close(got, want),
                 f"{label}: {got} vs plain DP {want}")


def _check_search(op, result, matrix):
    """Best deviation is the minimum, and equals an unsliced re-scoring
    of the chosen subset under the full suite's bounds."""
    from repro.core.cluster_score import cluster_score
    from repro.core.coverage_score import coverage_score
    from repro.core.matrix import CounterMatrix
    from repro.core.spread_score import spread_score
    from repro.core.trend_score import trend_score

    best = result.best.mean_deviation_pct
    devs = [r.mean_deviation_pct for r in result.reports]
    op.check(not np.isnan(best) and all(best <= d for d in devs
                                        if not np.isnan(d)),
             f"best deviation {best} is not the minimum of {len(devs)}")
    subset = matrix.select_workloads(result.best.selected)
    lo, hi = matrix.values.min(axis=0), matrix.values.max(axis=0)
    unsliced = CounterMatrix(
        workloads=subset.workloads, events=subset.events,
        values=np.clip(refs.minmax(subset.values, lo, hi), 0.0, 1.0),
        series=subset.series, suite_name=subset.suite_name)
    rescored = {
        "cluster": cluster_score(unsliced, seed=METRIC_SEED,
                                 normalize=False).value,
        "coverage": coverage_score(unsliced, normalize=False).value,
        "spread": spread_score(unsliced, normalize=False).value,
        "trend": trend_score(unsliced).value,
    }
    for score, value in rescored.items():
        got = result.best.subset_scores[score]
        op.check(refs.close(got, value),
                 f"subset {score}: sliced {got} vs unsliced {value}")


def _check_compose(op, result, pool, size):
    from repro.core.cluster_score import cluster_score

    chosen = [pool.workloads.index(w) for w in result.selected]
    op.check(len(set(chosen)) == size,
             f"composed {len(set(chosen))} distinct workloads, not {size}")
    x = refs.minmax(pool.values)[chosen]
    objective = (refs.coverage(x) - 0.5 * refs.spread(x)
                 - 0.5 * cluster_score(x, seed=METRIC_SEED, normalize=False,
                                       n_restarts=4).value)
    op.check(refs.close(result.final_objective, objective),
             f"final objective {result.final_objective} vs recomputed "
             f"{objective}")
    op.check(np.array_equal(result.matrix.values, pool.values[chosen]),
             "composed matrix rows are not the pool's rows")


def check(ctx, state, result):
    from repro.core.composer import merge_pools
    from repro.core.focus import apply_focus

    rng = np.random.default_rng([ctx.seed, 7])
    samples = []
    baseline = {r.arg: r.result for r in result.records
                if r.kind == "score"}
    for rec in result.records:
        op = rec.op
        if rec.result is None:
            continue
        if rec.kind == "compare":
            focused = [apply_focus(m, rec.arg) for m in state.seeded.values()]
            joint = refs.joint_minmax([m.values for m in focused])
            for card, m, x in zip(rec.result.scorecards, focused, joint):
                _check_card(op, card, x, m.series, rec.engine, rng, samples)
        elif rec.kind == "score":
            m = state.family[rec.arg]
            _check_card(op, rec.result, refs.minmax(m.values), m.series,
                        rec.engine, rng, samples)
        elif rec.kind in ("permuted", "scaled"):
            base = baseline[rec.arg]
            if not op.check(base is not None, "no plain score to compare"):
                continue
            for score in ("cluster", "trend", "coverage", "spread"):
                a, b = getattr(base, score), getattr(rec.result, score)
                op.check(refs.close(a, b, rel=METAMORPHIC_REL),
                         f"{rec.arg} {score}: {a!r} -> {b!r}")
        elif rec.kind == "search":
            _check_search(op, rec.result,
                          state.seeded[SIZES[ctx.size]["search_suite"]])
        else:
            _check_compose(op, rec.result,
                           merge_pools(*state.seeded.values()),
                           SIZES[ctx.size]["compose_size"])
    _check_samples(samples)
    for rec in result.records:
        if rec.engine is not None:
            rec.engine.close()
    result.records = []
    return []


# -- traced pass --------------------------------------------------------------


def traced_pass(ctx, state):
    import tracing

    recorder = tracing.install()
    try:
        result = round(ctx, state)
        payload = recorder.as_dict()
        payload["engine"] = tracing.engine_counters()
    finally:
        tracing.uninstall()
    result.layers = tracing.layer_metrics([payload])
    return result


def teardown(ctx, state):
    pass
