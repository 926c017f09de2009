"""Tests for repro.stats.backend and the batched compute kernels.

The shape dispatcher's whole contract is that its kernel choice never
shows in an output bit, so almost every test here is a bit-identity
assertion against the scalar oracles: batched wavefront vs the
sequential reference fill, bucketed mixed-length sweeps vs the per-pair
loop, column-batched KS vs the scalar statistic, and every dispatch
branch -- directly and through the engine -- vs one ``dtw_distance``
per pair.
"""

import numpy as np
import pytest

from repro.stats import backend
from repro.stats.backend import ks_columns, pair_distances
from repro.stats.dtw import (
    _accumulate,
    _accumulate_banded,
    _batched_accumulate,
    _local_cost_matrix,
    banded_pair_distances,
    bucketed_pair_distances,
    dtw_distance,
)
from repro.stats.kstest import (
    _kolmogorov_sf,
    kolmogorov_sf_batch,
    ks_statistic_uniform,
    ks_statistic_uniform_columns,
)


def bits(values):
    """The exact byte content of a float array -- equality through this
    is bit-identity, not approximate closeness."""
    return np.asarray(values, dtype=float).tobytes()


class TestBatchedAccumulate:
    def test_unbanded_matches_reference_fill(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n = int(rng.integers(1, 30))
            m = int(rng.integers(1, 30))
            cost = rng.uniform(0.0, 10.0, size=(3, n, m))
            batched = _batched_accumulate(cost)
            for p in range(cost.shape[0]):
                assert bits(batched[p]) == bits(_accumulate(cost[p]))

    def test_banded_matches_reference_fill(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(1, 30))
            m = int(rng.integers(1, 30))
            band = int(rng.integers(0, 12))
            cost = rng.uniform(0.0, 10.0, size=(2, n, m))
            batched = _batched_accumulate(cost, band=band)
            for p in range(cost.shape[0]):
                assert bits(batched[p]) == bits(
                    _accumulate_banded(cost[p], band))

    def test_degenerate_shapes(self):
        # L=1 on either axis and band=0 must all agree exactly.
        rng = np.random.default_rng(2)
        for n, m, band in [(1, 1, None), (1, 7, None), (7, 1, None),
                           (1, 1, 0), (1, 7, 0), (7, 1, 0), (5, 5, 0)]:
            cost = rng.uniform(0.0, 10.0, size=(2, n, m))
            if band is None:
                expected = [_accumulate(c) for c in cost]
            else:
                expected = [_accumulate_banded(c, band) for c in cost]
            batched = _batched_accumulate(cost, band=band)
            for p, exp in enumerate(expected):
                assert bits(batched[p]) == bits(exp)

    def test_band_narrower_than_length_gap(self):
        # The clamp b = max(band, |n-m|) must match the scalar kernel.
        rng = np.random.default_rng(3)
        cost = rng.uniform(0.0, 10.0, size=(1, 20, 9))
        batched = _batched_accumulate(cost, band=2)
        assert bits(batched[0]) == bits(_accumulate_banded(cost[0], 2))


class TestBandedPairDistances:
    def test_all_pairs_matches_per_pair_loop(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0.0, 10.0, size=(11, 25))
        idx_i, idx_j = np.triu_indices(11, k=1)
        for band in (0, 1, 3, 10, 40):
            got = banded_pair_distances(x, idx_i, idx_j, band)
            expected = [dtw_distance(x[i], x[j], band=band)
                        for i, j in zip(idx_i, idx_j)]
            assert bits(got) == bits(expected)

    def test_chunking_is_invisible(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.0, 10.0, size=(9, 17))
        idx_i, idx_j = np.triu_indices(9, k=1)
        whole = banded_pair_distances(x, idx_i, idx_j, 4, pair_chunk=None)
        for chunk in (1, 2, 7, 1000):
            assert bits(banded_pair_distances(
                x, idx_i, idx_j, 4, pair_chunk=chunk)) == bits(whole)


class TestBucketedPairDistances:
    LENGTHS = [1, 5, 5, 17, 17, 17, 23, 9, 9, 1]

    def _arrays(self, seed=6):
        rng = np.random.default_rng(seed)
        return [rng.uniform(0.0, 10.0, size=n) for n in self.LENGTHS]

    @pytest.mark.parametrize("band", [None, 0, 2, 8])
    def test_mixed_lengths_match_per_pair_loop(self, band):
        arrays = self._arrays()
        idx_i, idx_j = np.triu_indices(len(arrays), k=1)
        got = bucketed_pair_distances(arrays, idx_i, idx_j, band=band)
        expected = [dtw_distance(arrays[i], arrays[j], band=band)
                    for i, j in zip(idx_i, idx_j)]
        assert bits(got) == bits(expected)

    def test_chunking_is_invisible(self):
        arrays = self._arrays(seed=7)
        idx_i, idx_j = np.triu_indices(len(arrays), k=1)
        whole = bucketed_pair_distances(arrays, idx_i, idx_j,
                                        pair_chunk=None)
        for chunk in (1, 3, 1000):
            assert bits(bucketed_pair_distances(
                arrays, idx_i, idx_j, pair_chunk=chunk)) == bits(whole)

    def test_order_is_the_request_order(self):
        # Bucketing reorders work internally; results must come back in
        # the caller's pair order regardless.
        arrays = self._arrays(seed=8)
        idx_i = np.array([9, 0, 5, 3])
        idx_j = np.array([2, 1, 0, 8])
        got = bucketed_pair_distances(arrays, idx_i, idx_j)
        expected = [dtw_distance(arrays[i], arrays[j])
                    for i, j in zip(idx_i, idx_j)]
        assert bits(got) == bits(expected)


class TestColumnKS:
    def test_matches_per_column_statistic(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            n = int(rng.integers(1, 200))
            cols = int(rng.integers(1, 12))
            x = rng.uniform(-0.2, 1.2, size=(n, cols))
            got = ks_statistic_uniform_columns(x)
            expected = [ks_statistic_uniform(x[:, c])
                        for c in range(cols)]
            assert bits(got) == bits(expected)

    def test_constant_columns(self):
        x = np.full((50, 3), 0.5)
        got = ks_statistic_uniform_columns(x)
        expected = [ks_statistic_uniform(x[:, c]) for c in range(3)]
        assert bits(got) == bits(expected)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ks_statistic_uniform_columns(np.zeros(5))
        with pytest.raises(ValueError):
            ks_statistic_uniform_columns(np.zeros((0, 3)))

    def test_sf_batch_matches_scalar(self):
        rng = np.random.default_rng(10)
        x = np.concatenate([
            rng.uniform(0.0, 3.0, size=64), [0.0, -1.0, 1e-12, 5.0]])
        got = kolmogorov_sf_batch(x)
        expected = [_kolmogorov_sf(float(v)) for v in x]
        assert bits(got) == bits(expected)


def oracle_pairs(arrays, idx_i, idx_j, band=None):
    """One scalar :func:`dtw_distance` per pair -- the oracle every
    dispatch branch must reproduce bit-for-bit."""
    return [dtw_distance(arrays[i], arrays[j], band=band)
            for i, j in zip(idx_i, idx_j)]


def oracle_ks(x):
    """One scalar :func:`ks_statistic_uniform` per column."""
    return [ks_statistic_uniform(x[:, j]) for j in range(x.shape[1])]


#: One input per dispatch branch: (label, lengths, ndim, band, pairs).
BRANCHES = [
    ("aligned-unbanded", (12, 12, 12, 12), 1, None, "all"),
    ("aligned-banded", (12, 12, 12, 12), 1, 3, "all"),
    ("mixed-unbanded", (12, 12, 16, 12, 16), 1, None, "all"),
    ("mixed-banded", (12, 12, 16, 12, 16), 1, 0, "all"),
    ("single-banded", (12, 12, 12), 1, 3, "one"),
    ("single-mixed", (12, 16), 1, 2, "one"),
    ("two-d", (10, 10, 14), 2, None, "all"),
    ("two-d-banded", (10, 10, 14), 2, 2, "all"),
]


def _branch_input(lengths, ndim, pairs, seed=11):
    rng = np.random.default_rng(seed)
    shape = (lambda n: (n, 3)) if ndim == 2 else (lambda n: (n,))
    arrays = [rng.uniform(0.0, 10.0, size=shape(n)) for n in lengths]
    if pairs == "one":
        return arrays, np.array([0]), np.array([1])
    idx_i, idx_j = np.triu_indices(len(arrays), k=1)
    return arrays, idx_i, idx_j


class TestRegistry:
    """The two dispatchers against the scalar oracles."""

    def test_backends_dispatch_identically(self):
        for label, lengths, ndim, band, pairs in BRANCHES:
            arrays, idx_i, idx_j = _branch_input(lengths, ndim, pairs)
            assert bits(pair_distances(arrays, idx_i, idx_j, band)) == \
                bits(oracle_pairs(arrays, idx_i, idx_j, band)), label

    def test_ks_columns_matches_oracle(self):
        rng = np.random.default_rng(11)
        for shape in ((40, 5), (14, 43), (2, 1)):
            x = rng.uniform(size=shape)
            assert bits(ks_columns(x)) == bits(oracle_ks(x))

    @pytest.mark.parametrize("label,lengths,ndim,band,pairs", BRANCHES,
                             ids=[b[0] for b in BRANCHES])
    def test_dispatch_branch_per_shape(self, monkeypatch, label, lengths,
                                       ndim, band, pairs):
        # Which kernel each shape reaches, observed through the module
        # globals the dispatcher calls (a wrapper installed there must
        # see every batched call).
        expected = {
            "aligned-unbanded": "batched_pair_distances",
            "aligned-banded": "banded_pair_distances",
            "mixed-unbanded": "bucketed_pair_distances",
            "mixed-banded": "bucketed_pair_distances",
        }.get(label, "dtw_distance")
        calls = []
        for name in ("batched_pair_distances", "banded_pair_distances",
                     "bucketed_pair_distances", "dtw_distance"):
            kernel = getattr(backend, name)

            def spy(*args, _name=name, _kernel=kernel, **kwargs):
                calls.append(_name)
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(backend, name, spy)
        arrays, idx_i, idx_j = _branch_input(lengths, ndim, pairs)
        pair_distances(arrays, idx_i, idx_j, band)
        assert set(calls) == {expected}


class TestEngineCrossBackend:
    """The engine's DTW and KS paths against the scalar oracles."""

    def _series(self, equal=True, seed=12):
        rng = np.random.default_rng(seed)
        lengths = [20] * 6 if equal else [14, 20, 20, 17, 14, 20]
        return [rng.uniform(0.0, 10.0, size=n) for n in lengths]

    @pytest.mark.parametrize("equal,band", [
        (True, None), (True, 0), (True, 3), (False, None), (False, 2)])
    def test_dtw_matrix_bit_identical(self, equal, band):
        from repro.engine import Engine

        series = self._series(equal=equal)
        n = len(series)
        oracle = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i != j:
                    oracle[i, j] = dtw_distance(series[i], series[j],
                                                band=band)
        with Engine() as engine:
            got = engine.dtw_matrix(series, band=band)
        assert got.tobytes() == oracle.tobytes()

    def test_dtw_pair_bit_identical(self):
        from repro.engine import Engine

        a, b = self._series(equal=False)[:2]
        with Engine() as engine:
            for band in (None, 2):
                assert bits([engine.dtw_pair(a, b, band=band)]) == bits(
                    [dtw_distance(a, b, band=band)])

    def test_cache_keys_are_backend_free(self, tmp_path):
        # Pairs the banded batch kernel cached serve the single-pair
        # path (which would run the scalar kernel) and a disk-warm
        # engine, all with the oracle's bits.
        from repro.engine import Engine

        series = self._series()
        cache_dir = str(tmp_path / "kernels")
        with Engine(cache_dir=cache_dir) as engine:
            matrix = engine.dtw_matrix(series, band=3)
            misses = engine.cache.stats().misses
            pair = engine.dtw_pair(series[0], series[1], band=3)
            assert engine.cache.stats().misses == misses
        with Engine(cache_dir=cache_dir) as engine:
            warm = engine.dtw_matrix(series, band=3)
            assert engine.cache.disk.hits > 0
        oracle = dtw_distance(series[0], series[1], band=3)
        assert bits([pair, matrix[0, 1], warm[0, 1]]) == bits([oracle] * 3)
        assert warm.tobytes() == matrix.tobytes()

    def test_spread_score_matches_oracle(self):
        from repro.core.matrix import CounterMatrix
        from repro.core.normalization import normalize_matrix
        from repro.core.spread_score import spread_score

        rng = np.random.default_rng(13)
        matrix = CounterMatrix(
            workloads=tuple(f"w{i}" for i in range(12)),
            events=("e0", "e1", "e2"),
            values=rng.uniform(1.0, 100.0, size=(12, 3)),
            suite_name="spread-oracle",
        )
        x = normalize_matrix(matrix.values)
        for axis, columns in (("workloads", x.T), ("events", x)):
            result = spread_score(matrix, axis=axis)
            oracle = oracle_ks(columns)
            assert bits(list(result.per_item.values())) == bits(oracle)
            assert bits([result.value]) == bits([np.mean(oracle)])
