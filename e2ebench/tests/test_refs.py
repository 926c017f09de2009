"""Hand-computed cases for each independent reference, and the program
agreeing with them on the same cases."""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                "src"))
sys.path.insert(0, os.path.dirname(HERE))

import refs  # noqa: E402
import tracing  # noqa: E402


def _run_lru(cache, sequence):
    return [cache.access(addr, write) for addr, write in sequence]


# One set, two ways, 64-byte lines: every line maps to the same set.
# A(st) B A C B(st) D -- hits: A only; C evicts B (clean), B evicts A
# (dirty: one writeback), D evicts C (clean).
LRU_SEQUENCE = [(0, True), (64, False), (0, False), (128, False),
                (64, True), (192, False)]
LRU_EXPECTED = {"loads": 4, "stores": 2, "load_misses": 3,
                "store_misses": 2, "evictions": 3, "writebacks": 1}


def test_list_lru_two_way_by_hand():
    cache = refs.ListLRUCache(size_bytes=128, line_bytes=64, ways=2)
    hits = _run_lru(cache, LRU_SEQUENCE)
    assert hits == [False, False, True, False, False, False]
    assert cache.counters() == LRU_EXPECTED


def test_program_cache_matches_hand_count():
    from repro.uarch.cache import SetAssociativeCache
    from repro.uarch.config import CacheConfig

    cache = SetAssociativeCache(CacheConfig(name="t", size_bytes=128,
                                            line_bytes=64, associativity=2))
    addrs = np.array([a for a, _w in LRU_SEQUENCE], dtype=np.int64)
    writes = np.array([w for _a, w in LRU_SEQUENCE], dtype=bool)
    cache.access_many(addrs, writes)
    s = cache.stats
    assert {"loads": s.loads, "stores": s.stores,
            "load_misses": s.load_misses, "store_misses": s.store_misses,
            "evictions": s.evictions,
            "writebacks": s.writebacks} == LRU_EXPECTED


# a = 0 1 2, b = 0 2 2: cost rows [0 2 2] [1 1 1] [2 0 0]; accumulated
# [0 2 4] [1 1 2] [3 1 1] -> 1.
def test_dtw_three_by_three_by_hand():
    a, b = [0.0, 1.0, 2.0], [0.0, 2.0, 2.0]
    assert refs.dtw_plain(a, b) == 1.0
    assert refs.dtw_pairs([a, b], [b, a]).tolist() == [1.0, 1.0]


def test_program_dtw_matches_hand_value():
    from repro.stats.dtw import dtw_distance

    assert dtw_distance([0.0, 1.0, 2.0], [0.0, 2.0, 2.0]) == 1.0


def test_dtw_pairs_equals_plain_on_random_pairs():
    rng = np.random.default_rng(0)
    a, b = rng.uniform(0, 100, (5, 7)), rng.uniform(0, 100, (5, 7))
    batch = refs.dtw_pairs(a, b)
    for p in range(5):
        assert batch[p] == pytest.approx(refs.dtw_plain(a[p], b[p]),
                                         rel=1e-15)


def test_coverage_of_unit_square_corners():
    # Centred corners: both components carry 1/3 (= 4 * 0.25 / 3); 98%
    # of the variance needs both.
    x = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)
    assert refs.coverage(x) == pytest.approx(1 / 3, rel=1e-15)


def test_coverage_keeps_only_the_dominant_component():
    x = np.array([[0, 0], [1, 0], [2, 0], [3, 0]], dtype=float)
    assert refs.coverage(x) == pytest.approx(5 / 3, rel=1e-15)


def test_spread_by_hand():
    # Row 1: ECDF steps at 0.25 and 0.75 -> D = 0.25. Row 2: a single
    # value 0.5 twice -> D = 0.5.
    x = np.array([[0.25, 0.75], [0.5, 0.5]])
    assert refs.spread(x) == pytest.approx(0.375, rel=1e-15)


def test_silhouette_two_pairs_by_hand():
    from repro.stats.silhouette import silhouette_score

    x = np.array([[0.0], [1.0], [10.0], [11.0]])
    labels = np.array([0, 0, 1, 1])
    expected = (9.5 / 10.5 + 8.5 / 9.5) / 2
    assert refs.silhouette(x, labels) == pytest.approx(expected, rel=1e-15)
    assert silhouette_score(x, labels) == pytest.approx(expected, rel=1e-12)


def test_silhouette_singleton_scores_zero():
    # The lone point at 10 contributes 0; the pair's points each have
    # a = 1 and b = 10 or 9.
    x = np.array([[0.0], [1.0], [10.0]])
    labels = np.array([0, 0, 1])
    expected = ((9 / 10 + 8 / 9) / 2 + 0.0) / 2
    assert refs.silhouette(x, labels) == pytest.approx(expected, rel=1e-15)


def test_minmax_constant_column_is_half():
    x = np.array([[1.0, 5.0], [3.0, 5.0]])
    assert refs.minmax(x).tolist() == [[0.0, 0.5], [1.0, 0.5]]


def test_self_time_subtracts_children():
    # parent 0..10 with children 1..3 and 5..9: self 4; children 2 + 4.
    spans = [(1, 0, "p", 0, 10), (2, 1, "c", 1, 3), (3, 1, "c", 5, 9)]
    assert dict(tracing.self_times(spans)) == {"p": 4, "c": 6}


def test_inclusive_counts_nested_same_name_once():
    spans = [(1, 0, "d", 0, 10), (2, 1, "d", 2, 8), (3, 0, "d", 20, 25)]
    totals, counts = tracing._inclusive(spans)
    assert totals["d"] == 15 and counts["d"] == 2
