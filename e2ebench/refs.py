"""Independent references the benchmark checks the program against.

Each one is written apart from the program, in the plainest form that
is still fast enough to run on every benchmark run:

* :class:`ListLRUCache` -- a set-associative LRU cache whose sets are
  Python lists (most recent way last);
* :func:`dtw_plain` / :func:`dtw_pairs` -- the textbook
  dynamic-programming DTW, cell by cell (``dtw_pairs`` runs the same
  recurrence for many pairs at once, one numpy element per pair);
* :func:`coverage` -- numpy SVD of the centred matrix under the
  98%-variance rule;
* :func:`spread` -- ``scipy.stats.kstest`` against U(0, 1) per
  workload row;
* :func:`silhouette` -- the paper's cluster-weighted silhouette
  (Eq. 1-5) from explicit Euclidean distances.

They share no code with the program; the only program function used
on the way is the Fig. 1 series normalization (``normalize_series_set``)
that the TrendScore definition starts from.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

#: Relative tolerance for comparing a program score with a reference
#: that sums or factorizes in another order.
REL_TOL = 1e-9


def close(a, b, rel=REL_TOL):
    """``a`` and ``b`` agree to ``rel`` (relative to the larger)."""
    a, b = float(a), float(b)
    if np.isnan(a) or np.isnan(b):
        return np.isnan(a) and np.isnan(b)
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# -- cache --------------------------------------------------------------------


class ListLRUCache:
    """Write-allocate, write-back, LRU set-associative cache."""

    def __init__(self, size_bytes, line_bytes, ways):
        self.line_bytes = line_bytes
        self.ways = ways
        self.n_sets = size_bytes // (line_bytes * ways)
        self.sets = {}
        self.loads = self.stores = 0
        self.load_misses = self.store_misses = 0
        self.evictions = self.writebacks = 0

    def access(self, addr, is_write):
        line = addr // self.line_bytes
        index, tag = line % self.n_sets, line // self.n_sets
        ways = self.sets.setdefault(index, [])
        if is_write:
            self.stores += 1
        else:
            self.loads += 1
        for pos, entry in enumerate(ways):
            if entry[0] == tag:
                ways.pop(pos)
                ways.append([tag, entry[1] or is_write])
                return True
        if is_write:
            self.store_misses += 1
        else:
            self.load_misses += 1
        if len(ways) == self.ways:
            victim = ways.pop(0)
            self.evictions += 1
            if victim[1]:
                self.writebacks += 1
        ways.append([tag, is_write])
        return False

    def counters(self):
        return {"loads": self.loads, "stores": self.stores,
                "load_misses": self.load_misses,
                "store_misses": self.store_misses,
                "evictions": self.evictions, "writebacks": self.writebacks}


# -- DTW ------------------------------------------------------------------------


def dtw_plain(a, b):
    """Unconstrained DTW with absolute-difference cost, one cell at a
    time."""
    n, m = len(a), len(b)
    inf = float("inf")
    acc = [[inf] * (m + 1) for _ in range(n + 1)]
    acc[0][0] = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = abs(float(a[i - 1]) - float(b[j - 1]))
            acc[i][j] = cost + min(acc[i - 1][j], acc[i][j - 1],
                                   acc[i - 1][j - 1])
    return acc[n][m]


def dtw_pairs(a_rows, b_rows):
    """:func:`dtw_plain` for many equal-length pairs at once: row ``p``
    of ``a_rows`` against row ``p`` of ``b_rows``."""
    a_rows = np.asarray(a_rows, dtype=float)
    b_rows = np.asarray(b_rows, dtype=float)
    n, m = a_rows.shape[1], b_rows.shape[1]
    prev = None
    for i in range(n):
        a = a_rows[:, i]
        row = [None] * m
        for j in range(m):
            cost = np.abs(a - b_rows[:, j])
            if i == 0 and j == 0:
                row[j] = cost
            elif i == 0:
                row[j] = cost + row[j - 1]
            elif j == 0:
                row[j] = cost + prev[j]
            else:
                row[j] = cost + np.minimum(np.minimum(prev[j], row[j - 1]),
                                           prev[j - 1])
        prev = row
    return prev[m - 1]


def trend_per_event(series_by_event, n_points=100):
    """``{event: TScore_z}`` (Eq. 7): mean DTW distance over every
    ordered pair of the event's normalized series, all events' pairs in
    one :func:`dtw_pairs` sweep."""
    from repro.core.normalization import normalize_series_set

    events = list(series_by_event)
    a_rows, b_rows, owner = [], [], []
    sizes = {}
    for event in events:
        norm = normalize_series_set(series_by_event[event],
                                    n_points=n_points)
        n = len(norm)
        sizes[event] = n
        for i in range(n):
            for j in range(i + 1, n):
                a_rows.append(norm[i])
                b_rows.append(norm[j])
                owner.append(event)
    distances = dtw_pairs(a_rows, b_rows) if a_rows else np.zeros(0)
    out = {}
    for event in events:
        n = sizes[event]
        mask = np.array([o == event for o in owner], dtype=bool)
        out[event] = (2.0 * float(distances[mask].sum()) / (n * (n - 1))
                      if n >= 2 else 0.0)
    return out


# -- matrix scores ----------------------------------------------------------------


def minmax(values, lo=None, hi=None):
    """Per-column min-max scaling to [0, 1]; a constant column maps to
    0.5."""
    values = np.asarray(values, dtype=float)
    lo = values.min(axis=0) if lo is None else np.asarray(lo, dtype=float)
    hi = values.max(axis=0) if hi is None else np.asarray(hi, dtype=float)
    span = hi - lo
    out = np.empty_like(values)
    for col in range(values.shape[1]):
        if span[col] == 0:
            out[:, col] = 0.5
        else:
            out[:, col] = (values[:, col] - lo[col]) / span[col]
    return out


def joint_minmax(value_list):
    """Eq. 9-10: one set of column bounds over every suite."""
    stacked = np.vstack(value_list)
    lo, hi = stacked.min(axis=0), stacked.max(axis=0)
    return [minmax(v, lo, hi) for v in value_list]


def coverage(x, variance=0.98):
    """Mean variance of the leading components that together explain
    ``variance`` of the total (Eq. 11-13)."""
    x = np.asarray(x, dtype=float)
    centred = x - x.mean(axis=0)
    s = np.linalg.svd(centred, compute_uv=False)
    var = s * s / (x.shape[0] - 1)
    if var.sum() <= 0:
        return float(var[:1].mean())
    explained = np.cumsum(var) / var.sum()
    keep = 1
    while keep < len(var) and explained[keep - 1] < variance - 1e-12:
        keep += 1
    return float(var[:keep].mean())


def spread(x):
    """Eq. 14: mean one-sample KS distance of each row from U(0, 1)."""
    x = np.asarray(x, dtype=float)
    return float(np.mean([stats.kstest(row, "uniform").statistic
                          for row in x]))


def silhouette(x, labels):
    """Eq. 5: the mean over clusters of each cluster's mean silhouette;
    a point alone in its cluster scores 0."""
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    clusters = sorted(set(labels.tolist()))
    if len(clusters) < 2:
        return 0.0
    d = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
    per_point = np.zeros(len(x))
    for p in range(len(x)):
        own = labels == labels[p]
        if own.sum() == 1:
            continue
        a = d[p, own].sum() / (own.sum() - 1)
        b = min(d[p, labels == c].mean() for c in clusters
                if c != labels[p])
        if max(a, b) > 0:
            per_point[p] = (b - a) / max(a, b)
    return float(np.mean([per_point[labels == c].mean() for c in clusters]))
