"""Shape-dispatched kernels for the DTW / KS hot paths.

The scoring pipeline funnels its two numerical hot loops -- DTW pair
distances (TrendScore, Section III-B) and per-column one-sample KS
statistics (SpreadScore, Section III-D) -- through the two functions
here. Each picks the fastest kernel for its input *shape*; every kernel
it may pick is bit-identical to the scalar oracles
(:func:`repro.stats.dtw.dtw_distance`,
:func:`repro.stats.kstest.ks_statistic_uniform`; the IEEE
``min``-exactness argument is documented in :mod:`repro.stats.dtw`), so
the choice is never visible in an output bit and cache keys carry no
trace of it.

The batched DTW kernels are called through this module's globals, so a
wrapper installed on ``repro.stats.backend.<kernel>`` sees every call.
Both functions are module-top-level and effect-free, which the deep
lint's backend-purity rule enforces.
"""

from __future__ import annotations

import numpy as np

from repro.stats.dtw import (
    banded_pair_distances,
    batched_pair_distances,
    bucketed_pair_distances,
    dtw_distance,
)
from repro.stats.kstest import ks_statistic_uniform_columns


def pair_distances(arrays, idx_i, idx_j, band=None):
    """DTW distances of the pairs ``(arrays[i], arrays[j])``.

    ``arrays`` are validated series; returns a ``(pairs,)`` float array.
    Dispatch, all bit-identical to one :func:`dtw_distance` per pair:

    * equal-length unbanded 1-D series -> :func:`batched_pair_distances`;
    * any 2-D (multivariate) series, or a single pair off that path ->
      the scalar :func:`dtw_distance` (the batched kernels are
      univariate, and one banded pair is ~3x faster scalar than as a
      batch of one);
    * equal-length banded pairs -> :func:`banded_pair_distances`;
    * any other 1-D mix -> :func:`bucketed_pair_distances`.
    """
    one_d = all(a.ndim == 1 for a in arrays)
    lengths = {a.shape[0] for a in arrays}
    if arrays and one_d and band is None and len(lengths) == 1:
        return batched_pair_distances(np.vstack(arrays), idx_i, idx_j)
    if not one_d or len(idx_i) < 2:
        return np.array(
            [
                dtw_distance(arrays[i], arrays[j], band=band)
                for i, j in zip(idx_i, idx_j)
            ]
        )
    if band is not None and len(lengths) == 1:
        return banded_pair_distances(np.vstack(arrays), idx_i, idx_j, band)
    return bucketed_pair_distances(arrays, idx_i, idx_j, band=band)


def ks_columns(x):
    """One-sample KS D-values against U(0, 1), one per column of the 2-D
    ``(samples, columns)`` matrix ``x`` -- always the column-batched
    kernel, bit-identical to a per-column
    :func:`~repro.stats.kstest.ks_statistic_uniform` loop."""
    return ks_statistic_uniform_columns(x)
