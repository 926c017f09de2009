"""Statistics substrate for Perspector.

Every numerical kernel used by the Perspector metrics lives here and is
implemented from first principles on top of numpy:

* :mod:`repro.stats.distance` -- vector and pairwise distances.
* :mod:`repro.stats.preprocessing` -- normalization and scaling helpers.
* :mod:`repro.stats.kmeans` -- K-means clustering (k-means++ seeding,
  multiple restarts, empty-cluster repair).
* :mod:`repro.stats.silhouette` -- silhouette coefficients (Eq. 1-5 of the
  paper).
* :mod:`repro.stats.pca` -- principal component analysis via SVD with a
  retained-variance cutoff.
* :mod:`repro.stats.dtw` -- dynamic time warping with optional Sakoe-Chiba
  band, including the batched pair kernels.
* :mod:`repro.stats.kstest` -- one- and two-sample Kolmogorov-Smirnov tests,
  including the column-batched one-sample kernel.
* :mod:`repro.stats.backend` -- the shape-dispatched DTW / KS entry
  points the engine calls; every kernel they pick is bit-identical to the
  scalar oracles.
* :mod:`repro.stats.lhs` -- Latin hypercube sampling (plain and maximin).
* :mod:`repro.stats.hierarchical` -- agglomerative clustering, used by the
  prior-work baseline.
* :mod:`repro.stats.descriptive` -- summary statistics and empirical CDFs.

The implementations favour clarity over raw speed, but all hot paths are
vectorized; none of them loops over individual samples in Python except
where the algorithm is inherently sequential (e.g. the DTW recurrence,
which runs over a numpy cost matrix row by row).
"""

from repro.stats.distance import (
    euclidean,
    manhattan,
    pairwise_distances,
    cdist,
)
from repro.stats.preprocessing import (
    minmax_normalize,
    joint_minmax_normalize,
    zscore_normalize,
    clip_unit_interval,
)
from repro.stats.kmeans import KMeans, KMeansResult, kmeans
from repro.stats.silhouette import (
    silhouette_samples,
    silhouette_per_cluster,
    silhouette_score,
)
from repro.stats.pca import PCA, PCAResult, pca_fit_transform
from repro.stats.dtw import (
    dtw_distance,
    dtw_path,
    dtw_matrix,
    batched_pair_distances,
    banded_pair_distances,
    bucketed_pair_distances,
)
from repro.stats.kstest import (
    ks_statistic_uniform,
    ks_statistic_uniform_columns,
    kolmogorov_sf_batch,
    ks_test_uniform,
    ks_two_sample,
    KSResult,
)
from repro.stats.lhs import latin_hypercube, maximin_latin_hypercube
from repro.stats.hierarchical import (
    HierarchicalClustering,
    linkage_matrix,
    fcluster_by_count,
)
from repro.stats.descriptive import (
    empirical_cdf,
    percentile_resample,
    summary,
    coefficient_of_variation,
)
from repro.stats.bootstrap import (
    BootstrapResult,
    bootstrap_statistic,
    ranking_stability,
)

__all__ = [
    "euclidean",
    "manhattan",
    "pairwise_distances",
    "cdist",
    "minmax_normalize",
    "joint_minmax_normalize",
    "zscore_normalize",
    "clip_unit_interval",
    "KMeans",
    "KMeansResult",
    "kmeans",
    "silhouette_samples",
    "silhouette_per_cluster",
    "silhouette_score",
    "PCA",
    "PCAResult",
    "pca_fit_transform",
    "dtw_distance",
    "dtw_path",
    "dtw_matrix",
    "batched_pair_distances",
    "banded_pair_distances",
    "bucketed_pair_distances",
    "ks_statistic_uniform",
    "ks_statistic_uniform_columns",
    "kolmogorov_sf_batch",
    "ks_test_uniform",
    "ks_two_sample",
    "KSResult",
    "latin_hypercube",
    "maximin_latin_hypercube",
    "HierarchicalClustering",
    "linkage_matrix",
    "fcluster_by_count",
    "empirical_cdf",
    "percentile_resample",
    "summary",
    "coefficient_of_variation",
    "BootstrapResult",
    "bootstrap_statistic",
    "ranking_stability",
]
