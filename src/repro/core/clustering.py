"""k-medoids clustering under the Jaccard distance (Section 6.3).

Parameter tuning needs labeled data; the paper notes that when manual
labels are unavailable, "time series clustering algorithms such as [2]
can be used to label the data".  This module provides that substrate: a
PAM-style k-medoids over an arbitrary precomputed distance matrix
(medoids, unlike centroids, need no averaging operation — exactly right
for Jaccard distances between cell sets), plus the convenience that
clusters a series collection via its set representations.

:func:`repro.core.tuning.tune_sigma_epsilon_unlabeled` builds on this
to tune σ/ε with cluster-derived pseudo-labels.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ParameterError
from .grid import Bound, Grid
from .jaccard import jaccard_distance
from .setrep import transform_many

__all__ = ["k_medoids", "cluster_series"]


def k_medoids(
    distances: np.ndarray,
    n_clusters: int,
    seed: int = 0,
    max_iterations: int = 50,
) -> tuple[np.ndarray, np.ndarray]:
    """PAM-style k-medoids over a symmetric distance matrix.

    Initialization follows k-means++ (greedy spread of seeds by
    distance); iterations alternate assignment and exact medoid update
    per cluster until the assignment is stable.  Returns
    ``(labels, medoid_indices)``.
    """
    distances = np.asarray(distances, dtype=np.float64)
    n = distances.shape[0]
    if distances.shape != (n, n):
        raise ParameterError("distance matrix must be square")
    if not 1 <= n_clusters <= n:
        raise ParameterError(
            f"n_clusters must be in [1, {n}], got {n_clusters}"
        )
    rng = np.random.default_rng(seed)

    # k-means++-style seeding on the precomputed distances.
    medoids = [int(rng.integers(0, n))]
    while len(medoids) < n_clusters:
        nearest = distances[:, medoids].min(axis=1)
        weights = nearest**2
        total = weights.sum()
        if total <= 0:  # all points coincide with a medoid
            remaining = [i for i in range(n) if i not in medoids]
            medoids.append(int(rng.choice(remaining)))
            continue
        medoids.append(int(rng.choice(n, p=weights / total)))
    medoids_arr = np.asarray(sorted(set(medoids)), dtype=np.int64)
    while len(medoids_arr) < n_clusters:  # de-dup fallback
        extra = rng.integers(0, n)
        if extra not in medoids_arr:
            medoids_arr = np.sort(np.append(medoids_arr, extra))

    labels = np.argmin(distances[:, medoids_arr], axis=1)
    for _ in range(max_iterations):
        # exact medoid update: the member minimizing intra-cluster cost
        new_medoids = medoids_arr.copy()
        for cluster in range(n_clusters):
            members = np.flatnonzero(labels == cluster)
            if members.size == 0:
                continue
            within = distances[np.ix_(members, members)]
            new_medoids[cluster] = members[within.sum(axis=1).argmin()]
        new_labels = np.argmin(distances[:, new_medoids], axis=1)
        if np.array_equal(new_labels, labels) and np.array_equal(
            new_medoids, medoids_arr
        ):
            break
        labels, medoids_arr = new_labels, new_medoids
    return labels.astype(np.int64), medoids_arr


def cluster_series(
    series: list[np.ndarray],
    n_clusters: int,
    sigma: float = 2,
    epsilon: float = 0.3,
    seed: int = 0,
) -> np.ndarray:
    """Cluster series by the Jaccard distance of their cell sets.

    The grid used for the distance is deliberately fine (small default
    cells): it only needs to *separate* the series, not to be the
    tuned search grid — tuning happens afterwards on the
    pseudo-labels.
    """
    if not series:
        raise ParameterError("cannot cluster an empty collection")
    bound = Bound.of_database(series)
    grid = Grid.from_cell_sizes(bound, sigma, epsilon)
    sets = transform_many(series, grid)
    n = len(sets)
    distances = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = jaccard_distance(sets[i], sets[j])
            distances[i, j] = distances[j, i] = d
    labels, _ = k_medoids(distances, n_clusters, seed=seed)
    return labels
