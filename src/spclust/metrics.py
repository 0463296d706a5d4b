"""Clustering quality metrics and a Lloyd k-means baseline.

Accuracy is the best-map variant: the fraction of agreeing labels maximized
over one-to-one correspondences between predicted and true clusters, found
by optimal assignment on the contingency table. NMI normalizes mutual
information by the geometric mean of the two entropies (natural logs).
Purity charges each predicted cluster its dominant true class.

All three are invariant under relabeling of either partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .kernels import Dataset
from .numerics import _check_integer_labels


@dataclass
class Partition:
    """Cluster labels 0..k-1 over n samples, every label value used (integral floats count)."""

    labels: np.ndarray

    def __post_init__(self):
        self.labels = _check_integer_labels(self.labels).astype(int)
        if self.labels.ndim != 1 or self.labels.size == 0:
            raise ValueError("labels must be a non-empty 1-D integer array")
        if self.labels.min() < 0:
            raise ValueError(f"labels must be nonnegative, got min {self.labels.min()}")
        k = int(self.labels.max()) + 1
        present = np.bincount(self.labels, minlength=k) > 0
        if not present.all():
            missing = int(np.flatnonzero(~present)[0])
            raise ValueError(f"label {missing} is unused; labels must cover 0..k-1")

    @classmethod
    def from_labels(cls, values) -> "Partition":
        """Relabel integer labels (integral floats count) to 0..k-1 in first-seen order."""
        values = _check_integer_labels(values).astype(int)
        _, first, inverse = np.unique(values.ravel(), return_index=True, return_inverse=True)
        rank = np.empty(first.size, dtype=int)
        rank[np.argsort(first)] = np.arange(first.size)
        return cls(rank[inverse].reshape(values.shape))

    @property
    def k(self) -> int:
        return int(self.labels.max()) + 1

    @property
    def n(self) -> int:
        return self.labels.size


def _as_partition(p) -> Partition:
    return p if isinstance(p, Partition) else Partition.from_labels(p)


def _contingency(truth: Partition, pred: Partition) -> np.ndarray:
    """Counts C[i, j] = |truth class i intersect predicted cluster j|."""
    if truth.n != pred.n:
        raise ValueError(f"partitions cover {truth.n} and {pred.n} samples")
    C = np.zeros((truth.k, pred.k), dtype=int)
    np.add.at(C, (truth.labels, pred.labels), 1)
    return C


def accuracy(pred, truth) -> float:
    """Best-map accuracy: matched fraction under the optimal label bijection."""
    pred, truth = _as_partition(pred), _as_partition(truth)
    C = _contingency(truth, pred)
    # pad to square so the assignment is a true bijection on max(k_t, k_p) labels
    k = max(C.shape)
    padded = np.zeros((k, k), dtype=int)
    padded[: C.shape[0], : C.shape[1]] = C
    rows, cols = linear_sum_assignment(padded, maximize=True)
    return float(padded[rows, cols].sum()) / truth.n


def nmi(pred, truth) -> float:
    """Mutual information over the geometric mean of entropies, natural logs.

    Returns 0.0 when either partition has a single cluster (zero entropy)
    and exactly 1.0 when the partitions agree up to relabeling.
    """
    pred, truth = _as_partition(pred), _as_partition(truth)
    C = _contingency(truth, pred)
    n = truth.n
    rows = C.sum(axis=1)
    cols = C.sum(axis=0)
    if truth.k == 1 or pred.k == 1:
        return 0.0
    if truth.k == pred.k and np.count_nonzero(C) == truth.k:
        # one block per row and column: identical up to relabeling
        return 1.0
    info = 0.0
    for i, j in zip(*np.nonzero(C)):
        c = float(C[i, j])
        # ratio formed before the log so independent tables give log(1) = 0 exactly
        info += (c / n) * np.log(n * c / (float(rows[i]) * float(cols[j])))
    h_truth = float(np.sum((rows / n) * np.log(n / rows)))
    h_pred = float(np.sum((cols / n) * np.log(n / cols)))
    value = info / np.sqrt(h_truth * h_pred)
    return float(min(max(value, 0.0), 1.0))


def purity(pred, truth) -> float:
    """Fraction of samples in each predicted cluster's dominant true class."""
    pred, truth = _as_partition(pred), _as_partition(truth)
    C = _contingency(truth, pred)
    return float(C.max(axis=0).sum()) / truth.n


def _wcss(points: np.ndarray, centers: np.ndarray, assign: np.ndarray) -> float:
    return float(np.sum((points - centers[assign]) ** 2))


def _seed_centers(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centers by squared-distance sampling."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            # all remaining points coincide with chosen centers
            idx = rng.integers(n)
        centers[j] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def _lloyd_once(
    points: np.ndarray, k: int, rng: np.random.Generator, max_iters: int
) -> tuple[np.ndarray, float, list[float]]:
    """One seeded Lloyd run; returns labels, final WCSS, per-iteration WCSS."""
    centers = _seed_centers(points, k, rng)
    assign = np.zeros(points.shape[0], dtype=int)
    history: list[float] = []
    for _ in range(max_iters):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = d2.argmin(axis=1)
        history.append(_wcss(points, centers, new_assign))
        for j in range(k):
            members = points[new_assign == j]
            if members.shape[0]:
                centers[j] = members.mean(axis=0)
            # empty cluster keeps its old center, preserving WCSS descent
        if np.array_equal(new_assign, assign) and len(history) > 1:
            assign = new_assign
            break
        assign = new_assign
    return assign, _wcss(points, centers, assign), history


def lloyd_kmeans(X: Dataset, k: int, seed: int = 0, restarts: int = 10) -> Partition:
    """Best-of-restarts Lloyd k-means on the dataset's columns.

    Restarts share one seeded generator and run in order; the lowest final
    within-cluster sum of squares wins, earliest restart breaking ties.
    """
    points = X.values.T
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if restarts < 1:
        raise ValueError("need at least one restart")
    rng = np.random.default_rng(seed)
    best_assign, best_wcss = None, np.inf
    for _ in range(restarts):
        assign, wcss, _ = _lloyd_once(points, k, rng, max_iters=300)
        if wcss < best_wcss:
            best_assign, best_wcss = assign, wcss
    return Partition.from_labels(best_assign)
