import itertools

import numpy as np
import pytest

import spclust as sp
from spclust import Partition, accuracy, lloyd_kmeans, nmi, purity
from spclust.metrics import _lloyd_once, _wcss


# --- partitions -----------------------------------------------------------------


def test_partition_validation():
    p = Partition(np.array([0, 1, 1, 0]))
    assert p.k == 2 and p.n == 4
    with pytest.raises(ValueError, match="label 1"):
        Partition(np.array([0, 2, 2]))
    with pytest.raises(ValueError, match="nonneg"):
        Partition(np.array([0, -1]))
    with pytest.raises(ValueError, match="non-empty"):
        Partition(np.array([], dtype=int))
    # not truncated to [0, 1], nor a NaN cast to the most negative integer
    for values, bad in (([0.0, 1.7], "1.7"), ([0.0, np.nan], "nan")):
        with pytest.raises(ValueError, match=f"label 1 is {bad}, not an integer"):
            Partition(np.array(values))


def test_from_labels_first_seen_relabeling():
    p = Partition.from_labels([5, 5, 2, 7, 2])
    assert np.array_equal(p.labels, [0, 0, 1, 2, 1])
    # against the first-seen dictionary, on labels with gaps and negatives
    values = np.random.default_rng(0).integers(-20, 20, size=200)
    remap = {}
    want = [remap.setdefault(int(v), len(remap)) for v in values]
    assert np.array_equal(Partition.from_labels(values).labels, want)


def test_from_labels_refuses_non_integer_values():
    # truncation used to merge 1.9 and 1.1 and score [0.2, 0.7] at 0.5
    for values, index in (([0.2, 0.7], 0), ([1.9, 1.1, 0.4], 0), ([0.0, np.nan], 1), ([1.0, np.inf], 1)):
        with pytest.raises(ValueError, match=f"label {index} is .*not an integer"):
            Partition.from_labels(values)
    with pytest.raises(ValueError, match="not an integer"):
        accuracy([0.2, 0.7], [0, 1])
    with pytest.raises(ValueError, match="not an integer"):
        nmi([1.9, 1.1, 0.4], [0, 1, 2])
    with pytest.raises(ValueError, match="must be integers"):
        Partition.from_labels(["a", "b"])
    # integral floats and booleans still count as integers
    assert np.array_equal(Partition.from_labels([2.0, -1.0, 2.0]).labels, [0, 1, 0])
    assert np.array_equal(Partition.from_labels(np.array([True, False])).labels, [0, 1])


# --- frozen metric values --------------------------------------------------------


def test_accuracy_oracle():
    assert accuracy([0, 1, 1, 1], [0, 0, 1, 1]) == 0.75
    assert accuracy([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0
    assert accuracy([1, 1, 0, 0], [0, 0, 1, 1]) == 1.0  # renaming is free
    assert accuracy([0, 1, 2, 3], [0, 0, 1, 1]) == 0.5  # extra clusters padded


def test_nmi_oracle():
    assert nmi([0, 0, 0, 1], [0, 0, 1, 1]) == pytest.approx(
        0.3455920299442113, abs=1e-15
    )
    # independent contingency: each predicted cluster is half of each class
    assert nmi([0, 1, 0, 1], [0, 0, 1, 1]) == 0.0
    # identical up to renaming is exactly 1, no rounding residue
    assert nmi([1, 1, 0, 0], [0, 0, 1, 1]) == 1.0
    assert nmi([2, 2, 0, 1], [1, 1, 0, 2]) == 1.0
    # a single cluster carries no information
    assert nmi([0, 0, 0, 0], [0, 0, 1, 1]) == 0.0


def test_purity_oracle():
    assert purity([0, 1, 1, 1], [0, 0, 1, 1]) == 0.75
    assert purity([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0


def test_metrics_reject_mismatched_lengths():
    for fn in (accuracy, nmi, purity):
        with pytest.raises(ValueError, match="samples"):
            fn([0, 1], [0, 1, 1])


# --- accuracy against exhaustive matching ------------------------------------------


def exhaustive_accuracy(pred, truth):
    pred, truth = np.asarray(pred), np.asarray(truth)
    k = int(max(pred.max(), truth.max())) + 1
    best = 0
    for perm in itertools.permutations(range(k)):
        table = np.array(perm)
        best = max(best, int(np.sum(table[pred] == truth)))
    return best / pred.size


def test_accuracy_matches_exhaustive_search():
    rng = np.random.default_rng(0)
    for _ in range(100):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(k, 30))
        # force every label to appear at least once
        pred = np.concatenate([np.arange(k), rng.integers(0, k, n)])
        truth = np.concatenate([np.arange(k), rng.integers(0, k, n)])
        rng.shuffle(pred)
        assert accuracy(pred, truth) == pytest.approx(
            exhaustive_accuracy(pred, truth), abs=1e-12
        )


def test_nmi_bounds_and_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(6, 40))
        a = np.concatenate([np.arange(3), rng.integers(0, 3, n)])
        b = np.concatenate([np.arange(3), rng.integers(0, 3, n)])
        v = nmi(a, b)
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(nmi(b, a), abs=1e-12)


# --- k-means ------------------------------------------------------------------------


def blob_dataset():
    rng = np.random.default_rng(7)
    pts = np.concatenate(
        [rng.normal(0.0, 0.3, (2, 20)), rng.normal(5.0, 0.3, (2, 20))], axis=1
    )
    return sp.Dataset(pts, np.repeat([0, 1], 20))


def test_kmeans_separable_blobs():
    X = blob_dataset()
    p = lloyd_kmeans(X, 2, seed=0)
    assert accuracy(p.labels, X.labels) == 1.0


def test_kmeans_one_cluster_per_point_has_zero_wcss():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((2, 8))
    X = sp.Dataset(pts)
    p = lloyd_kmeans(X, 8, seed=0)
    assert p.k == 8
    centers = np.array([pts.T[p.labels == j].mean(axis=0) for j in range(8)])
    assert _wcss(pts.T, centers, p.labels) == pytest.approx(0.0, abs=1e-24)


def test_kmeans_single_cluster():
    X = blob_dataset()
    p = lloyd_kmeans(X, 1, seed=0)
    assert p.k == 1


def test_kmeans_k_validation():
    X = blob_dataset()
    with pytest.raises(ValueError, match="k must be"):
        lloyd_kmeans(X, 0)
    with pytest.raises(ValueError, match="k must be"):
        lloyd_kmeans(X, 41)


def test_kmeans_deterministic():
    X = blob_dataset()
    p1, p2 = lloyd_kmeans(X, 3, seed=5), lloyd_kmeans(X, 3, seed=5)
    assert np.array_equal(p1.labels, p2.labels)


def test_lloyd_wcss_never_increases():
    rng = np.random.default_rng(3)
    for trial in range(10):
        pts = rng.standard_normal((int(rng.integers(10, 40)), 3))
        _, final, history = _lloyd_once(pts, 4, np.random.default_rng(trial), 300)
        diffs = np.diff(history)
        assert np.all(diffs <= 1e-10)
        assert final <= history[0] + 1e-10


def test_restarts_only_improve():
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((30, 2))
    X = sp.Dataset(pts.T)

    def wcss_of(p):
        centers = np.array([pts[p.labels == j].mean(axis=0) for j in range(p.k)])
        return _wcss(pts, centers, p.labels)

    single = wcss_of(lloyd_kmeans(X, 3, seed=9, restarts=1))
    many = wcss_of(lloyd_kmeans(X, 3, seed=9, restarts=10))
    assert many <= single + 1e-10


def test_kmeans_two_moons_band():
    X = sp.generate_two_moons(300, noise_sigma=0.08, seed=0)
    acc = accuracy(lloyd_kmeans(X, 2, seed=0).labels, X.labels)
    # raw-coordinate k-means cannot follow the arcs; it lands mid-range
    assert 0.60 <= acc <= 0.85
