"""Kernel matrix construction and the 12-kernel standard bank.

Data matrices are laid out feature-major: X has shape (m, n) with one sample
per column. Kernels are n x n, exactly symmetric, and can be min-max scaled
to the [0, 1] range with :func:`normalize_kernel`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.spatial.distance import cdist

from .numerics import _square, check_finite

# Standard bank layout: seven gaussian scales (ascending), four polynomial
# (a, b) pairs in lexicographic order, one linear kernel. Order is fixed so
# learned weight vectors are comparable across runs.
GAUSSIAN_T_GRID = (0.01, 0.05, 0.1, 1.0, 10.0, 50.0, 100.0)
POLYNOMIAL_AB_GRID = ((0.0, 2), (0.0, 4), (1.0, 2), (1.0, 4))


@dataclass
class Dataset:
    """A feature-major data matrix with optional ground-truth labels."""

    values: np.ndarray  # (m, n), column = sample
    labels: Optional[np.ndarray] = None  # (n,) ints, or None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError(f"data matrix must be 2-D, got shape {self.values.shape}")
        check_finite(self.values, "data matrix")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=int)
            if self.labels.shape != (self.n_samples,):
                raise ValueError(
                    f"expected {self.n_samples} labels, got {self.labels.shape}"
                )

    @property
    def n_features(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class KernelSpec:
    """Parameters of one kernel function from the standard families."""

    family: str  # "gaussian" | "polynomial" | "linear"
    t: float = 1.0  # gaussian scale multiplier
    a: float = 0.0  # polynomial offset
    b: int = 1  # polynomial exponent

    def __post_init__(self):
        if self.family not in ("gaussian", "polynomial", "linear"):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family == "gaussian" and not self.t > 0:
            raise ValueError(f"gaussian scale t must be positive, got {self.t}")
        if self.family == "polynomial" and self.b < 1:
            raise ValueError(f"polynomial exponent b must be >= 1, got {self.b}")


@dataclass
class KernelMatrix:
    """An n x n similarity matrix together with the spec that produced it.

    The values must be a finite square matrix; they are stored exactly
    symmetric.
    """

    values: np.ndarray
    spec: Optional[KernelSpec] = None
    normalized: bool = False

    def __post_init__(self):
        self.values = _square(self.values, "kernel matrix")
        # construction guarantees exact symmetry
        self.values = 0.5 * (self.values + self.values.T)

    @property
    def order(self) -> int:
        return self.values.shape[0]


def kernel_values(K) -> np.ndarray:
    """Accept a KernelMatrix or a bare array and return the array."""
    return np.asarray(getattr(K, "values", K), dtype=float)


def pairwise_sq_dist(X: Dataset) -> np.ndarray:
    """Squared Euclidean distances between all sample pairs (zero diagonal)."""
    if X.n_samples < 2:
        raise ValueError("need at least two samples for pairwise distances")
    pts = X.values.T
    D = cdist(pts, pts, "sqeuclidean")
    return 0.5 * (D + D.T)


def gaussian_kernel(X: Dataset, t: float) -> KernelMatrix:
    """exp(-||x - y||^2 / (t * d_max^2)) with d_max the largest pairwise distance."""
    if not t > 0:
        raise ValueError(f"gaussian scale t must be positive, got {t}")
    D = pairwise_sq_dist(X)
    d_max_sq = D.max()
    if d_max_sq == 0.0:
        raise ValueError("all samples are identical (d_max = 0); gaussian kernel undefined")
    K = np.exp(-D / (t * d_max_sq))
    return KernelMatrix(K, spec=KernelSpec("gaussian", t=t))


def polynomial_kernel(X: Dataset, a: float, b: int) -> KernelMatrix:
    """(a + x^T y)^b on all sample pairs."""
    spec = KernelSpec("polynomial", a=a, b=int(b))
    gram = X.values.T @ X.values
    K = (a + gram) ** int(b)
    check_finite(K, "polynomial kernel")
    return KernelMatrix(K, spec=spec)


def linear_kernel(X: Dataset) -> KernelMatrix:
    """Plain inner products x^T y; identical to polynomial with a=0, b=1."""
    return KernelMatrix(X.values.T @ X.values, spec=KernelSpec("linear"))


def normalize_kernel(K: KernelMatrix) -> KernelMatrix:
    """Min-max scale all entries to [0, 1]; idempotent once normalized."""
    vals = K.values
    lo, hi = vals.min(), vals.max()
    if hi == lo:
        raise ValueError("kernel is constant (max == min); cannot normalize")
    out = replace(K, values=(vals - lo) / (hi - lo), normalized=True)
    return out


def build_standard_bank(X: Dataset) -> list[KernelMatrix]:
    """The fixed 12-kernel bank: 7 gaussian, 4 polynomial, 1 linear, all normalized."""
    bank = [gaussian_kernel(X, t) for t in GAUSSIAN_T_GRID]
    bank += [polynomial_kernel(X, a, b) for a, b in POLYNOMIAL_AB_GRID]
    bank.append(linear_kernel(X))
    return [normalize_kernel(K) for K in bank]
