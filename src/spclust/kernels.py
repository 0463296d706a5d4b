"""Kernel matrix construction and the 12-kernel standard bank.

Data matrices are laid out feature-major: X has shape (m, n) with one sample
per column. Kernels are n x n, exactly symmetric, and can be min-max scaled
to the [0, 1] range with :func:`normalize_kernel`.

The single-kernel functions and :func:`build_standard_bank` share one value
helper per family. The bank computes the pairwise distances once for its
seven gaussians and the Gram product once for its polynomial and linear
kernels. Each kernel's values are written into a reused scratch buffer,
symmetrized into the kernel's own buffer and min-max scaled there, so no
raw kernel outlives its normalized copy. Every bank entry has the bits of
normalize_kernel applied to the single-kernel function of the same spec.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        v = _square(self.values, "kernel matrix")
        # construction guarantees exact symmetry; same bits as 0.5 * (v + v.T)
        out = v + v.T
        out *= 0.5
        self.values = out

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
    S = D + D.T
    S *= 0.5
    return S


def _max_sq_dist(D: np.ndarray) -> float:
    """d_max^2, the largest squared distance; zero means the kernel is undefined."""
    d_max_sq = D.max()
    if d_max_sq == 0.0:
        raise ValueError("all samples are identical (d_max = 0); gaussian kernel undefined")
    return d_max_sq


def _gaussian_values(D: np.ndarray, d_max_sq: float, t: float, out: np.ndarray) -> np.ndarray:
    """exp(-D / (t * d_max^2)) written to out, which may be D itself."""
    # D / -(c) has the same bits as -D / c, without the negated copy
    np.divide(D, -(t * d_max_sq), out=out)
    return np.exp(out, out=out)


def _polynomial_values(gram: np.ndarray, a: float, b: int, out: np.ndarray) -> np.ndarray:
    """(a + gram)^b written to out, checked finite."""
    np.add(gram, a, out=out)
    np.power(out, b, out=out)
    check_finite(out, "polynomial kernel")
    return out


def _gram(X: Dataset) -> np.ndarray:
    """Inner products x^T y of all sample pairs."""
    return X.values.T @ X.values


def gaussian_kernel(X: Dataset, t: float) -> KernelMatrix:
    """exp(-||x - y||^2 / (t * d_max^2)) with d_max the largest pairwise distance."""
    if not t > 0:
        raise ValueError(f"gaussian scale t must be positive, got {t}")
    D = pairwise_sq_dist(X)
    K = _gaussian_values(D, _max_sq_dist(D), t, out=D)
    return KernelMatrix(K, spec=KernelSpec("gaussian", t=t))


def polynomial_kernel(X: Dataset, a: float, b: int) -> KernelMatrix:
    """(a + x^T y)^b on all sample pairs."""
    spec = KernelSpec("polynomial", a=a, b=int(b))
    gram = _gram(X)
    return KernelMatrix(_polynomial_values(gram, a, int(b), out=gram), spec=spec)


def linear_kernel(X: Dataset) -> KernelMatrix:
    """Plain inner products x^T y; identical to polynomial with a=0, b=1."""
    return KernelMatrix(_gram(X), spec=KernelSpec("linear"))


def normalize_kernel(K: KernelMatrix) -> KernelMatrix:
    """Min-max scale all entries to [0, 1]; idempotent once normalized."""
    return _normalized(K.values, K.spec)


def _normalized(raw: np.ndarray, spec: Optional[KernelSpec]) -> KernelMatrix:
    """raw symmetrized into a fresh buffer, then min-max scaled in that buffer."""
    K = KernelMatrix(raw, spec=spec)
    vals = K.values
    lo, hi = vals.min(), vals.max()
    if hi == lo:
        raise ValueError("kernel is constant (max == min); cannot normalize")
    vals -= lo
    vals /= hi - lo
    K.normalized = True
    return K


def build_standard_bank(X: Dataset) -> list[KernelMatrix]:
    """The fixed 12-kernel bank: 7 gaussian, 4 polynomial, 1 linear, all normalized."""
    D = pairwise_sq_dist(X)
    d_max_sq = _max_sq_dist(D)
    scratch = np.empty_like(D)
    bank = [
        _normalized(_gaussian_values(D, d_max_sq, t, out=scratch), KernelSpec("gaussian", t=t))
        for t in GAUSSIAN_T_GRID
    ]
    del D
    gram = _gram(X)
    bank += [
        _normalized(_polynomial_values(gram, a, b, out=scratch), KernelSpec("polynomial", a=a, b=b))
        for a, b in POLYNOMIAL_AB_GRID
    ]
    del scratch
    bank.append(_normalized(gram, KernelSpec("linear")))
    return bank
