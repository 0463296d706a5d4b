"""Kernel matrix construction, the kernel choice and the 12-kernel standard bank.

Data matrices are laid out feature-major: X has shape (m, n) with one sample
per column. Kernels are n x n, exactly symmetric, and can be min-max scaled
to the [0, 1] range with :func:`normalize_kernel`.

A kernel enters the solvers once, through :func:`as_kernel` (a bank through
:func:`as_bank`): a KernelMatrix is trusted, a bare array is symmetrized once.

A kernel choice, "gaussian:t", "poly:a,b", "linear" or "bank", is read by
:meth:`KernelSpec.parse` alone, into specs, and a spec is written back by
``str(spec)``. Every normalized kernel is built by one generator, _kernels,
from one value helper per family, shared with the single-kernel functions.
It computes the pairwise distances once for its gaussians and the Gram
product once for its polynomial and linear kernels, each symmetrized once.
Every value helper keeps exact symmetry (elementwise maps of a symmetric
matrix, the polynomial powers taken on the upper triangle and mirrored), so
each kernel is written straight into a buffer and min-max scaled there,
with no second symmetrization and no scratch copy. The last kernel is
computed in its source's own buffer, every other one in a new buffer, or
in one reused buffer when ``spclust build-kernels`` streams them, writing
each kernel before the next is built. Every kernel has the bits of
normalize_kernel applied to the single-kernel function of the same spec.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np
from scipy.spatial.distance import cdist

from .numerics import (
    _BLOCK_ROWS,
    _check_integer_labels,
    _mirror_upper,
    _square,
    _symmetric_part,
    check_finite,
)

# Standard bank layout: seven gaussian scales (ascending), four polynomial
# (a, b) pairs in lexicographic order, one linear kernel. Order is fixed so
# learned weight vectors are comparable across runs.
GAUSSIAN_T_GRID = (0.01, 0.05, 0.1, 1.0, 10.0, 50.0, 100.0)
POLYNOMIAL_AB_GRID = ((0.0, 2), (0.0, 4), (1.0, 2), (1.0, 4))

# help text of the --kernel flags; KernelSpec.parse reads each form
KERNEL_CHOICES = "gaussian:t | poly:a,b | linear | bank"

# a bare kernel array whose max|K - K'| exceeds this fraction of max|K| is
# symmetrized with a warning, so rounding alone is quiet at any scale
ASYMMETRY_WARN_TOL = 1e-8


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
            self.labels = _check_integer_labels(self.labels).astype(int)
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
        for name in ("t", "a", "b"):
            value = getattr(self, name)
            # a bool is an int to Python, but never a kernel parameter
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"kernel parameter {name} must be a real number, got {value!r}")
        if self.family == "gaussian" and not 0 < self.t < np.inf:
            raise ValueError(f"gaussian scale t must be positive and finite, got {self.t}")
        if self.family == "polynomial":
            if not np.isfinite(self.a):
                raise ValueError(f"polynomial offset a must be finite, got {self.a}")
            if not (float(self.b).is_integer() and self.b >= 1):
                raise ValueError(f"polynomial exponent b must be an integer >= 1, got {self.b}")
            object.__setattr__(self, "b", int(self.b))

    @classmethod
    def parse(cls, text: str) -> tuple["KernelSpec", ...]:
        """The specs a kernel choice names, the standard bank's 12 for "bank"."""
        if text == "bank":
            return _BANK
        if text == "linear":
            return (cls("linear"),)
        if text.startswith("gaussian:"):
            try:
                t = float(text[len("gaussian:") :])
            except ValueError:
                raise ValueError(f"bad gaussian scale in {text!r}; expected gaussian:t") from None
            return (cls("gaussian", t=t),)
        if text.startswith("poly:"):
            try:
                a, b = map(float, text[len("poly:") :].split(","))  # __post_init__ judges the exponent
            except ValueError:
                raise ValueError(f"bad polynomial parameters in {text!r}; expected poly:a,b") from None
            return (cls("polynomial", a=a, b=b),)
        raise ValueError(
            f"kernel choice {text!r} not understood; use gaussian:t, poly:a,b, linear, or bank"
        )

    def __str__(self) -> str:
        """The choice text that parse reads back to this spec."""
        if self.family == "gaussian":
            return f"gaussian:{float(self.t)!r}".removesuffix(".0")
        if self.family == "polynomial":
            return f"poly:{float(self.a)!r}".removesuffix(".0") + f",{self.b}"
        return "linear"


# the standard bank's specs in bank order, the one walk over its grids
_BANK = (
    tuple(KernelSpec("gaussian", t=t) for t in GAUSSIAN_T_GRID)
    + tuple(KernelSpec("polynomial", a=a, b=b) for a, b in POLYNOMIAL_AB_GRID)
    + (KernelSpec("linear"),)
)


@dataclass
class KernelMatrix:
    """An n x n similarity matrix together with the spec that produced it.

    The values must be a finite square matrix; they are stored exactly
    symmetric.
    """

    values: np.ndarray
    spec: Optional[KernelSpec] = None

    def __post_init__(self):
        # construction guarantees exact symmetry, in a new buffer
        self.values = _symmetric_part(_square(self.values, "kernel matrix"))

    @classmethod
    def _of_symmetric(cls, values: np.ndarray, spec: Optional[KernelSpec]) -> "KernelMatrix":
        """A KernelMatrix holding values as they are: the caller has made them
        finite and exactly symmetric, so they are neither checked nor copied."""
        K = cls.__new__(cls)
        K.values, K.spec = values, spec
        return K

    @property
    def order(self) -> int:
        return self.values.shape[0]


def as_kernel(K) -> KernelMatrix:
    """K as a KernelMatrix: one returned as it is, or a bare array checked and
    symmetrized once, with a warning above ASYMMETRY_WARN_TOL relative to max|K|."""
    if isinstance(K, KernelMatrix):
        return K
    A = np.asarray(K, dtype=float)
    kernel = KernelMatrix(A)
    with np.errstate(over="ignore"):  # an asymmetry past the float64 limit reads inf
        asym, scale = (np.abs(A - A.T).max(), np.abs(A).max()) if A.size else (0.0, 0.0)
    if asym > ASYMMETRY_WARN_TOL * scale:
        warnings.warn(f"symmetrizing kernel matrix with max asymmetry {asym:.3e}", stacklevel=2)
    return kernel


def as_bank(bank) -> tuple[list[KernelMatrix], int]:
    """The bank's kernels through as_kernel, checked non-empty and of one order n."""
    if len(bank) == 0:
        raise ValueError("kernel bank is empty")
    bank = [as_kernel(K) for K in bank]
    for i, K in enumerate(bank):
        if K.order != bank[0].order:
            raise ValueError(f"kernel {i} has order {K.order}, expected {bank[0].order} to match kernel 0")
    return bank, bank[0].order


def pairwise_sq_dist(X: Dataset) -> np.ndarray:
    """Squared Euclidean distances between all sample pairs (zero diagonal)."""
    if X.n_samples < 2:
        raise ValueError("need at least two samples for pairwise distances")
    pts = X.values.T
    return _symmetric_part(cdist(pts, pts, "sqeuclidean"))


def _max_sq_dist(D: np.ndarray) -> float:
    """d_max^2, the largest squared distance; zero means the kernel is undefined,
    and infinity that a squared distance overflowed."""
    d_max_sq = D.max()
    if d_max_sq == np.inf:
        raise ValueError(
            "a squared distance between two samples overflows float64; "
            "rescale the data for the gaussian kernel"
        )
    if d_max_sq == 0.0:
        raise ValueError("all samples are identical (d_max = 0); gaussian kernel undefined")
    return d_max_sq


def _gaussian_values(D: np.ndarray, d_max_sq: float, t: float, out: np.ndarray) -> np.ndarray:
    """exp(-D / (t * d_max^2)) written to out, which may be D itself."""
    with np.errstate(over="ignore"):
        scale = t * d_max_sq
    if scale == np.inf:
        # D / d_max^2 lies in [0, 1], so dividing by it first cannot overflow
        np.divide(D, d_max_sq, out=out)
        np.divide(out, -t, out=out)
    else:
        # D / -(c) has the same bits as -D / c, without the negated copy
        np.divide(D, -scale, out=out)
    return np.exp(out, out=out)


def _polynomial_values(gram: np.ndarray, a: float, b: int, out: np.ndarray) -> np.ndarray:
    """(a + gram)^b written to out, which may be gram itself. An overflow is
    not warned about; the caller checks the values finite.

    The exactly symmetric gram is powered on its upper triangle only, in
    blocks of _BLOCK_ROWS rows, and mirrored: numpy's power is slow on
    negative bases, and each entry has the same bits as np.power(a + gram, b)
    of the whole matrix.
    """
    n = gram.shape[0]
    with np.errstate(over="ignore"):
        for lo in range(0, n, _BLOCK_ROWS):
            block = out[lo : lo + _BLOCK_ROWS, lo:]
            np.add(gram[lo : lo + _BLOCK_ROWS, lo:], a, out=block)
            np.power(block, b, out=block)
    return _mirror_upper(out)


def _gram(X: Dataset) -> np.ndarray:
    """Inner products x^T y of all sample pairs, exactly symmetric; an inner
    product that overflows is refused."""
    with np.errstate(over="ignore"):
        gram = _symmetric_part(X.values.T @ X.values)
    if not np.isfinite(gram).all():
        raise ValueError("an inner product of two samples overflows float64; rescale the data")
    return gram


def gaussian_kernel(X: Dataset, t: float) -> KernelMatrix:
    """exp(-||x - y||^2 / (t * d_max^2)) with d_max the largest pairwise distance."""
    spec = KernelSpec("gaussian", t=t)
    D = pairwise_sq_dist(X)
    return KernelMatrix._of_symmetric(_gaussian_values(D, _max_sq_dist(D), t, out=D), spec)


def polynomial_kernel(X: Dataset, a: float, b: int) -> KernelMatrix:
    """(a + x^T y)^b on all sample pairs; b must be integral (2.0 counts as 2)."""
    spec = KernelSpec("polynomial", a=a, b=b)
    gram = _gram(X)
    check_finite(_polynomial_values(gram, a, spec.b, out=gram), "polynomial kernel")
    return KernelMatrix._of_symmetric(gram, spec)


def linear_kernel(X: Dataset) -> KernelMatrix:
    """Plain inner products x^T y; identical to polynomial with a=0, b=1."""
    return KernelMatrix._of_symmetric(_gram(X), KernelSpec("linear"))


def normalize_kernel(K: KernelMatrix) -> KernelMatrix:
    """Min-max scale all entries to [0, 1]; idempotent once normalized."""
    return _normalized(K.values.copy(), K.spec)


def _normalized(vals: np.ndarray, spec: Optional[KernelSpec]) -> KernelMatrix:
    """A kernel holding vals, exactly symmetric, min-max scaled in place:
    elementwise, so the result is exactly symmetric too. A non-finite entry
    shows in the min or the max and is refused by check_finite."""
    lo, hi = vals.min(), vals.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        check_finite(vals, f"{spec.family if spec else 'kernel'} kernel")
    if hi == lo:
        raise ValueError("kernel is constant (max == min); cannot normalize")
    with np.errstate(over="ignore"):
        span = hi - lo
    if span == np.inf:
        raise ValueError(f"kernel range [{lo:.6g}, {hi:.6g}] overflows float64; cannot normalize")
    vals -= lo
    vals /= span
    return KernelMatrix._of_symmetric(vals, spec)


def build_standard_bank(X: Dataset) -> list[KernelMatrix]:
    """The fixed 12-kernel bank: 7 gaussian, 4 polynomial, 1 linear, all normalized."""
    return list(_kernels(X, _BANK))


def _kernels(X: Dataset, specs: tuple[KernelSpec, ...], stream: bool = False) -> Iterator[KernelMatrix]:
    """The normalized kernels of specs, in order, each built when asked for.

    The gaussians read one distance matrix and the other kernels one Gram
    product, each computed when first needed; the distances are dropped
    when the Gram product is computed. The last kernel is computed in its
    source's own buffer. Every other kernel gets a new buffer, or, with
    stream, one buffer made at the first such kernel and reused by the rest,
    so each must be used before the next is asked for.
    """
    D = gram = reused = None
    for i, spec in enumerate(specs, start=1):
        if spec.family == "gaussian":
            if D is None:
                D = pairwise_sq_dist(X)
                d_max_sq = _max_sq_dist(D)
        elif gram is None:
            D = None
            gram = _gram(X)
        if i == len(specs):
            out = D if spec.family == "gaussian" else gram
        elif not stream:
            out = np.empty((X.n_samples, X.n_samples))
        else:
            out = reused = np.empty((X.n_samples, X.n_samples)) if reused is None else reused
        if spec.family == "gaussian":
            _gaussian_values(D, d_max_sq, spec.t, out=out)
        elif spec.family == "polynomial":
            _polynomial_values(gram, spec.a, spec.b, out=out)
        elif out is not gram:  # the linear kernel is the Gram product itself
            np.copyto(out, gram)
        yield _normalized(out, spec)
