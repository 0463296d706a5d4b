"""Dense symmetric linear algebra used by the graph-learning solvers.

Everything here works on plain float64 numpy arrays. A kernel enters the
solvers once, through :func:`spclust.kernels.as_kernel`; every (A + A')/2 in
the package is :func:`_symmetric_part`. Past that boundary every matrix the
solvers factorize or decompose (the Laplacian, K + 2*gamma*I) is exactly
symmetric by construction, so
:func:`symmetric_eigen` and :func:`spd_factorize` read only the lower
triangle, as LAPACK does, and never re-symmetrize.

All BLAS and LAPACK work of the solvers goes through scipy: products through
:func:`product` (``dgemm``), the Gram triangle through :func:`gram_upper`
(``dsyrk``, half the flops of ``dgemm``), the inverse of a factorized matrix
through :func:`spd_inverse` (``dpotri``), weighted sums of kernels through
:func:`_weighted_sum` (``daxpy``), factorizations and eigensolves through
``scipy.linalg``, and inner products through ``ddot``. The F-step
has two private helpers: :func:`_shifted_factor` (a rank update and a
Cholesky factorization in the caller's buffer, whose success certifies that
a graph's components give its whole null space) and
:func:`_shift_invert_lanczos`, which finds the next eigenvectors by
scipy's ARPACK (``eigsh``) with two triangular ``dtrsv`` solves on that
factor per product and checks them with :func:`product` and ``ddot``; ARPACK
links the same OpenBLAS as ``scipy.linalg``. numpy's
``@``, ``np.dot`` and ``np.linalg`` are kept out of the solver modules, the
loop and :func:`spclust.spc.objective` alike. numpy and scipy each load
their own OpenBLAS, and after a numpy BLAS call numpy's worker thread keeps
spinning on a core for a while, so the next scipy LAPACK call competes with
it. On a 2-core host, solving for the 3 bottom eigenpairs of an order-1000
Laplacian took 62 ms after a pause, 60 ms right after a scipy ``dgemm``,
106 ms right after a numpy ``K @ Z`` and 139 ms right after a numpy
``np.linalg.norm`` (median of 10 each).

The integer-label check that Dataset, Partition and the label files share
lives here too: metrics imports kernels, so it cannot supply it to Dataset.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.blas import daxpy, ddot, dgemm, dsyrk, dtrsv
from scipy.linalg.lapack import dpotrf, dpotri
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

# rows of an n x n update done at a time (the triangle mirror, the polynomial
# kernels' powers, the graph step and spc.kernel_costs); at n = 1000 a block
# of the target, its scratch and a block of the operand take 1.5 MB, small
# enough for a 2 MB L2 (32 and 64 rows measured alike on a blocked sum of 12
# kernels, 16 and 128 slower)
_BLOCK_ROWS = 64

# the F-step's shift-invert Lanczos (_shift_invert_lanczos) runs ARPACK on
# _LANCZOS_NCV Lanczos vectors for one wanted eigenvector, two more for each
# further one. The solver's random initial graph (lambda_2/lambda_3 about
# 0.999; n = 400-1500, solver seeds 0-2) took 5-15 restarts and 57-137
# solves with 16 vectors (8: 15-74 restarts, 69-305 solves; 20: 51-175
# solves), the later connected Laplacians of the n = 1000 SPC and mSPC runs
# (two moons rotated by data seed 1) at most 3 restarts, and connected
# n = 400 graphs with 8 and 11 wanted vectors 2-6 restarts.
_LANCZOS_NCV = 16
# ARPACK gives up after this many restarts, and evr runs. Seed 0's initial
# graph needs 9 at n = 400 and 8 at n = 1000. The two mSPC runs (n = 600 and
# 800) that swing between 1 and 2 components for 300 iterations mostly have
# lambda_3 - lambda_2 at 1e-11 to 2e-9 of ||A||, not resolved in 300
# restarts; such a graph spends 113 solves, and its F-step takes 25-27 ms at
# n = 600 on 2 cores, evr's 11 ms included (43-47 ms with dpotrs solves).
_LANCZOS_RESTARTS = 12
# a Ritz pair passes at an ARPACK estimate of at most this times its Ritz
# value and a true residual of at most this times ||A||. On the 33 connected
# Laplacians of those n = 1000 runs FF' came within 1.5e-13 of evr's (1e-12:
# 4.7e-12), and the objective series within 2.6e-12 (SPC) and 3.7e-11 (mSPC)
# of evr-only runs (1e-12: 2.0e-12, 2.5e-10), at the same median of 17 solves.
_LANCZOS_RESIDUAL = 1e-13


class FactorizationError(ValueError):
    """Cholesky factorization hit a non-positive pivot.

    ``pivot`` is the 0-based index of the offending leading minor. In the
    solvers this usually means the kernel matrix is badly conditioned or the
    ridge term (2*gamma) is too small.
    """

    def __init__(self, pivot: int):
        self.pivot = pivot
        super().__init__(
            f"matrix is not positive definite: non-positive pivot at index {pivot}; "
            f"the kernel may be badly conditioned or gamma too small"
        )


class EigenSystem(NamedTuple):
    """Bottom eigenpairs of a symmetric matrix, eigenvalues ascending.

    ``vectors[:, j]`` is the unit eigenvector paired with ``values[j]``.
    """

    values: np.ndarray
    vectors: np.ndarray


def check_finite(A: np.ndarray, name: str = "matrix") -> None:
    """Raise ValueError naming the first non-finite entry, if any."""
    mask = ~np.isfinite(A)
    if mask.any():
        idx = tuple(int(k) for k in np.argwhere(mask)[0])
        raise ValueError(f"{name} has non-finite entry at index {idx}")


def _check_integer_labels(labels, where: str = "") -> np.ndarray:
    """labels as an array; a non-integer (1.7, nan, "a") raises ValueError naming its index."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "biuf":
        raise ValueError(f"{where}labels must be integers, got dtype {labels.dtype}")
    if labels.dtype.kind == "f":
        flat = labels.ravel()
        bad = np.flatnonzero(~(np.isfinite(flat) & (np.trunc(flat) == flat)))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"{where}label {i} is {float(flat[i])!r}, not an integer")
    return labels


def _square(A: np.ndarray, name: str = "matrix") -> np.ndarray:
    """A as a float array, checked to be a finite square matrix; errors name it."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} has shape {A.shape}, expected a square {name}")
    check_finite(A, name)
    return A


def _symmetric_part(A: np.ndarray) -> np.ndarray:
    """(A + A.T) * 0.5 in one new buffer; the same bits as 0.5 * (A + A.T)
    wherever that is finite.

    Where a sum of two finite entries overflows (both near the float64
    limit), they are halved before they are added, which is exact there, so
    finite input gives finite output and no warning.
    """
    try:
        # the overflow flag costs nothing; a second pass is made only when it is set
        with np.errstate(over="raise"):
            out = A + A.T
    except FloatingPointError:
        with np.errstate(over="ignore"):
            out = A + A.T
        over = np.isinf(out)
        out *= 0.5
        out[over] = 0.5 * A[over] + 0.5 * A.T[over]
        return out
    out *= 0.5
    return out


def symmetric_eigen(A: np.ndarray, count: Optional[int] = None) -> EigenSystem:
    """The count smallest eigenpairs of a symmetric matrix, eigenvalues ascending.

    Without count, or with count >= the order, the full spectrum is returned.
    Only the lower triangle of A is read; the entries above the diagonal are
    taken to mirror it.
    """
    if count is not None and count < 1:
        raise ValueError(f"eigenpair count must be >= 1, got {count}")
    A = _square(A)
    subset = None if count is None or count >= A.shape[0] else [0, count - 1]
    values, vectors = eigh(A, lower=True, subset_by_index=subset, driver="evr", check_finite=False)
    return EigenSystem(values, vectors)


def product(a: np.ndarray, b: np.ndarray, trans_b: bool = False) -> np.ndarray:
    """The matrix product a @ b, or a @ b.T with trans_b, through scipy's dgemm.

    Row-major operands are handed to the column-major BLAS as their
    transposes, so they are not copied; the result is row-major.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return dgemm(1.0, b.T, a.T, trans_a=trans_b).T


def gram_upper(a: np.ndarray) -> np.ndarray:
    """The upper triangle of a @ a.T, diagonal included, through scipy's dsyrk.

    The symmetric product costs half the flops of dgemm because only one
    triangle is formed; the entries below the diagonal are zero. The result
    is row-major.
    """
    a = np.asarray(a, dtype=float)
    # the lower triangle of the column-major result is the upper one of its transpose
    return dsyrk(1.0, a.T, trans=1, lower=1).T


def spd_factorize(A: np.ndarray) -> np.ndarray:
    """The Cholesky factor of a symmetric positive definite matrix, by dpotrf.

    Only the lower triangle of A is read, as in :func:`symmetric_eigen`, and
    only the lower triangle of the result is the factor; the entries above
    the diagonal are not part of it. Raises FactorizationError (carrying the
    pivot index) when A is not positive definite.
    """
    A = _square(A)
    factor, info = dpotrf(A, lower=1, clean=0, overwrite_a=0)
    if info > 0:
        raise FactorizationError(pivot=int(info) - 1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return factor


def spd_inverse(factor: np.ndarray) -> np.ndarray:
    """The inverse of a factorized matrix, from its Cholesky factor by dpotri.

    LAPACK forms the lower triangle only; it is mirrored into a full, exactly
    symmetric, row-major matrix.
    """
    inv, info = dpotri(factor, lower=1)
    if info != 0:
        raise ValueError(f"dpotri failed with info={info}")
    # the column-major lower triangle is the row-major upper one
    return _mirror_upper(inv.T)


def _mirror_upper(A: np.ndarray) -> np.ndarray:
    """A with its upper triangle copied onto the lower one, in place.

    The copy goes in blocks of _BLOCK_ROWS rows, so no n x n mask is made:
    each block takes the columns left of the diagonal as one transposed
    copy, and only its diagonal square through a mask.
    """
    n = A.shape[0]
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        A[lo:hi, :lo] = A[:lo, lo:hi].T
        square = A[lo:hi, lo:hi]
        np.copyto(square, square.T.copy(), where=np.tri(hi - lo, k=-1, dtype=bool))
    return A


def _weighted_sum(kernels: list[np.ndarray], weights: np.ndarray, shift: float = 0.0) -> np.ndarray:
    """sum_i weights[i] * kernels[i] + shift*I in one new n x n buffer, by scipy's daxpy.

    Each kernel is added in turn over its raveled values, onto zeros, and
    then shift onto the diagonal. daxpy treats every entry alike, so a sum
    of exactly symmetric kernels is exactly symmetric. It may fuse each
    multiply and add into one rounding, so the bits can differ from numpy's
    H + w * K; one kernel at weight 1 gives its own values (a -0.0 becomes
    +0.0). The sum runs on the BLAS threads and makes no temporary.
    """
    n = kernels[0].shape[0]
    out = np.zeros(n * n)
    for w, K in zip(weights, kernels):
        out = daxpy(np.ravel(K), out, a=w)
    out = out.reshape(n, n)
    out.flat[:: n + 1] += shift
    return out


def _shifted_factor(A: np.ndarray, F: np.ndarray, scale: float) -> Optional[np.ndarray]:
    """The lower Cholesky factor of the symmetric A + scale * F F', or None; A is overwritten.

    The rank update (dsyrk) and the factorization (dpotrf) both run in A's
    own buffer and read only its lower triangle. A C-contiguous A is handed
    to them as its transpose, the same symmetric matrix in Fortran order, so
    neither routine copies it. The factor returned is that Fortran-order
    view of A's buffer, as :func:`_shift_invert_lanczos` reads it; None
    means the matrix is not positive definite.
    """
    a = A.T if A.flags.c_contiguous else A
    a = dsyrk(scale, F, beta=1.0, c=a, trans=0, lower=1, overwrite_c=1)
    _, info = dpotrf(a, lower=1, clean=0, overwrite_a=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return a if info == 0 else None


def _shift_invert_lanczos(A: np.ndarray, factor: np.ndarray, count: int, norm: float) -> Optional[EigenSystem]:
    """The count smallest eigenpairs of the symmetric A off a shifted null space, or None.

    factor is the lower Cholesky factor of the F-step's M = A - tol*I +
    sigma*EE', certified by :func:`_shifted_factor`: E, the normalized
    component indicators, spans A's null space, tol is ZERO_EIG_TOL times
    the largest degree, so the shift is relative to the graph's scale, and
    sigma >= ||A||. On M^{-1} the wanted eigenvalues are the largest,
    1/(lambda - tol), and E's directions the smallest, so ARPACK's implicitly
    restarted Lanczos (scipy's eigsh) finds the wanted ones, orthogonal to
    E, with no projection. Each product with M^{-1} is two BLAS-2 dtrsv
    solves, with the factor and then its transpose: LAPACK's dpotrs does the
    same two solves through the level-3 dtrsm, which OpenBLAS runs about
    twice as slowly for one right-hand side. The start vector is fixed, so
    two calls give the same bits.

    ARPACK stops once every wanted Ritz pair's residual estimate is at most
    _LANCZOS_RESIDUAL times its Ritz value; the vectors y are then accepted
    only if every true residual ||A y - (y'Ay) y|| is at most
    _LANCZOS_RESIDUAL * norm, with norm >= ||A|| (2 * the largest degree of
    a Laplacian, by Gershgorin). Returns the Rayleigh quotients y'Ay,
    smallest first, with the unit vectors y as columns, or None when ARPACK
    fails or does not converge within _LANCZOS_RESTARTS restarts. One start
    vector cannot see a second copy of an exactly repeated eigenvalue, so
    such a wanted eigenvalue can be passed over for the next one; the
    residual test cannot tell, and the eigensolver stays the F-step's exact
    fallback.
    """
    n = A.shape[0]
    solve = LinearOperator(
        (n, n), matvec=lambda x: dtrsv(factor, dtrsv(factor, x, lower=1), lower=1, trans=1, overwrite_x=1), dtype=float
    )
    v0 = np.random.default_rng(0).standard_normal(n)
    ncv = min(n, _LANCZOS_NCV + 2 * (count - 1))
    try:
        mu, Y = eigsh(solve, count, which="LA", v0=v0, ncv=ncv, maxiter=_LANCZOS_RESTARTS, tol=_LANCZOS_RESIDUAL)
    except ArpackError:
        return None
    Y = Y[:, np.argsort(mu)[::-1]]
    AY = product(A, Y)
    values = np.empty(count)
    for i in range(count):
        values[i] = ddot(Y[:, i], AY[:, i])
        residual = AY[:, i] - values[i] * Y[:, i]
        if math.sqrt(ddot(residual, residual)) > _LANCZOS_RESIDUAL * norm:
            return None
    return EigenSystem(values, Y)
