"""Similarity-preserving graph learning with a connected-component target.

The solver learns a nonnegative affinity matrix Z that stays close to a given
kernel matrix K while a weighted spectral penalty drives the graph Laplacian
of Z toward rank n - c, so the learned graph splits into exactly c connected
components. Cluster labels are read straight off the components; no k-means
step on the embedding is needed.

Each outer iteration alternates:

1. embedding step (:func:`update_embedding`): F <- an orthonormal basis of
   the bottom c-dimensional eigenspace of the Laplacian of Z, with the
   number of near-zero eigenvalues that the beta anneal reads. When the
   graph has exactly c connected components, F is read off the graph: the
   normalized component indicators span the Laplacian's null space (the
   multiplicity fact CAN relies on), and one Cholesky factorization
   confirms that the (c+1)-th eigenvalue is not near zero. Otherwise one
   eigensolve gives the c bottom eigenvectors and the c+1 smallest
   eigenvalues;
2. graph step (:func:`update_graph`): every column of Z gets the
   closed-form minimizer of the ridge-regularized quadratic,
   A^{-1} (alpha*K - (beta/2)*P) with A = K + 2*gamma*I and P the squared
   embedding distances. P is s 1' + 1 s' - 2 F F' with s = rowsum(F * F),
   so the step is alpha*A^{-1}K plus a rank-(c+2) update that needs only an
   n x (c+2) solve per iteration. A^{-1}K = I - 2*gamma*A^{-1} is formed
   once per factorization of A, from the inverse that the Cholesky factor
   gives (LAPACK dpotri);
3. projection: Z <- max(Z, 0).

The objective diagnostics come from exact identities rather than from
:func:`objective`: the spectral term is 0.5*<Z, P>, the normal equations
give K Z = alpha*K - (beta/2)*P - 2*gamma*Z for the unprojected graph step,
and the rest of the objective at a projected graph is half the fit cost
tr(K) + <K, ZZ' - 2*alpha*Z> plus the ridge term. :func:`kernel_costs`
computes that cost for every kernel of a bank from one triangle of ZZ', the
one n x n product of an iteration. Every identity needs K exactly
symmetric: a kernel enters once, through :func:`spclust.kernels.as_kernel`,
which trusts a KernelMatrix without a copy and symmetrizes a bare array, and
every later matrix (each combined kernel, A, the Laplacian, ZZ') is exactly
symmetric by construction, so none is symmetrized again.

The loop lives here once, in :func:`alternate`. It calls each step above
through its module-level name and runs no other F- or Z-step. It runs on a
weighted bank of kernels; SPC is one kernel with weight 1. The
multiple-kernel solver in :mod:`spclust.mkl` supplies a kernel step that
turns the costs of each projected graph into new weights and a newly
combined kernel.

Memory: the n x n arrays that live through an iteration are K, the Cholesky
factor of A, A^{-1}K and Z. Besides them the loop holds one transient of its
own (the Laplacian, the unprojected graph or the ZZ' triangle) and at most
one more array: the eigensolver's copy of the Laplacian (or the F-step's
shifted copy that the Cholesky check factorizes in place), or the projected
graph that becomes the next Z. So the traced peak is about 5 n^2 floats
beyond the kernel (6 beyond an mSPC bank, whose combined kernel is one
more). Scaled sums into an n x n array run in 64-row blocks
(:func:`_add_scaled`), the old Z takes the step Z_new - Z, and each buffer
is released as soon as it is dead: the factor and A^{-1}K before the kernel
step and before the labels are read.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np
from scipy.linalg.blas import ddot

from .kernels import KernelMatrix, as_bank, as_kernel
from .numerics import (
    SpdFactorization,
    _is_positive_definite,
    _symmetric_part,
    gram_upper,
    product,
    spd_factorize,
    spd_inverse,
    spd_solve,
    symmetric_eigen,
)

# eigenvalues below this count as zero when checking component structure
ZERO_EIG_TOL = 1e-8

# adaptive beta stops after this many doublings/halvings
MAX_BETA_ADJUSTMENTS = 30

# rows of an n x n update done at a time (kernel_costs, the graph step and
# mkl.combine_kernels); at n = 1000 a block of the target, its scratch and a
# block of the operand take 1.5 MB, small enough for a 2 MB L2 (32 and 64
# rows measured alike in combine_kernels, 16 and 128 slower)
_BLOCK_ROWS = 64

# values each field annotation accepts; a bool never counts as a number
_FIELD_KINDS = {"float": numbers.Real, "int": numbers.Integral, "bool": bool, "str": str}


def _check_field_types(config) -> None:
    """Check every field of a config dataclass against its annotation.

    float fields take any finite real number and are stored as float, int
    fields take any integer, bool and str fields only bool and str. An
    integer too large for a float is refused like an infinite one.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        if not isinstance(value, _FIELD_KINDS[f.type]) or isinstance(value, bool) != (f.type == "bool"):
            raise ValueError(f"config field {f.name!r} must be {f.type}, got {value!r}")
        if f.type == "float":
            try:
                number = float(value)
            except OverflowError:
                raise ValueError(
                    f"config field {f.name!r} must be finite, got an integer too large for a float"
                ) from None
            if not math.isfinite(number):
                raise ValueError(f"config field {f.name!r} must be finite, got {value!r}")
            object.__setattr__(config, f.name, number)


@dataclass(frozen=True, kw_only=True)
class SpcConfig:
    """Solver parameters, passed by keyword.

    alpha > 1 weights the similarity-preserving pull toward the kernel;
    alpha == 1 exactly disables it (the plain self-expressive variant).
    beta weights the spectral rank penalty, gamma the ridge term.
    Types and ranges are checked at construction.
    """

    alpha: float
    beta: float
    gamma: float
    clusters: int
    max_iters: int = 200
    rel_tol: float = 1e-5
    adapt_beta: bool = False
    seed: int = 0

    def __post_init__(self):
        _check_field_types(self)
        if not self.alpha >= 1.0:
            raise ValueError(f"alpha must be >= 1 (got {self.alpha}); 1 disables similarity preservation")
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.clusters < 2:
            raise ValueError(f"need at least 2 clusters, got {self.clusters}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class SpcTrace:
    """Per-iteration diagnostics.

    ``objective`` is evaluated on the projected iterate; the two extra
    series capture the value right after the embedding step and right after
    the (unprojected) graph step, so descent of the exact minimizers can be
    audited after the run. All three come from exact identities (see the
    module docstring) and agree with :func:`objective` up to rounding.
    ``near_zero_eigs`` counts the Laplacian eigenvalues below ZERO_EIG_TOL
    among the c+1 smallest, so it is at most c+1: the count that
    :func:`update_embedding` returns, c whenever the F-step was read off
    exactly c components.
    ``wall_time`` holds the seconds each iteration took; for mSPC that
    includes combining the next iteration's kernel.
    Every series is in the run report, checked against these annotations,
    so a series added here is reported with no report code.
    """

    objective: list[float] = field(default_factory=list)
    objective_after_embedding: list[float] = field(default_factory=list)
    objective_after_graph: list[float] = field(default_factory=list)
    rel_change: list[float] = field(default_factory=list)
    near_zero_eigs: list[int] = field(default_factory=list)
    beta: list[float] = field(default_factory=list)
    wall_time: list[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.objective)


@dataclass
class ClusteringResult:
    labels: np.ndarray
    component_count: int
    graph: np.ndarray  # learned nonnegative affinity matrix Z
    embedding: np.ndarray  # orthonormal n x c basis of the bottom Laplacian eigenspace
    trace: SpcTrace
    converged: bool


def build_laplacian(Z: np.ndarray) -> np.ndarray:
    """Graph Laplacian of the symmetrized affinity: diag(colsums(W)) - W.

    W = (Z + Z')/2 is built in one n x n buffer that then becomes L. The
    off-diagonal entries are 0 - W, not -W: negation would turn the +0.0
    entries into -0.0, and the eigensolver's Householder step reads the
    sign of zero.
    """
    W = _symmetric_part(np.asarray(Z, dtype=float))
    degrees = W.sum(axis=0)
    np.subtract(0.0, W, out=W)
    W.flat[:: W.shape[0] + 1] += degrees
    return W


def update_embedding(L: np.ndarray, c: int) -> tuple[np.ndarray, int]:
    """The F-step: an orthonormal basis F of L's bottom c-dimensional eigenspace.

    Returns (F, count), with count the number of eigenvalues below
    ZERO_EIG_TOL among the c+1 smallest (among all n when c = n), so the
    caller can tell whether the graph has fewer, exactly or more than c
    components.

    When the support of the graph (the off-diagonal nonzeros of L) has
    exactly c connected components, their normalized indicators span L's
    null space, and F is read off the graph: column b is 1_b / sqrt(n_b).
    The count is then c if lambda_{c+1} >= ZERO_EIG_TOL, which one Cholesky
    factorization of L + sigma*FF' - ZERO_EIG_TOL*I in a copy of L confirms
    (sigma is the largest diagonal entry of L, at least 1, so the null
    directions are shifted well clear). Otherwise, or when the check fails,
    one symmetric_eigen call gives the c bottom eigenvectors and the c+1
    smallest eigenvalues.
    """
    n = L.shape[0]
    if c > n:
        raise ValueError(f"cannot take {c} eigenvectors from an order-{n} matrix")
    labels, count = _components(L != 0)
    if count == c:
        sizes = np.bincount(labels, minlength=c)
        F = np.zeros((n, c))
        F[np.arange(n), labels] = 1.0 / np.sqrt(sizes)[labels]
        shifted = L.copy()
        shifted.flat[:: n + 1] -= ZERO_EIG_TOL
        if _is_positive_definite(shifted, F, max(1.0, float(L.diagonal().max()))):
            return F, c
        del shifted  # freed before the eigensolver makes its own copy of L
    eig = symmetric_eigen(L, c + 1)
    return eig.vectors[:, :c], int(np.count_nonzero(eig.values < ZERO_EIG_TOL))


def _components(adjacency: np.ndarray) -> tuple[np.ndarray, int]:
    """Connected components of an undirected graph given by a dense symmetric boolean matrix.

    Returns (labels, count), components numbered 0..count-1 in the order of
    their first sample. A breadth-first search from each unlabelled sample
    gathers the rows of the frontier once, so every row is read once: O(n^2).
    """
    n = adjacency.shape[0]
    labels = np.full(n, -1, dtype=np.intp)
    count = 0
    for seed in range(n):
        if labels[seed] >= 0:
            continue
        labels[seed] = count
        frontier = np.array([seed])
        while frontier.size:
            frontier = np.flatnonzero(adjacency[frontier].any(axis=0) & (labels < 0))
            labels[frontier] = count
        count += 1
    return labels, count


def update_graph(
    factor: SpdFactorization, AK: np.ndarray, F: np.ndarray, alpha: float, beta: float
) -> np.ndarray:
    """The Z-step: the unprojected graph A^{-1} (alpha*K - (beta/2)*P).

    factor is the Cholesky factor of A = K + 2*gamma*I, AK is A^{-1} K and
    P holds the squared distances between the rows of the embedding F, so
    column i is the closed-form minimizer of the ridge-regularized quadratic
    for sample i. With s = rowsum(F * F), A^{-1} P = (A^{-1}s) 1' +
    (A^{-1}1) s' - 2 (A^{-1}F) F' is a rank-(c+2) product, and only an
    n x (c+2) block is solved. Returns one new n x n buffer; the caller
    applies nonnegativity.
    """
    n = factor.order
    AK = np.asarray(AK, dtype=float)
    F = np.asarray(F, dtype=float)
    if AK.shape != (n, n) or F.ndim != 2 or F.shape[0] != n:
        raise ValueError(
            f"expected AK of shape {(n, n)} and an embedding with {n} rows, got {AK.shape} and {F.shape}"
        )
    s = np.sum(F * F, axis=1)
    ones = np.ones_like(s)
    solved = spd_solve(factor, np.column_stack([s, ones, F]))
    weights = np.concatenate([[-0.5 * beta, -0.5 * beta], np.full(F.shape[1], beta)])
    Z = product(solved * weights, np.column_stack([ones, s, F]), trans_b=True)
    _add_scaled(Z, AK, alpha)
    return Z


def project_nonneg(Z: np.ndarray) -> np.ndarray:
    """Entrywise max(Z, 0)."""
    return np.maximum(np.asarray(Z, dtype=float), 0.0)


def objective(K, Z: np.ndarray, F: np.ndarray, cfg: SpcConfig) -> float:
    """Value of the full objective at (Z, F).

    0.5 * tr(K + Z^T K Z) - alpha * tr(K Z) + beta * tr(F^T L F)
    + gamma * ||Z||_F^2, with L the Laplacian of the symmetrized Z.
    """
    K = as_kernel(K).values
    Z = np.asarray(Z, dtype=float)
    KZ = product(K, Z)
    L = build_laplacian(Z)
    fit = 0.5 * (float(np.trace(K)) + float(np.sum(KZ * Z)))
    preserve = float(np.sum(K * Z.T))
    spectral = float(np.sum(product(L, F) * F))
    ridge = float(np.sum(Z * Z))
    return float(fit - cfg.alpha * preserve + cfg.beta * spectral + cfg.gamma * ridge)


def extract_labels(Z: np.ndarray, threshold: Optional[float] = None) -> tuple[np.ndarray, int]:
    """Connected-component labels of the thresholded symmetrized graph.

    Edges exist where (Z + Z.T) / 2 exceeds the threshold (default:
    1e-8 * max entry of Z, discarding numerically-zero clipped weights).
    Components are numbered by first-seen sample index.
    """
    Z = np.asarray(Z, dtype=float)
    if threshold is None:
        threshold = ZERO_EIG_TOL * Z.max() if Z.size and Z.max() > 0 else 0.0
    if not threshold >= 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    return _components(_symmetric_part(Z) > threshold)


def init_graph(n: int, seed: int) -> np.ndarray:
    """Random initial affinity: uniform [0, 1) entries, columns summing to 1."""
    Z = np.random.default_rng(seed).random((n, n))
    Z /= Z.sum(axis=0, keepdims=True)
    return Z


def run_spc(K, cfg: SpcConfig) -> ClusteringResult:
    """Run the alternating solver on one kernel matrix.

    Stops when the relative Frobenius change of Z drops below cfg.rel_tol or
    after cfg.max_iters iterations. ``converged`` in the result additionally
    requires the learned graph to have exactly cfg.clusters components.

    With cfg.adapt_beta, the spectral weight is doubled while the Laplacian
    has fewer than c near-zero eigenvalues and halved while it has more,
    at most once per iteration and 30 times total. This is an extension
    beyond the fixed-beta algorithm and is off by default.
    """
    return alternate(K, cfg)


def alternate(
    K,
    cfg: SpcConfig,
    bank: Optional[list[KernelMatrix]] = None,
    weights: Optional[np.ndarray] = None,
    kernel_step: Optional[Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]] = None,
) -> ClusteringResult:
    """The alternating loop behind run_spc and run_mspc.

    K = sum_i weights[i] * bank[i]; without a bank, K is one kernel with
    weight 1. After every projection the loop takes the bank's fit costs h
    from kernel_costs, and the objective's fit term is 0.5*<weights, h>.
    Without kernel_step, K stays fixed and is factorized once. With it,
    kernel_step(h) returns the weights and the (exactly symmetric) combined
    kernel values of the following iteration, which is factorized when that
    iteration starts, so never for the kernel returned after the last one.
    K enters through as_kernel, the bank must have passed as_bank. No n x n
    right-hand side is ever solved: A^{-1}K comes from spd_inverse.

    The n x n arrays alive through an iteration are K, the factor, A^{-1}K
    and Z, plus at any time one transient and at most one array made from it
    (see the module docstring). The blocked and in-place updates give the
    bits of the plain whole-matrix expressions.
    """
    # only K's values stay bound, so mSPC frees its first combined kernel
    K = as_kernel(K)
    n = K.order
    if cfg.clusters > n:
        raise ValueError(f"clusters={cfg.clusters} exceeds the number of samples {n}")
    if bank is None:
        bank, weights = [K], np.ones(1)
    K = K.values

    factor = None
    Z = init_graph(n, cfg.seed)
    z_sq = _inner(Z, Z)
    h = kernel_costs(bank, Z, cfg.alpha)
    beta = cfg.beta
    adjustments = 0
    trace = SpcTrace()
    tol_reached = False

    for _ in range(cfg.max_iters):
        tic = time.perf_counter()
        if factor is None:
            factor = spd_factorize(_ridged(K, 2.0 * cfg.gamma))
            AK = spd_inverse(factor)
            AK *= -2.0 * cfg.gamma
            AK.flat[:: n + 1] += 1.0
        F, zero_eigs = update_embedding(build_laplacian(Z), cfg.clusters)

        if cfg.adapt_beta and adjustments < MAX_BETA_ADJUSTMENTS:
            if zero_eigs < cfg.clusters:
                beta *= 2.0
                adjustments += 1
            elif zero_eigs > cfg.clusters:
                beta *= 0.5
                adjustments += 1

        s = np.sum(F * F, axis=1)
        obj_f = 0.5 * _inner(weights, h) + cfg.gamma * z_sq + beta * _spectral(Z, F, s)
        Z_unproj = update_graph(factor, AK, F, cfg.alpha, beta)
        # K Z_unproj = alpha*K - (beta/2)*P - 2*gamma*Z_unproj turns the fit
        # and ridge terms into the preservation and spectral ones
        spectral = _spectral(Z_unproj, F, s)
        obj_z = 0.5 * (float(np.trace(K)) - cfg.alpha * _inner(K, Z_unproj) + beta * spectral)
        Z_new = project_nonneg(Z_unproj)
        del Z_unproj
        new_sq = _inner(Z_new, Z_new)
        h = kernel_costs(bank, Z_new, cfg.alpha)
        obj = 0.5 * _inner(weights, h) + cfg.gamma * new_sq + beta * _spectral(Z_new, F, s)

        # the old graph is dead once its successor exists, so it takes the step
        np.subtract(Z_new, Z, out=Z)
        diff_norm = math.sqrt(_inner(Z, Z))
        if z_sq > 0:
            rel = diff_norm / math.sqrt(z_sq)
        else:
            rel = 0.0 if diff_norm == 0 else float("inf")
        Z, z_sq = Z_new, new_sq

        if kernel_step is not None:
            factor = AK = None
            weights, K = kernel_step(h)

        trace.objective.append(float(obj))
        trace.objective_after_embedding.append(float(obj_f))
        trace.objective_after_graph.append(float(obj_z))
        trace.rel_change.append(rel)
        trace.near_zero_eigs.append(zero_eigs)
        trace.beta.append(beta)
        trace.wall_time.append(time.perf_counter() - tic)

        if rel < cfg.rel_tol:
            tol_reached = True
            break

    factor = AK = None
    labels, component_count = extract_labels(Z)
    return ClusteringResult(
        labels=labels,
        component_count=component_count,
        graph=Z,
        embedding=F,
        trace=trace,
        converged=tol_reached and component_count == cfg.clusters,
    )


def _inner(A: np.ndarray, B: np.ndarray) -> float:
    """Frobenius inner product <A, B> through ddot, with no temporary A * B.

    Both operands must have the same shape; ravelling a C-contiguous array,
    as every n x n operand in the loop is, makes no copy.
    """
    return float(ddot(np.ravel(A), np.ravel(B)))


def kernel_costs(bank: list[KernelMatrix], Z: np.ndarray, alpha: float) -> np.ndarray:
    """Per-kernel fit costs h_i = tr(K^i - 2*alpha*K^i Z + Z^T K^i Z).

    The kernels enter through as_bank, so every K^i is exactly symmetric (a
    bare array costs as its symmetric part). Then both traces are Frobenius inner
    products with matrices that do not depend on the kernel: tr(K Z) =
    <K, Z'> = <K, Z>, and tr(Z'KZ) = <K, ZZ'> = <K, 2*triu(ZZ') - diag(ZZ')>
    because ZZ' is symmetric too. So h_i = tr(K^i) + <K^i, M> with
    M = 2*triu(ZZ') - diag(ZZ') - 2*alpha*Z, and the whole bank costs one
    triangle of ZZ' (dsyrk, half a product) and one ddot pass per kernel.
    The cost is linear in K, so sum_i w_i h_i is the cost of sum_i w_i K^i.
    """
    bank, n = as_bank(bank)
    Z = np.asarray(Z, dtype=float)
    if Z.shape != (n, n):
        raise ValueError(f"graph has shape {Z.shape}, kernels have order {n}")
    # 2*triu(ZZ') - diag(ZZ'): off-diagonal entries stand for both triangles
    M = gram_upper(Z)
    M *= 2.0
    M.flat[:: n + 1] *= 0.5
    _add_scaled(M, Z, -2.0 * alpha)
    h = np.empty(len(bank))
    for i, K in enumerate(bank):
        h[i] = np.trace(K.values) + _inner(K.values, M)
    return h


def _spectral(Z: np.ndarray, F: np.ndarray, s: np.ndarray) -> float:
    """tr(F'LF) for the Laplacian L of Z's symmetrization, with s = rowsum(F * F).

    It equals 0.5*<Z, P> for the squared distances P = s1' + 1s' - 2FF'.
    """
    sums = Z.sum(axis=0) + Z.sum(axis=1)
    return 0.5 * float(np.sum(s * sums)) - _inner(product(Z, F), F)


def _ridged(K: np.ndarray, shift: float) -> np.ndarray:
    """K + shift*I in one new buffer, with the bits of K + shift * np.eye(n).

    Adding 0.0 off the diagonal turns a -0.0 into +0.0, as that sum does.
    """
    A = np.add(K, 0.0)
    A.flat[:: A.shape[0] + 1] += shift
    return A


def _add_scaled(out: np.ndarray, a: np.ndarray, scale: float) -> None:
    """out += scale * a, _BLOCK_ROWS rows at a time through one block-sized scratch.

    Per entry it is the multiply-then-add of out + scale * a, so the bits are
    the same, and no n x n temporary is made.
    """
    scratch = np.empty((min(_BLOCK_ROWS, out.shape[0]), out.shape[1]))
    for lo in range(0, out.shape[0], _BLOCK_ROWS):
        block = out[lo : lo + _BLOCK_ROWS]
        block += np.multiply(a[lo : lo + _BLOCK_ROWS], scale, out=scratch[: block.shape[0]])
