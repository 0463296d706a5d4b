"""Similarity-preserving graph learning with a connected-component target.

The solver learns a nonnegative affinity matrix Z that stays close to a given
kernel matrix K while a weighted spectral penalty drives the graph Laplacian
of Z toward rank n - c, so the learned graph splits into exactly c connected
components. Cluster labels are read straight off the components; no k-means
step on the embedding is needed.

Each outer iteration alternates:

1. embedding step (:func:`update_embedding`): F <- an orthonormal basis of
   the bottom c-dimensional eigenspace of the Laplacian of Z, with the
   number of near-zero eigenvalues that the beta anneal reads. The
   normalized indicators of the graph's k connected components span the
   Laplacian's null space (the multiplicity fact CAN relies on). With k >
   c, F is those of the c-1 largest and of the union of the rest. With k
   <= c, one Cholesky factorization of a shifted copy of the Laplacian
   certifies that the (k+1)-th eigenvalue is not near zero; F is the
   indicators at k = c, and at c-k <= _LANCZOS_MAX_WANTED ARPACK's
   shift-invert Lanczos on that factor adds the c-k eigenvectors that
   follow. Otherwise, or when either fails, one eigensolve gives the c
   bottom eigenvectors and the c+1 smallest eigenvalues;
2. graph step (:func:`update_graph`): every column of Z gets the
   closed-form minimizer of the ridge-regularized quadratic,
   A^{-1} (alpha*K - (beta/2)*P) with A = K + 2*gamma*I and P the squared
   embedding distances. P is s 1' + 1 s' - 2 F F' with s = rowsum(F * F),
   so the step is alpha*A^{-1}K = alpha*I - 2*gamma*alpha*A^{-1} plus a
   rank-(c+2) update that needs only one n x (c+2) product with A^{-1} per
   iteration. A^{-1} is formed once per kernel, from its Cholesky factor
   (LAPACK dpotri), and the factor is dropped at once;
3. projection: Z <- max(Z, 0).

The objective diagnostics come from exact identities rather than from
:func:`objective`: the spectral term is 0.5*<Z, P>, the normal equations
give K Z = alpha*K - (beta/2)*P - 2*gamma*Z for the unprojected graph step,
whose trace gives <K, Z> = alpha*tr(K) - 2*gamma*tr(Z) there (tr P = 0),
and the rest of the objective at a projected graph is half the fit cost
tr(K) + <K, ZZ' - 2*alpha*Z> plus the ridge term. :func:`kernel_costs`
computes that cost for every kernel of a bank from one triangle of ZZ', the
one n x n product of an iteration. Every identity needs K exactly
symmetric: a kernel enters once, through :func:`spclust.kernels.as_kernel`,
which trusts a KernelMatrix without a copy and symmetrizes a bare array, and
every later matrix (A, the Laplacian, ZZ') is exactly symmetric by
construction, so none is symmetrized again.

The loop lives here once, in :func:`alternate`. It calls each step above
through its module-level name and runs no other F- or Z-step. It runs on a
weighted bank of kernels; SPC is one kernel with weight 1. The
multiple-kernel solver in :mod:`spclust.mkl` supplies a kernel step that
turns the costs of each projected graph into new weights. The loop sums
the bank under its weights straight into A = K + 2*gamma*I (BLAS daxpy)
and never forms the weighted kernel K itself.

Memory: beyond the kernel (or the bank), the n x n arrays that live
through an iteration are A^{-1} and Z. Besides them the loop holds one
transient of its own (the Laplacian, the unprojected graph or the ZZ'
triangle) and at most one more array: the eigensolver's copy of the
Laplacian (or the F-step's shifted copy that is factorized in place, which
ARPACK then solves with beside the k indicators and its own 16 or more
Lanczos vectors of n), or the projected graph that becomes the next Z. So
the traced peak is about 4 n^2 floats beyond the kernel or the bank alike.
Scaled sums into an n x n array run in 64-row blocks (:func:`_add_scaled`),
the old Z takes the step Z_new - Z, and each buffer is released as soon as
it is dead: A and its Cholesky factor once dpotri has read the factor, and
A^{-1} before the kernel step and before the labels are read.
"""

from __future__ import annotations

import math
import numbers
import reprlib
import time
from dataclasses import dataclass, field, is_dataclass
from typing import Callable, Optional, Union, get_args, get_origin, get_type_hints

import numpy as np
from scipy.linalg.blas import ddot

from .kernels import KernelMatrix, as_bank, as_kernel
from .numerics import (
    _BLOCK_ROWS,
    _shift_invert_lanczos,
    _shifted_factor,
    _symmetric_part,
    _weighted_sum,
    gram_upper,
    product,
    spd_factorize,
    spd_inverse,
    symmetric_eigen,
)

# Laplacian eigenvalues below this times the largest degree count as zero,
# and graph entries below this times the largest one as no edge
ZERO_EIG_TOL = 1e-8

# the F-step's Lanczos finds at most this many eigenvectors beyond the
# components, and the eigensolver takes any more: ARPACK's Krylov dimension
# and restarts grow with their number. On the connected graph of density
# 0.02 in the tests (2 cores, median of 15, F-step against evr in ms),
# c-k = 4 read 5.4/6.0 at n = 400, 9.8/14.9 at n = 600 and 38/44 at
# n = 1000, c-k = 5 5.9/6.5, 13.7/15.6 and 49/47 (74 -> 108 solves at
# n = 1000), c-k = 8 6.5/7.1 at n = 400 and 49/45 at n = 1000, c-k = 10
# 8.8/7.4 and 67/53, c-k = 16 11/8 and 94/53. At n = 700 and 800 evr wins
# from c-k = 2 (23/21 and 35/27)
_LANCZOS_MAX_WANTED = 4

# adaptive beta stops after this many doublings/halvings
MAX_BETA_ADJUSTMENTS = 30


def _type_name(hint) -> str:
    return hint.__name__ if isinstance(hint, type) else str(hint).replace("typing.", "")


def _fits(value, hint, where: str) -> bool:
    """Whether a value fits a resolved type annotation: the one rule for config fields and reports.

    Handles bool, int, float and str (a bool is never a number, any real
    number fits float and any integer fits int, so an int fits float),
    list[X], dict[str, X], Optional and Union, and dataclasses: a dict whose
    keys are exactly the dataclass's fields, each fitting its own
    annotation. A dataclass's fault raises ValueError naming the key's path
    below where.
    """
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        return any(_fits(value, arg, where) for arg in args)
    if origin is list:
        return isinstance(value, list) and all(_fits(v, args[0], where) for v in value)
    if origin is dict:
        return isinstance(value, dict) and all(_fits(v, args[1], where) for v in value.values())
    if is_dataclass(hint):
        if not isinstance(value, dict):
            return False
        hints = get_type_hints(hint)
        for key in hints:
            if key not in value:
                raise ValueError(f"{where} is missing key {key!r}")
        for key in value:
            if key not in hints:
                raise ValueError(f"{where} has unknown key {key!r}")
        for key, item in hints.items():
            if not _fits(value[key], item, f"{where} key {key!r}"):
                raise ValueError(f"{where} key {key!r} must be {_type_name(item)}, got {reprlib.repr(value[key])}")
        return True
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, {float: numbers.Real, int: numbers.Integral}.get(hint, hint))


def _check_field_types(config) -> None:
    """Check every field of a config dataclass against its resolved annotation.

    float fields take any finite real number and are stored as float, int
    fields take any integer and are stored as int, bool and str fields only
    bool and str. An integer too large for a float is refused like an
    infinite one.
    """
    for name, hint in get_type_hints(type(config)).items():
        value = getattr(config, name)
        if not _fits(value, hint, name):
            raise ValueError(f"config field {name!r} must be {_type_name(hint)}, got {value!r}")
        if hint is int:
            object.__setattr__(config, name, int(value))
        elif hint is float:
            try:
                number = float(value)
            except OverflowError:
                raise ValueError(
                    f"config field {name!r} must be finite, got an integer too large for a float"
                ) from None
            if not math.isfinite(number):
                raise ValueError(f"config field {name!r} must be finite, got {value!r}")
            object.__setattr__(config, name, number)


@dataclass(frozen=True, kw_only=True)
class SpcConfig:
    """Solver parameters, passed by keyword.

    alpha > 1 weights the similarity-preserving pull toward the kernel;
    alpha == 1 exactly disables it (the plain self-expressive variant).
    beta weights the spectral rank penalty, gamma the ridge term.
    Types and ranges are checked at construction.

    For run_spc, alpha rescales beta: the Z-subproblem is homogeneous,
    Z*(alpha, beta) = alpha Z*(1, beta/alpha), and the F-step, the stop
    test and the labels ignore Z's scale. A run at (alpha, beta) gives the
    labels and iteration count of the run at (1, beta/alpha), its beta
    series times alpha and its graph times alpha: up to rounding, and bit
    for bit when alpha is a power of two. run_mspc's kernel costs are not
    homogeneous in Z, so there alpha matters on its own.
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
    module docstring) and agree with :func:`objective` up to rounding. The
    preservation term after the graph step is <K, Z_u> = alpha*tr(K) -
    2*gamma*tr(Z_u), the trace of the normal equations at the unprojected
    graph Z_u (tr P = 0), with tr(K) = sum_i w_i tr(K^i), so no series
    reads a combined kernel's values.
    ``near_zero_eigs`` is the count of near-zero Laplacian eigenvalues among
    the c+1 smallest that :func:`update_embedding` returns: the number of
    the graph's components capped at c+1, except at the eigensolver
    fallback, where it is the number of eigenvalues below ZERO_EIG_TOL
    times the largest degree.
    ``wall_time`` holds the seconds each iteration took; for mSPC that
    includes summing the bank into A and the weight update.
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

    Returns (F, count), with count the number of near-zero eigenvalues
    (below tol = ZERO_EIG_TOL times the largest degree) among the c+1
    smallest (among all n when c = n), so the caller can tell whether the
    graph has fewer, exactly or more than c components.

    The support of the graph (the off-diagonal nonzeros of L) has k
    connected components, and their normalized indicators (column b is
    1_b / sqrt(n_b)) span L's null space. With k > c, F is the indicators of
    the c-1 largest components (ties to the first sample) beside that of the
    union of the rest, and count is c+1, with no factorization. With k <= c,
    one Cholesky factorization of L - tol*I + sigma*EE', in a copy of L,
    with E the k indicators, certifies that lambda_{k+1} > tol, and the
    count is k. sigma is twice the largest degree (1 for a graph with no
    edge), an upper bound on ||L|| by Gershgorin, so the null directions are
    shifted above the whole spectrum at any scale. With k = c, F is E. With
    k < c and c-k at most _LANCZOS_MAX_WANTED, ARPACK's Lanczos on the
    inverse of that factor (:func:`spclust.numerics._shift_invert_lanczos`)
    finds the c-k eigenvectors that follow, orthogonal to E, and F is E
    beside them. When c-k is larger, or the factorization or Lanczos fails
    (a bridge so weak that lambda_{k+1} <= tol, no convergence within the
    restart cap), one symmetric_eigen call gives the c bottom eigenvectors,
    and count is the number of the c+1 smallest eigenvalues below tol.
    """
    n = L.shape[0]
    if c > n:
        raise ValueError(f"cannot take {c} eigenvectors from an order-{n} matrix")
    labels, count = _components(L != 0)
    if count > c:
        # the c-1 largest components keep their own columns, the rest share the last
        rank = np.empty(count, dtype=np.intp)
        rank[np.argsort(-np.bincount(labels), kind="stable")] = np.arange(count)
        labels = np.minimum(rank[labels], c - 1)
    sizes = np.bincount(labels)
    E = np.zeros((n, len(sizes)))
    E[np.arange(n), labels] = 1.0 / np.sqrt(sizes)[labels]
    if count > c:
        return E, c + 1
    degree = float(L.diagonal().max())
    tol, norm = ZERO_EIG_TOL * degree, 2.0 * degree
    if c - count <= _LANCZOS_MAX_WANTED:
        factor = L.copy()
        factor.flat[:: n + 1] -= tol
        factor = _shifted_factor(factor, E, norm or 1.0)
        if factor is not None:
            if count == c:
                return E, c
            pairs = _shift_invert_lanczos(L, factor, c - count, norm)
            if pairs is not None:
                return np.hstack([E, pairs.vectors]), count
        del factor  # freed before the eigensolver makes its own copy of L
    eig = symmetric_eigen(L, c + 1)
    return eig.vectors[:, :c], int(np.count_nonzero(eig.values < tol))


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


def update_graph(inv: np.ndarray, F: np.ndarray, alpha: float, beta: float, gamma: float) -> np.ndarray:
    """The Z-step: the unprojected graph A^{-1} (alpha*K - (beta/2)*P).

    inv is the inverse of A = K + 2*gamma*I and P holds the squared
    distances between the rows of the embedding F, so column i is the
    closed-form minimizer of the ridge-regularized quadratic for sample i.
    alpha*A^{-1}K is alpha*I - 2*gamma*alpha*A^{-1}. With s = rowsum(F * F),
    A^{-1} P = (A^{-1}s) 1' + (A^{-1}1) s' - 2 (A^{-1}F) F' is a rank-(c+2)
    product, and only an n x (c+2) block of A^{-1} times [s, 1, F] is formed.
    Returns one new n x n buffer; the caller applies nonnegativity.
    """
    inv = np.asarray(inv, dtype=float)
    F = np.asarray(F, dtype=float)
    n = len(inv)
    if inv.shape != (n, n) or F.ndim != 2 or F.shape[0] != n:
        raise ValueError(
            f"expected an inverse of shape {(n, n)} and an embedding with {n} rows, got {inv.shape} and {F.shape}"
        )
    s = np.sum(F * F, axis=1)
    ones = np.ones_like(s)
    solved = product(inv, np.column_stack([s, ones, F]))
    weights = np.concatenate([[-0.5 * beta, -0.5 * beta], np.full(F.shape[1], beta)])
    Z = product(solved * weights, np.column_stack([ones, s, F]), trans_b=True)
    _add_scaled(Z, inv, -2.0 * gamma * alpha)
    Z.flat[:: n + 1] += alpha
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


def extract_labels(Z: np.ndarray) -> tuple[np.ndarray, int]:
    """Connected-component labels of the symmetrized graph.

    Edges exist where (Z + Z.T) / 2 exceeds ZERO_EIG_TOL * max entry of Z
    (0 when no entry is positive), discarding numerically-zero clipped
    weights. Components are numbered by first-seen sample index.
    """
    Z = np.asarray(Z, dtype=float)
    threshold = ZERO_EIG_TOL * Z.max() if Z.size and Z.max() > 0 else 0.0
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
    return alternate([K], np.ones(1), cfg)


def alternate(
    bank: list[KernelMatrix],
    weights: np.ndarray,
    cfg: SpcConfig,
    kernel_step: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> ClusteringResult:
    """The alternating loop behind run_spc and run_mspc.

    The loop's kernel is K = sum_i weights[i] * bank[i]; SPC is one kernel
    with weight 1. After every projection the loop takes the bank's fit
    costs h from kernel_costs, and the objective's fit term is
    0.5*<weights, h>. Without kernel_step the weights stay fixed and A = K +
    2*gamma*I is factorized once. With it, kernel_step(h) returns the
    weights of the following iteration, whose A is summed from the bank
    (:func:`spclust.numerics._weighted_sum`) and factorized when that
    iteration starts, so never for the weights returned after the last one.
    K itself is never formed (see :class:`SpcTrace`). The bank enters
    through as_bank. A^{-1} comes from spd_inverse, and A and its Cholesky
    factor are dropped as soon as dpotri has read it; the loop solves no
    right-hand side.

    The n x n arrays alive through an iteration are A^{-1} and Z, plus at
    any time one transient and at most one array made from it (see the
    module docstring). The blocked and in-place updates give the bits of
    the plain whole-matrix expressions.
    """
    bank, n = as_bank(bank)
    if cfg.clusters > n:
        raise ValueError(f"clusters={cfg.clusters} exceeds the number of samples {n}")
    kernels = [K.values for K in bank]
    traces = np.array([np.trace(K) for K in kernels])

    inv = None
    Z = init_graph(n, cfg.seed)
    z_sq = _inner(Z, Z)
    h = kernel_costs(bank, Z, cfg.alpha)
    beta = cfg.beta
    adjustments = 0
    trace = SpcTrace()
    tol_reached = False

    for _ in range(cfg.max_iters):
        tic = time.perf_counter()
        if inv is None:
            inv = spd_inverse(spd_factorize(_weighted_sum(kernels, weights, 2.0 * cfg.gamma)))
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
        Z_unproj = update_graph(inv, F, cfg.alpha, beta, cfg.gamma)
        # K Z_unproj = alpha*K - (beta/2)*P - 2*gamma*Z_unproj turns the fit
        # and ridge terms into the preservation and spectral ones, and its
        # trace gives the preservation term (tr P = 0)
        spectral = _spectral(Z_unproj, F, s)
        trace_k = _inner(weights, traces)
        preserve = cfg.alpha * trace_k - 2.0 * cfg.gamma * float(np.trace(Z_unproj))
        obj_z = 0.5 * (trace_k - cfg.alpha * preserve + beta * spectral)
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
            inv = None
            weights = kernel_step(h)

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

    inv = None
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

    It equals 0.5*<Z, P> for the squared distances P = s1' + 1s' - 2FF',
    that is 0.5*(1'Zs + s'Z1) - <ZF, F>. One n x (c+2) product Z [s, 1, F]
    gives Zs, Z1 and ZF, so Z is read once.
    """
    ZG = product(Z, np.column_stack([s, np.ones_like(s), F]))
    return 0.5 * (float(np.sum(ZG[:, 0])) + float(ddot(s, ZG[:, 1]))) - _inner(ZG[:, 2:], F)


def _add_scaled(out: np.ndarray, a: np.ndarray, scale: float) -> None:
    """out += scale * a, _BLOCK_ROWS rows at a time through one block-sized scratch.

    Per entry it is the multiply-then-add of out + scale * a, so the bits are
    the same, and no n x n temporary is made.
    """
    scratch = np.empty((min(_BLOCK_ROWS, out.shape[0]), out.shape[1]))
    for lo in range(0, out.shape[0], _BLOCK_ROWS):
        block = out[lo : lo + _BLOCK_ROWS]
        block += np.multiply(a[lo : lo + _BLOCK_ROWS], scale, out=scratch[: block.shape[0]])
