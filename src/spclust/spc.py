"""Similarity-preserving graph learning with a connected-component target.

The solver learns a nonnegative affinity matrix Z that stays close to a given
kernel matrix K while a weighted spectral penalty drives the graph Laplacian
of Z toward rank n - c, so the learned graph splits into exactly c connected
components. Cluster labels are read straight off the components; no k-means
step on the embedding is needed.

Each outer iteration alternates:

1. embedding step: F <- the c bottom eigenvectors of the Laplacian of Z;
2. graph step: every column of Z gets the closed-form minimizer of the
   ridge-regularized quadratic, A^{-1} (alpha*K - (beta/2)*P) with
   A = K + 2*gamma*I and P the squared embedding distances. P is
   s 1' + 1 s' - 2 F F' with s = rowsum(F * F), so the step is alpha*A^{-1}K,
   computed once per factorization of A, plus a rank-(c+2) update that needs
   only an n x (c+2) solve per iteration;
3. projection: Z <- max(Z, 0).

The objective diagnostics come from exact identities rather than from
:func:`objective`: the spectral term is 0.5*<Z, P>, the normal equations
give K Z = alpha*K - (beta/2)*P - 2*gamma*Z for the unprojected graph step,
and the rest of the objective at a projected graph is half the fit cost
tr(K) + <K, ZZ' - 2*alpha*Z'> plus the ridge term. :func:`kernel_costs`
computes that cost for every kernel of a bank from one ZZ' product, the one
n x n product of an iteration.

The loop lives here once, in :func:`alternate`. It runs on a weighted bank
of kernels; SPC is one kernel with weight 1. The multiple-kernel solver in
:mod:`spclust.mkl` supplies a kernel step that turns the costs of each
projected graph into new weights and a newly combined kernel.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from .kernels import KernelMatrix, kernel_values
from .metrics import Partition
from .numerics import (
    SpdFactorization,
    product,
    spd_factorize,
    spd_solve,
    symmetric_eigen,
    symmetrize,
)

# eigenvalues below this count as zero when checking component structure
ZERO_EIG_TOL = 1e-8

# adaptive beta stops after this many doublings/halvings
MAX_BETA_ADJUSTMENTS = 30

# values each field annotation accepts; a bool never counts as a number
_FIELD_KINDS = {"float": numbers.Real, "int": numbers.Integral, "bool": bool, "str": str}


def _check_field_types(config) -> None:
    """Check every field of a config dataclass against its annotation.

    float fields take any real number and are stored as float, int fields
    take any integer, bool and str fields only bool and str.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        if not isinstance(value, _FIELD_KINDS[f.type]) or isinstance(value, bool) != (f.type == "bool"):
            raise ValueError(f"config field {f.name!r} must be {f.type}, got {value!r}")
        if f.type == "float":
            object.__setattr__(config, f.name, float(value))


@dataclass(frozen=True)
class SpcConfig:
    """Solver parameters.

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


@dataclass
class SpcTrace:
    """Per-iteration diagnostics.

    ``objective`` is evaluated on the projected iterate; the two extra
    series capture the value right after the embedding step and right after
    the (unprojected) graph step, so descent of the exact minimizers can be
    audited after the run. All three come from exact identities (see the
    module docstring) and agree with :func:`objective` up to rounding.
    ``near_zero_eigs`` counts near-zero Laplacian eigenvalues among the c+1
    smallest, the only ones computed, so it is at most c+1.
    ``wall_time`` holds the seconds each iteration took; for mSPC that
    includes combining the next iteration's kernel.
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
    embedding: np.ndarray  # orthonormal n x c spectral embedding
    trace: SpcTrace
    converged: bool


def build_laplacian(Z: np.ndarray) -> np.ndarray:
    """Graph Laplacian of the symmetrized affinity: diag(colsums(W)) - W."""
    Z = np.asarray(Z, dtype=float)
    W = 0.5 * (Z + Z.T)
    L = np.diag(W.sum(axis=0)) - W
    return L


def update_embedding(L: np.ndarray, c: int) -> np.ndarray:
    """Orthonormal n x c matrix spanning the c bottom eigenvectors of L."""
    if c > L.shape[0]:
        raise ValueError(f"cannot take {c} eigenvectors from an order-{L.shape[0]} matrix")
    return symmetric_eigen(L, c).vectors[:, :c]


def update_graph_column(
    f: SpdFactorization, k: np.ndarray, d: np.ndarray, cfg: SpcConfig
) -> np.ndarray:
    """Closed-form unconstrained minimizer for affinity columns.

    Solves (K + 2*gamma*I) z = alpha * k - (beta / 2) * d using the
    prefactored left-hand side, where k is kernel column i and d the squared
    embedding distances from sample i. k and d may also be n x m blocks of
    such columns, solved at once. Nonnegativity is applied later by the caller.
    """
    k = np.asarray(k, dtype=float)
    d = np.asarray(d, dtype=float)
    if k.ndim not in (1, 2) or k.shape[0] != f.order or d.shape != k.shape:
        raise ValueError(
            f"expected columns of length {f.order}, got {k.shape} and {d.shape}"
        )
    return spd_solve(f, cfg.alpha * k - 0.5 * cfg.beta * d)


def project_nonneg(Z: np.ndarray) -> np.ndarray:
    """Entrywise max(Z, 0)."""
    return np.maximum(np.asarray(Z, dtype=float), 0.0)


def objective(K, Z: np.ndarray, F: np.ndarray, cfg: SpcConfig) -> float:
    """Value of the full objective at (Z, F).

    0.5 * tr(K + Z^T K Z) - alpha * tr(K Z) + beta * tr(F^T L F)
    + gamma * ||Z||_F^2, with L the Laplacian of the symmetrized Z.
    """
    K = kernel_values(K)
    Z = np.asarray(Z, dtype=float)
    KZ = K @ Z
    L = build_laplacian(Z)
    fit = 0.5 * (float(np.trace(K)) + float(np.sum(KZ * Z)))
    preserve = float(np.sum(K * Z.T))
    spectral = float(np.sum((L @ F) * F))
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
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    W = 0.5 * (Z + Z.T)
    count, raw = connected_components(csr_array(W > threshold), directed=False)
    return Partition.from_labels(raw).labels, int(count)


def init_graph(n: int, seed: int) -> np.ndarray:
    """Random initial affinity: uniform [0, 1) entries, columns summing to 1."""
    Z = np.random.default_rng(seed).random((n, n))
    return Z / Z.sum(axis=0, keepdims=True)


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
    """
    # the identities need K exactly symmetric; symmetrize also rejects non-square K
    K = symmetrize(kernel_values(K))
    n = K.shape[0]
    if cfg.clusters > n:
        raise ValueError(f"clusters={cfg.clusters} exceeds the number of samples {n}")
    if bank is None:
        bank, weights = [K], np.ones(1)

    factor = None
    Z = init_graph(n, cfg.seed)
    z_sq = _inner(Z, Z)
    h = kernel_costs(bank, Z, cfg.alpha)
    beta = cfg.beta
    adjustments = 0
    trace = SpcTrace()
    tol_reached = False
    F = np.zeros((n, cfg.clusters))

    for _ in range(cfg.max_iters):
        tic = time.perf_counter()
        if factor is None:
            factor = spd_factorize(K + 2.0 * cfg.gamma * np.eye(n))
            AK = spd_solve(factor, K)
        eig = symmetric_eigen(build_laplacian(Z), cfg.clusters + 1)
        F = eig.vectors[:, : cfg.clusters]
        zero_eigs = int(np.count_nonzero(eig.values < ZERO_EIG_TOL))

        if cfg.adapt_beta and adjustments < MAX_BETA_ADJUSTMENTS:
            if zero_eigs < cfg.clusters:
                beta *= 2.0
                adjustments += 1
            elif zero_eigs > cfg.clusters:
                beta *= 0.5
                adjustments += 1

        s = np.sum(F * F, axis=1)
        obj_f = 0.5 * _inner(weights, h) + cfg.gamma * z_sq + beta * _spectral(Z, F, s)
        Z_unproj = _graph_step(factor, AK, F, s, cfg.alpha, beta)
        # K Z_unproj = alpha*K - (beta/2)*P - 2*gamma*Z_unproj turns the fit
        # and ridge terms into the preservation and spectral ones
        spectral = _spectral(Z_unproj, F, s)
        obj_z = 0.5 * (float(np.trace(K)) - cfg.alpha * _inner(K, Z_unproj) + beta * spectral)
        Z_new = project_nonneg(Z_unproj)
        new_sq = _inner(Z_new, Z_new)
        h = kernel_costs(bank, Z_new, cfg.alpha)
        obj = 0.5 * _inner(weights, h) + cfg.gamma * new_sq + beta * _spectral(Z_new, F, s)

        diff = Z_new - Z
        diff_norm = math.sqrt(_inner(diff, diff))
        if z_sq > 0:
            rel = diff_norm / math.sqrt(z_sq)
        else:
            rel = 0.0 if diff_norm == 0 else float("inf")
        Z, z_sq = Z_new, new_sq

        if kernel_step is not None:
            weights, K = kernel_step(h)
            factor = None

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
    """Frobenius inner product <A, B>."""
    return float(np.sum(A * B))


def _check_bank(bank: list[KernelMatrix]) -> int:
    if len(bank) == 0:
        raise ValueError("kernel bank is empty")
    shapes = [kernel_values(K).shape for K in bank]
    if len(shapes[0]) != 2 or shapes[0][0] != shapes[0][1]:
        raise ValueError(f"kernel 0 has shape {shapes[0]}, expected a square matrix")
    n = shapes[0][0]
    for i, shape in enumerate(shapes):
        if shape != (n, n):
            raise ValueError(
                f"kernel {i} has shape {shape}, expected ({n}, {n}) to match kernel 0"
            )
    return n


def kernel_costs(bank: list[KernelMatrix], Z: np.ndarray, alpha: float) -> np.ndarray:
    """Per-kernel fit costs h_i = tr(K^i - 2*alpha*K^i Z + Z^T K^i Z).

    Both traces are Frobenius inner products with matrices that do not
    depend on the kernel, tr(K Z) = <K, Z'> and tr(Z'KZ) = <K, ZZ'>, so the
    whole bank costs one n x n product (ZZ') and one pass per kernel. The
    cost is linear in K, so sum_i w_i h_i is the cost of sum_i w_i K^i.
    """
    n = _check_bank(bank)
    Z = np.asarray(Z, dtype=float)
    if Z.shape != (n, n):
        raise ValueError(f"graph has shape {Z.shape}, kernels have order {n}")
    M = product(Z, Z, trans_b=True)
    M -= 2.0 * alpha * Z.T
    h = np.empty(len(bank))
    for i, K in enumerate(bank):
        vals = kernel_values(K)
        h[i] = np.trace(vals) + _inner(vals, M)
    return h


def _spectral(Z: np.ndarray, F: np.ndarray, s: np.ndarray) -> float:
    """tr(F'LF) for the Laplacian L of Z's symmetrization, with s = rowsum(F * F).

    It equals 0.5*<Z, P> for the squared distances P = s1' + 1s' - 2FF'.
    """
    sums = Z.sum(axis=0) + Z.sum(axis=1)
    return 0.5 * float(np.sum(s * sums)) - _inner(product(Z, F), F)


def _graph_step(
    factor: SpdFactorization,
    AK: np.ndarray,
    F: np.ndarray,
    s: np.ndarray,
    alpha: float,
    beta: float,
) -> np.ndarray:
    """The unprojected graph step A^{-1} (alpha*K - (beta/2)*P) from AK = A^{-1} K.

    A^{-1} P = (A^{-1}s) 1' + (A^{-1}1) s' - 2 (A^{-1}F) F' is a rank-(c+2)
    product, so only an n x (c+2) block is solved.
    """
    ones = np.ones_like(s)
    solved = spd_solve(factor, np.column_stack([s, ones, F]))
    weights = np.concatenate([[-0.5 * beta, -0.5 * beta], np.full(F.shape[1], beta)])
    return alpha * AK + product(solved * weights, np.column_stack([ones, s, F]), trans_b=True)
