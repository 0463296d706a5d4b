"""Similarity-preserving graph learning with a connected-component target.

The solver learns a nonnegative affinity matrix Z that stays close to a given
kernel matrix K while a weighted spectral penalty drives the graph Laplacian
of Z toward rank n - c, so the learned graph splits into exactly c connected
components. Cluster labels are read straight off the components; no k-means
step on the embedding is needed.

Each outer iteration alternates:

1. embedding step: F <- the c bottom eigenvectors of the Laplacian of Z;
2. graph step: every column of Z gets the closed-form minimizer of the
   ridge-regularized quadratic, via one reusable Cholesky factor of
   K + 2*gamma*I;
3. projection: Z <- max(Z, 0).

The loop lives here once, in :func:`alternate`. The multiple-kernel solver
in :mod:`spclust.mkl` runs the same loop and supplies a kernel step that
swaps in a newly weighted kernel after each projection.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist

from .kernels import KernelMatrix, kernel_values
from .numerics import (
    SpdFactorization,
    spd_factorize,
    spd_solve,
    symmetric_eigen,
)

# eigenvalues below this count as zero when checking component structure
ZERO_EIG_TOL = 1e-8

# adaptive beta stops after this many doublings/halvings
MAX_BETA_ADJUSTMENTS = 30


@dataclass(frozen=True)
class SpcConfig:
    """Solver parameters.

    alpha > 1 weights the similarity-preserving pull toward the kernel;
    alpha == 1 exactly disables it (the plain self-expressive variant).
    beta weights the spectral rank penalty, gamma the ridge term.
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
        if self.alpha < 1.0:
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
    audited after the run. ``wall_time`` holds the seconds each iteration
    took; for mSPC that includes combining the next iteration's kernel.
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
    return symmetric_eigen(L).vectors[:, :c]


def embedding_distances(F: np.ndarray, i: int) -> np.ndarray:
    """Squared distances from embedding row i to every row (zero at i)."""
    F = np.asarray(F, dtype=float)
    d = ((F - F[i]) ** 2).sum(axis=1)
    d[i] = 0.0
    return d


def _row_sq_dists(F: np.ndarray) -> np.ndarray:
    """All pairwise squared distances between embedding rows."""
    P = cdist(F, F, "sqeuclidean")
    return 0.5 * (P + P.T)


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
    n = Z.shape[0]
    if threshold is None:
        threshold = ZERO_EIG_TOL * Z.max() if Z.size and Z.max() > 0 else 0.0
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    W = 0.5 * (Z + Z.T)
    count, raw = connected_components(csr_array(W > threshold), directed=False)
    # renumber components in order of first appearance
    remap: dict[int, int] = {}
    labels = np.empty(n, dtype=int)
    for i, r in enumerate(raw):
        if r not in remap:
            remap[r] = len(remap)
        labels[i] = remap[r]
    return labels, int(count)


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
    next_kernel: Optional[Callable[[np.ndarray], KernelMatrix | np.ndarray]] = None,
) -> ClusteringResult:
    """The alternating loop behind run_spc and run_mspc.

    Without next_kernel, K stays fixed and is factorized once. With it,
    next_kernel(Z) is called after every projection and returns the kernel
    for the following iteration, which is factorized when that iteration
    starts; so a run factorizes once per iteration and never for the kernel
    returned after the last one.
    """
    K = kernel_values(K)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"kernel must be square, got shape {K.shape}")
    n = K.shape[0]
    if cfg.clusters > n:
        raise ValueError(f"clusters={cfg.clusters} exceeds the number of samples {n}")

    factor = None
    Z = init_graph(n, cfg.seed)
    beta = cfg.beta
    adjustments = 0
    trace = SpcTrace()
    tol_reached = False
    F = np.zeros((n, cfg.clusters))

    for _ in range(cfg.max_iters):
        tic = time.perf_counter()
        if factor is None:
            factor = spd_factorize(K + 2.0 * cfg.gamma * np.eye(n))
        L = build_laplacian(Z)
        eig = symmetric_eigen(L)
        F = eig.vectors[:, : cfg.clusters]
        zero_eigs = int(np.count_nonzero(eig.values < ZERO_EIG_TOL))

        if cfg.adapt_beta and adjustments < MAX_BETA_ADJUSTMENTS:
            if zero_eigs < cfg.clusters:
                beta *= 2.0
                adjustments += 1
            elif zero_eigs > cfg.clusters:
                beta *= 0.5
                adjustments += 1
        cfg_iter = cfg if beta == cfg.beta else replace(cfg, beta=beta)

        obj_f = objective(K, Z, F, cfg_iter)
        # all columns at once: column j pairs kernel column j with distances from j
        Z_unproj = update_graph_column(factor, K, _row_sq_dists(F), cfg_iter)
        obj_z = objective(K, Z_unproj, F, cfg_iter)
        Z_new = project_nonneg(Z_unproj)
        obj = objective(K, Z_new, F, cfg_iter)

        prev_norm = float(np.linalg.norm(Z))
        diff_norm = float(np.linalg.norm(Z_new - Z))
        if prev_norm > 0:
            rel = diff_norm / prev_norm
        else:
            rel = 0.0 if diff_norm == 0 else float("inf")
        Z = Z_new

        if next_kernel is not None:
            K = kernel_values(next_kernel(Z))
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
