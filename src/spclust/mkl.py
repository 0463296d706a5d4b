"""Multiple-kernel extension of the graph-learning solver.

A bank of r candidate kernels is blended into one combined kernel
H = sum_i w_i K^i under the constraint sum_i sqrt(w_i) = 1. The solver runs
the alternating loop of :mod:`spclust.spc` on the bank and its current
weights. After each projection the loop computes the per-kernel fit costs

    h_i = tr(K^i) - 2 * alpha * tr(K^i Z) + tr(Z^T K^i Z)

with :func:`spclust.spc.kernel_costs` (re-exported here), from the same ZZ'
product that gives the objective's fit term. This module supplies only the
kernel step, which turns those costs into new weights through the
closed-form KKT solution w_i = (h_i * sum_j 1/h_j)^(-2) and recombines the
bank. Kernels that explain the learned graph cheaply earn larger weights.

Weights start at the literal 1/r, which breaks the sqrt-sum constraint for
r > 1; the first update restores feasibility and every later iterate keeps
it. This mirrors the published algorithm's initialization, quirk included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelMatrix, kernel_values
from .spc import ClusteringResult, SpcConfig, _check_bank, alternate, kernel_costs

# tolerance on |sum(sqrt(w)) - 1| when validating caller-supplied weights
FEASIBILITY_TOL = 1e-8


@dataclass
class MklState:
    """Final multiple-kernel state: weights, combined kernel, costs."""

    weights: np.ndarray
    combined: KernelMatrix
    costs: np.ndarray
    iterations: int


def combine_kernels(
    bank: list[KernelMatrix], w: np.ndarray, require_feasible: bool = True
) -> KernelMatrix:
    """Entrywise weighted sum H = sum_i w_i K^i.

    Weights must be nonnegative and, unless require_feasible is off, satisfy
    sum(sqrt(w)) = 1. run_mspc disables the check once, for the
    deliberately infeasible 1/r starting point; every later combine is checked.
    """
    n = _check_bank(bank)
    w = np.asarray(w, dtype=float)
    if w.shape != (len(bank),):
        raise ValueError(f"got {w.shape[0] if w.ndim == 1 else w.shape} weights for {len(bank)} kernels")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError(f"weights must be finite and nonnegative, got {w}")
    if require_feasible:
        dev = abs(float(np.sqrt(w).sum()) - 1.0)
        if dev > FEASIBILITY_TOL:
            raise ValueError(
                f"weights are infeasible: sum(sqrt(w)) deviates from 1 by {dev:.3e}"
            )
    H = np.zeros((n, n))
    for wi, K in zip(w, bank):
        H = H + wi * kernel_values(K)
    return KernelMatrix(H)


def update_weights(h: np.ndarray) -> np.ndarray:
    """Closed-form KKT weights w_i = (h_i * sum_j 1/h_j)^(-2).

    Computed as normalized inverse costs squared, which keeps
    sum(sqrt(w)) = 1 to machine precision (and exactly 1.0 for r = 1).
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 1 or h.size == 0:
        raise ValueError("cost vector must be non-empty and 1-D")
    bad = np.flatnonzero(~(h > 0))
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"kernel cost h[{i}] = {h[i]:g} is not positive; the KKT weight formula "
            "needs positive costs (alpha is likely too large for the current graph)"
        )
    inv = 1.0 / h
    roots = inv / inv.sum()
    return roots**2


def run_mspc(bank: list[KernelMatrix], cfg: SpcConfig) -> tuple[ClusteringResult, MklState]:
    """Alternating solver over a kernel bank with learned kernel weights.

    Runs the loop of :func:`spclust.spc.alternate` on the bank, starting
    from the literal 1/r weights. After each projection the kernel step
    takes the loop's fit costs of the new graph, refreshes the weights from
    them and combines the bank into the next iteration's kernel. Stops like
    the single-kernel solver: relative Frobenius change of Z below
    cfg.rel_tol, or cfg.max_iters. The returned state holds the last step's
    weights, costs and combined kernel.

    A bank of one kernel reproduces the single-kernel run bit for bit given
    the same seed, since the lone weight is exactly 1.
    """
    _check_bank(bank)
    r = len(bank)
    # literal published initialization; infeasible for r > 1 until first update
    w = np.full(r, 1.0 / r)
    state = MklState(
        weights=w,
        combined=combine_kernels(bank, w, require_feasible=False),
        costs=np.full(r, np.nan),
        iterations=0,
    )

    def kernel_step(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        state.costs = h
        state.weights = update_weights(h)
        state.combined = combine_kernels(bank, state.weights)
        return state.weights, state.combined.values

    result = alternate(state.combined, cfg, bank, w, kernel_step)
    state.iterations = result.trace.iterations
    return result, state
