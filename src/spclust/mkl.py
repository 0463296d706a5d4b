"""Multiple-kernel extension of the graph-learning solver.

A bank of r candidate kernels is blended into one combined kernel
H = sum_i w_i K^i under the constraint sum_i sqrt(w_i) = 1. The solver runs
the alternating loop of :mod:`spclust.spc` on the bank and its current
weights. After each projection the loop computes the per-kernel fit costs

    h_i = tr(K^i) - 2 * alpha * tr(K^i Z) + tr(Z^T K^i Z)

with :func:`spclust.spc.kernel_costs` (re-exported here), from the same ZZ'
triangle that gives the objective's fit term. This module supplies only the
kernel step, which turns those costs into new weights through the
closed-form KKT solution w_i = (h_i * sum_j 1/h_j)^(-2). Kernels that
explain the learned graph cheaply earn larger weights. The loop sums the
bank under each iteration's weights straight into A = H + 2*gamma*I and
never forms H itself; :func:`combine_kernels` forms H on demand, for
example from the final weights that :func:`run_mspc` returns.

Weights start at the literal 1/r, which breaks the sqrt-sum constraint for
r > 1; the first update restores feasibility and every later iterate keeps
it. This mirrors the published algorithm's initialization, quirk included.
:func:`combine_kernels` sums any finite nonnegative weights; sum(sqrt(w)) = 1
is a property of :func:`update_weights`' output, not a condition of the sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelMatrix, as_bank
from .numerics import _weighted_sum
from .spc import ClusteringResult, SpcConfig, alternate, kernel_costs


@dataclass
class MklState:
    """Final multiple-kernel state: the last weights and the costs that gave them.

    The combined kernel of those weights is combine_kernels(bank, weights);
    the run never forms it.
    """

    weights: np.ndarray
    costs: np.ndarray


def combine_kernels(bank: list[KernelMatrix], w: np.ndarray) -> KernelMatrix:
    """Entrywise weighted sum H = sum_i w_i K^i.

    There must be one weight per kernel, each finite and nonnegative; any
    such weights combine, the 1/r start of run_mspc included. sum(sqrt(w))
    = 1 is a property of update_weights' output and is not checked here.
    H is summed in bank order by the loop's own routine
    (:func:`spclust.numerics._weighted_sum`, BLAS daxpy), so it is exactly
    symmetric and within rounding of the plain sum, though not always its
    bits. Bare arrays enter through as_bank and add their symmetric parts.
    """
    bank, n = as_bank(bank)
    w = np.asarray(w, dtype=float)
    if w.shape != (len(bank),):
        raise ValueError(f"got {w.shape[0] if w.ndim == 1 else w.shape} weights for {len(bank)} kernels")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError(f"weights must be finite and nonnegative, got {w}")
    return KernelMatrix(_weighted_sum([K.values for K in bank], w))


def update_weights(h: np.ndarray) -> np.ndarray:
    """Closed-form KKT weights w_i = (h_i * sum_j 1/h_j)^(-2).

    Computed as normalized inverse costs squared, which keeps
    sum(sqrt(w)) = 1 to machine precision (and exactly 1.0 for r = 1).
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 1 or h.size == 0:
        raise ValueError("cost vector must be non-empty and 1-D")
    bad = np.flatnonzero(~((h > 0) & (h < np.inf)))
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"kernel cost h[{i}] = {h[i]:g} is not positive and finite; the KKT weight formula "
            "needs finite positive costs (a non-positive one means alpha is likely too large "
            "for the current graph)"
        )
    inv = 1.0 / h
    roots = inv / inv.sum()
    return roots**2


def run_mspc(bank: list[KernelMatrix], cfg: SpcConfig) -> tuple[ClusteringResult, MklState]:
    """Alternating solver over a kernel bank with learned kernel weights.

    Runs the loop of :func:`spclust.spc.alternate` on the bank, starting
    from the literal 1/r weights. After each projection the kernel step
    takes the loop's fit costs of the new graph and returns the weights
    they give, which the loop sums the bank under at the next iteration.
    Stops like the single-kernel solver: relative Frobenius change of Z
    below cfg.rel_tol, or cfg.max_iters. The returned state holds the last
    step's weights and costs; combine_kernels(bank, state.weights) gives
    the combined kernel of those weights.

    A bank of one kernel reproduces the single-kernel run bit for bit given
    the same seed, since the lone weight is exactly 1. The bank enters once,
    through as_bank: KernelMatrix entries are trusted as they are, bare
    arrays are symmetrized once, as kernel_costs needs.
    """
    bank, _ = as_bank(bank)
    r = len(bank)
    # literal published initialization; infeasible for r > 1 until first update
    weights, costs = np.full(r, 1.0 / r), np.full(r, np.nan)

    def kernel_step(h: np.ndarray) -> np.ndarray:
        nonlocal weights, costs
        costs, weights = h, update_weights(h)
        return weights

    result = alternate(bank, weights, cfg, kernel_step)
    return result, MklState(weights=weights, costs=costs)
