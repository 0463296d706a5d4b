"""Multiple-kernel extension of the graph-learning solver.

A bank of r candidate kernels is blended into one combined kernel
H = sum_i w_i K^i under the constraint sum_i sqrt(w_i) = 1. The solver runs
the alternating loop of :mod:`spclust.spc` on the bank and its current
weights. After each projection the loop computes the per-kernel fit costs

    h_i = tr(K^i) - 2 * alpha * tr(K^i Z) + tr(Z^T K^i Z)

with :func:`spclust.spc.kernel_costs` (re-exported here), from the same ZZ'
triangle that gives the objective's fit term. This module supplies only the
kernel step, which turns those costs into new weights through the
closed-form KKT solution w_i = (h_i * sum_j 1/h_j)^(-2) and recombines the
bank. Kernels that explain the learned graph cheaply earn larger weights.

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
from .numerics import _BLOCK_ROWS
from .spc import ClusteringResult, SpcConfig, alternate, kernel_costs


@dataclass
class MklState:
    """Final multiple-kernel state: weights, combined kernel, costs."""

    weights: np.ndarray
    combined: KernelMatrix
    costs: np.ndarray


def combine_kernels(bank: list[KernelMatrix], w: np.ndarray) -> KernelMatrix:
    """Entrywise weighted sum H = sum_i w_i K^i.

    There must be one weight per kernel, each finite and nonnegative; any
    such weights combine, the 1/r start of run_mspc included. sum(sqrt(w))
    = 1 is a property of update_weights' output and is not checked here.
    H is summed block by block: each block of 64 rows is accumulated over
    all kernels, in bank order, while it is in cache, through one
    block-sized scratch array. Per entry it is the same multiply-then-add
    sequence as the plain sum, so the bits are the same. Bare arrays enter
    through as_bank and add their symmetric parts.
    """
    bank, n = as_bank(bank)
    w = np.asarray(w, dtype=float)
    if w.shape != (len(bank),):
        raise ValueError(f"got {w.shape[0] if w.ndim == 1 else w.shape} weights for {len(bank)} kernels")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError(f"weights must be finite and nonnegative, got {w}")
    H = np.zeros((n, n))
    scratch = np.empty((min(_BLOCK_ROWS, n), n))
    for lo in range(0, n, _BLOCK_ROWS):
        block = H[lo : lo + _BLOCK_ROWS]
        scaled = scratch[: block.shape[0]]
        for wi, K in zip(w, bank):
            block += np.multiply(K.values[lo : lo + _BLOCK_ROWS], wi, out=scaled)
    return KernelMatrix(H)


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
    takes the loop's fit costs of the new graph, refreshes the weights from
    them and combines the bank into the next iteration's kernel. Stops like
    the single-kernel solver: relative Frobenius change of Z below
    cfg.rel_tol, or cfg.max_iters. The returned state holds the last step's
    weights, costs and combined kernel.

    A bank of one kernel reproduces the single-kernel run bit for bit given
    the same seed, since the lone weight is exactly 1. The bank enters once,
    through as_bank: KernelMatrix entries are trusted as they are, bare
    arrays are symmetrized once, as kernel_costs needs.
    """
    bank, _ = as_bank(bank)
    r = len(bank)
    # literal published initialization; infeasible for r > 1 until first update
    w = np.full(r, 1.0 / r)
    state = MklState(weights=w, combined=combine_kernels(bank, w), costs=np.full(r, np.nan))

    def kernel_step(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        state.costs = h
        state.weights = update_weights(h)
        state.combined = combine_kernels(bank, state.weights)
        return state.weights, state.combined.values

    return alternate(state.combined, cfg, bank, w, kernel_step), state
