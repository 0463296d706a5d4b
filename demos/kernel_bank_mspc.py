"""
Multiple-kernel clustering on the standard bank
===============================================

Builds the 12-kernel bank (seven gaussian widths, four polynomials, one
linear), lets the solver learn the kernel weights jointly with the
graph, and compares against a plain k-means baseline on the raw
coordinates.
"""

import numpy as np

import spclust as sp

data = sp.generate_two_moons(300, noise_sigma=0.08, seed=0)
bank = sp.build_standard_bank(data)
print(f"bank of {len(bank)} kernels: {[str(k.spec) for k in bank]}")

# alpha = 1 keeps every kernel cost positive on this data, which the
# closed-form weight update requires; the spectral weight is annealed
cfg = sp.SpcConfig(
    alpha=1.0, beta=0.5, gamma=3.0, clusters=2,
    max_iters=300, adapt_beta=True, seed=0,
)
result, state = sp.run_mspc(bank, cfg)

print(f"converged: {result.converged} after {result.trace.iterations} iterations")
print(f"sum of sqrt(weights): {np.sum(np.sqrt(state.weights)):.12f}  (constraint = 1)")

order = np.argsort(state.weights)[::-1]
print("learned weights, largest first:")
for i in order[:5]:
    print(f"  {str(bank[i].spec):14s} w = {state.weights[i]:.4f}  cost = {state.costs[i]:.2f}")

# the weights define one learned kernel H = sum_i w_i K^i; the solver never
# forms it, and combine_kernels does so on demand
H = sp.combine_kernels(bank, state.weights)
print(f"objective of the final graph under H: {sp.objective(H, result.graph, result.embedding, cfg):.4f}")

baseline = sp.lloyd_kmeans(data, 2, seed=0)
acc_mspc = sp.accuracy(result.labels, data.labels)
acc_km = sp.accuracy(baseline.labels, data.labels)
print(f"accuracy  mspc = {acc_mspc:.4f}   k-means = {acc_km:.4f}")
