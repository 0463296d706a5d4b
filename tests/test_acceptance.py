"""End-to-end acceptance checks, one per headline claim.

Each test prints a single [PASS]/[FAIL] line (run pytest with -s to see
them all) before asserting, so the suite doubles as a checklist:

    pytest tests/test_acceptance.py -s -q
"""

import dataclasses
import itertools
import json
import time

import numpy as np
from scipy.linalg import cholesky, solve_triangular
from scipy.optimize import nnls

import spclust as sp
from spclust.spc import ZERO_EIG_TOL
from spclust.workbench import ExperimentConfig, RunReport


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# the tuning grid for the two-moons run on the raw gaussian t=0.01 kernel:
# (alpha, beta, gamma, adapt_beta); annealed entries start from a small
# spectral weight and double it until the graph splits, fixed entries keep
# beta as given
MOONS_GRID = (
    (4.0, 0.125, 0.5, True),
    (4.0, 0.125, 1.0, True),
    (10.0, 0.125, 0.5, True),
    (10.0, 0.125, 1.0, True),
    (4.0, 20.0, 0.05, False),
    (10.0, 20.0, 0.05, False),
)


def test_two_moons_single_gaussian_reproduction():
    tic = time.perf_counter()
    X = sp.generate_two_moons(300, noise_sigma=0.08, seed=0)
    K = sp.gaussian_kernel(X, 0.01)
    baseline = sp.accuracy(sp.lloyd_kmeans(X, 2, seed=0).labels, X.labels)

    best, best_cfg = -1.0, None
    for alpha, beta, gamma, adapt in MOONS_GRID:
        cfg = sp.SpcConfig(
            alpha=alpha, beta=beta, gamma=gamma, clusters=2,
            max_iters=300, adapt_beta=adapt, seed=0,
        )
        acc = sp.accuracy(sp.run_spc(K, cfg).labels, X.labels)
        if acc > best:
            best, best_cfg = acc, (alpha, beta, gamma, adapt)
    elapsed = time.perf_counter() - tic

    ok = best >= 0.85 and best - baseline >= 0.10 and elapsed <= 30.0
    report(
        "two-moons, single gaussian t=0.01",
        ok,
        f"best Acc {best:.4f} at (alpha,beta,gamma,adapt)={best_cfg}, "
        f"k-means baseline {baseline:.4f}, need >= 0.85 and baseline+0.10, "
        f"{elapsed:.1f}s",
    )


def _block_minimizer(K, labels, alpha, gamma):
    """Exact Z >= 0 minimizer of the objective among graphs whose edges stay
    inside the blocks of ``labels``.

    Off-block entries are zero, so the spectral term vanishes for an
    embedding constant on each block and every column j separates into
    min_{z >= 0} 0.5 z'(K_BB + 2 gamma I) z - alpha K_Bj' z over its block B.
    With R'R = K_BB + 2 gamma I that is the least-squares problem
    min_{z >= 0} ||R z - alpha R^{-T} K_Bj||^2, solved by NNLS.
    """
    Z = np.zeros_like(K)
    for block in np.unique(labels):
        idx = np.flatnonzero(labels == block)
        R = cholesky(K[np.ix_(idx, idx)] + 2.0 * gamma * np.eye(idx.size))
        for j in idx:
            Z[idx, j] = nnls(R, solve_triangular(R, alpha * K[idx, j], trans="T"))[0]
    return Z


def _block_indicators(labels):
    """Orthonormal n x c embedding, constant on each block of ``labels``."""
    blocks = np.unique(labels)
    F = (labels[:, None] == blocks[None, :]).astype(float)
    return F / np.sqrt(F.sum(axis=0))


def test_two_moons_wide_gaussian_prefers_two_point_split():
    # on the flat t=10 kernel (every entry above 0.9) the objective ranks a
    # near-trivial split below the true moons: for a graph with exactly c
    # components the spectral term is 0, so whatever beta is, the lowest
    # value a partition reaches is the objective at its block minimizer
    tic = time.perf_counter()
    X = sp.generate_two_moons(300, noise_sigma=0.08, seed=0)
    K = sp.gaussian_kernel(X, 10.0)
    alpha, beta, gamma = 4.0, 0.125, 1.0
    cfg = sp.SpcConfig(alpha=alpha, beta=beta, gamma=gamma, clusters=2)

    # the two samples least similar to the rest, against everything else
    split = np.zeros(X.labels.size, dtype=int)
    split[np.argsort(K.values.sum(axis=1))[:2]] = 1

    values, components = [], []
    for labels in (X.labels, split):
        Z = _block_minimizer(K.values, labels, alpha, gamma)
        values.append(sp.objective(K, Z, _block_indicators(labels), cfg))
        components.append(sp.extract_labels(Z)[1])
    truth_value, split_value = values
    elapsed = time.perf_counter() - tic

    ok = split_value < truth_value and components == [2, 2]
    report(
        "two-moons, single gaussian t=10: objective prefers a two-point split",
        ok,
        f"optimal graph on the split (Acc {sp.accuracy(split, X.labels):.4f}) "
        f"{split_value:.2f} < on the ground truth {truth_value:.2f} at "
        f"(alpha,beta,gamma)=({alpha}, {beta}, {gamma}), "
        f"components {components}, {elapsed:.1f}s",
    )


def test_graph_step_matches_gradient_oracle():
    # column i of the loop's graph step, update_graph, must agree with an
    # independent unconstrained gradient-descent minimizer of the same quadratic
    rng = np.random.default_rng(0)
    tic = time.perf_counter()
    n = 10
    worst_gap, worst_grad = 0.0, 0.0
    cases = list(itertools.product((1.0, 2.0, 10.0), (0.1, 1.0, 10.0), (0.1, 1.0, 10.0)))
    for trial in range(50):
        alpha, beta, gamma = cases[trial % len(cases)]
        B = rng.standard_normal((n, n))
        K = B @ B.T
        K /= np.abs(K).max()
        F = rng.standard_normal((n, 2))
        i = int(rng.integers(n))
        d = ((F - F[i]) ** 2).sum(axis=1)
        d[i] = 0.0

        inv = sp.numerics.spd_inverse(sp.spd_factorize(K + 2 * gamma * np.eye(n)))
        z = sp.update_graph(inv, F, alpha, beta, gamma)[:, i]

        A = K + 2 * gamma * np.eye(n)
        b = alpha * K[i] - 0.5 * beta * d
        scale = max(1.0, float(np.linalg.norm(b)))
        worst_grad = max(worst_grad, float(np.linalg.norm(A @ z - b)) / scale)

        # plain gradient descent with a safe fixed step, run to high precision
        step = 1.0 / float(np.linalg.eigvalsh(A)[-1])
        x = np.zeros(n)
        for _ in range(200_000):
            g = A @ x - b
            if np.linalg.norm(g) <= 1e-10 * scale:
                break
            x -= step * g
        worst_gap = max(worst_gap, float(np.abs(x - z).max()))
    elapsed = time.perf_counter() - tic

    ok = worst_gap <= 1e-6 and worst_grad <= 1e-8 and elapsed <= 5.0
    report(
        "graph step vs gradient-descent oracle",
        ok,
        f"max |closed-form - descent| {worst_gap:.2e} (<= 1e-6), "
        f"max scaled residual {worst_grad:.2e} (<= 1e-8), {elapsed:.1f}s (<= 5s)",
    )


def test_embedding_step_attains_spectrum_sum():
    # the orthonormal minimizer of tr(F^T L F) is the bottom eigenvector
    # block, so the attained trace equals the sum of the c smallest
    # eigenvalues
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 31))
        c = int(rng.integers(2, min(5, n - 1) + 1))
        Z = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        L = sp.build_laplacian(Z)
        F, _ = sp.update_embedding(L, c)
        attained = float(np.sum((L @ F) * F))
        target = float(np.linalg.eigvalsh(L)[:c].sum())
        worst = max(worst, abs(attained - target))
    ok = worst <= 1e-8
    report(
        "embedding step attains the spectral lower bound",
        ok,
        f"max |tr(F^T L F) - sum of c smallest eigenvalues| {worst:.2e} (<= 1e-8)",
    )


def test_zero_eigenvalue_multiplicity_equals_components():
    rng = np.random.default_rng(2)
    checked = 0
    for c in (2, 3, 5):
        for _ in range(5):
            sizes = rng.integers(2, 8, size=c)
            n = int(sizes.sum())
            Z = np.zeros((n, n))
            truth = np.empty(n, dtype=int)
            at = 0
            for j, s in enumerate(sizes):
                Z[at : at + s, at : at + s] = rng.random((s, s)) + 0.05
                truth[at : at + s] = j
                at += s
            perm = rng.permutation(n)
            Zp, tp = Z[np.ix_(perm, perm)], truth[perm]

            zero_count = int(
                np.count_nonzero(np.linalg.eigvalsh(sp.build_laplacian(Zp)) < ZERO_EIG_TOL)
            )
            labels, comp = sp.extract_labels(Zp)
            if not (zero_count == c == comp and sp.accuracy(labels, tp) == 1.0):
                report(
                    "zero-eigenvalue multiplicity = component count",
                    False,
                    f"c={c}: zeros={zero_count} components={comp}",
                )
            checked += 1
    report(
        "zero-eigenvalue multiplicity = component count",
        True,
        f"{checked} random block graphs, c in (2, 3, 5)",
    )


def test_weight_update_kkt_conditions():
    rng = np.random.default_rng(3)
    worst_feas = 0.0
    for r in (2, 5, 12):
        for _ in range(100):
            w = sp.update_weights(rng.uniform(0.01, 50.0, size=r))
            worst_feas = max(worst_feas, abs(float(np.sqrt(w).sum()) - 1.0))

    worst_gap = -np.inf
    s = np.linspace(1e-9, 1.0 - 1e-9, 10_000)
    for _ in range(20):
        h = rng.uniform(0.05, 20.0, size=2)
        closed = float(np.dot(sp.update_weights(h), h))
        grid = (s**2 * h[0] + (1.0 - s) ** 2 * h[1]).min()
        worst_gap = max(worst_gap, closed - grid)

    w = sp.update_weights(np.array([1.0, 3.0]))
    exact_err = max(abs(w[0] - 9.0 / 16.0), abs(w[1] - 1.0 / 16.0))

    ok = worst_feas <= 1e-12 and worst_gap <= 1e-6 and exact_err <= 1e-15
    report(
        "weight update satisfies the stationarity conditions",
        ok,
        f"max |sum sqrt(w) - 1| {worst_feas:.2e} (<= 1e-12), "
        f"closed-form minus 1e4-point grid minimum {worst_gap:.2e} (<= 1e-6), "
        f"h=(1,3) error {exact_err:.2e} (<= 1e-15)",
    )


def test_kernel_bank_contract():
    rng = np.random.default_rng(4)
    X = sp.Dataset(rng.standard_normal((4, 30)))
    bank = sp.build_standard_bank(X)

    families = tuple(K.spec.family for K in bank)
    order_ok = (
        len(bank) == 12
        and families == ("gaussian",) * 7 + ("polynomial",) * 4 + ("linear",)
        and tuple(K.spec.t for K in bank[:7]) == sp.GAUSSIAN_T_GRID
        and tuple((K.spec.a, K.spec.b) for K in bank[7:11]) == sp.POLYNOMIAL_AB_GRID
    )
    range_ok = all(
        K.values.min() == 0.0 and K.values.max() == 1.0 for K in bank
    )

    min_eig = np.inf
    for _ in range(10):
        n = int(rng.integers(5, 51))
        Y = sp.Dataset(rng.standard_normal((3, n)))
        t = float(rng.choice(sp.GAUSSIAN_T_GRID))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(sp.gaussian_kernel(Y, t).values).min()))

    ok = order_ok and range_ok and min_eig >= -1e-8
    report(
        "kernel bank layout and conditioning",
        ok,
        f"12 kernels in documented order: {order_ok}, entries in [0,1]: {range_ok}, "
        f"min gaussian eigenvalue {min_eig:.2e} (>= -1e-8)",
    )


def test_metric_oracles():
    same = [0, 1, 1, 2, 0]
    identical_ok = (
        sp.accuracy(same, same) == 1.0
        and sp.nmi(same, same) == 1.0
        and sp.purity(same, same) == 1.0
    )

    def exhaustive(pred, truth):
        k = int(max(pred.max(), truth.max())) + 1
        best = 0
        for perm in itertools.permutations(range(k)):
            best = max(best, int(np.sum(np.array(perm)[pred] == truth)))
        return best / pred.size

    rng = np.random.default_rng(5)
    hungarian_ok = True
    for _ in range(100):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(k, 25))
        pred = np.concatenate([np.arange(k), rng.integers(0, k, n)])
        truth = np.concatenate([np.arange(k), rng.integers(0, k, n)])
        rng.shuffle(pred)
        if abs(sp.accuracy(pred, truth) - exhaustive(pred, truth)) > 1e-12:
            hungarian_ok = False
            break

    independent_ok = sp.nmi([0, 1, 0, 1], [0, 0, 1, 1]) == 0.0

    X = sp.generate_two_moons(300, noise_sigma=0.08, seed=0)
    km = sp.accuracy(sp.lloyd_kmeans(X, 2, seed=0).labels, X.labels)
    band_ok = 0.60 <= km <= 0.85

    ok = identical_ok and hungarian_ok and independent_ok and band_ok
    report(
        "metric oracles",
        ok,
        f"identical=1.0: {identical_ok}, matches exhaustive bijection: {hungarian_ok}, "
        f"independent case NMI=0: {independent_ok}, k-means moons Acc {km:.4f} in [0.60, 0.85]",
    )


def test_multi_kernel_degeneracies():
    X = sp.generate_two_moons(80, noise_sigma=0.06, seed=1)
    # raw gaussian kernel is PSD, so at alpha = 1 every kernel cost stays
    # nonnegative and the bank path cannot abort
    K = sp.gaussian_kernel(X, 0.05)

    r = 4
    bank = [sp.KernelMatrix(K.values.copy()) for _ in range(r)]
    cfg1 = sp.SpcConfig(alpha=1.0, beta=5.0, gamma=1.0, clusters=2, max_iters=1, seed=0)
    _, state = sp.run_mspc(bank, cfg1)
    uniform_ok = bool(np.allclose(state.weights, np.full(r, 1.0 / r**2), atol=1e-12))

    cfg = sp.SpcConfig(
        alpha=1.0, beta=0.5, gamma=3.0, clusters=2, adapt_beta=True, seed=0
    )
    plain = sp.run_spc(K, cfg)
    multi, _ = sp.run_mspc([K], cfg)
    single_ok = (
        np.array_equal(plain.labels, multi.labels)
        and np.array_equal(plain.graph, multi.graph)
        and plain.trace.objective == multi.trace.objective
    )

    ok = uniform_ok and single_ok
    report(
        "multi-kernel degeneracies",
        ok,
        f"identical kernels -> uniform 1/r^2 weights: {uniform_ok}, "
        f"single-kernel bank reproduces the plain run bit for bit: {single_ok}",
    )


def test_report_determinism(tmp_path):
    views = []
    for _ in range(2):
        cfg = ExperimentConfig(
            source="moons:n=60,noise=0.06,seed=1",
            kernel="gaussian:0.01",
            mode="spc",
            alpha=4.0,
            beta=0.125,
            gamma=1.0,
            clusters=2,
            adapt_beta=True,
            out=str(tmp_path / "run"),
        )
        sp.run_experiment(cfg)
        with open(tmp_path / "run" / "report.txt") as fh:
            view = dataclasses.asdict(RunReport.from_text(fh.read()))
        del view["timings"], view["trace"]["wall_time"]  # the report's clock readings
        views.append(json.dumps(view))
    ok = views[0] == views[1]
    report(
        "run-to-run report determinism",
        ok,
        "identical config and seed give identical reports outside [timings]",
    )
