from dataclasses import replace

import numpy as np
import pytest

import spclust as sp
import spclust.spc as spc_module
from spclust.spc import init_graph

PATH3_LAPLACIAN = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])


def small_config(**kw):
    base = dict(alpha=2.0, beta=1.0, gamma=1.0, clusters=2)
    base.update(kw)
    return sp.SpcConfig(**base)


def random_psd_kernel(rng, n):
    B = rng.standard_normal((n, n))
    K = B @ B.T
    return K / np.abs(K).max()


# --- configuration -----------------------------------------------------------


def test_config_validation():
    for alpha in (0.5, float("nan")):
        with pytest.raises(ValueError, match="alpha"):
            small_config(alpha=alpha)
    with pytest.raises(ValueError, match="beta"):
        small_config(beta=0.0)
    with pytest.raises(ValueError, match="gamma"):
        small_config(gamma=-1.0)
    with pytest.raises(ValueError, match="clusters"):
        small_config(clusters=1)
    with pytest.raises(ValueError, match="max_iters"):
        small_config(max_iters=0)
    with pytest.raises(ValueError, match="rel_tol"):
        small_config(rel_tol=0.0)
    for field, value in (("max_iters", 2.5), ("adapt_beta", "false"), ("alpha", "4"), ("clusters", True)):
        with pytest.raises(ValueError, match=field):
            small_config(**{field: value})
    # alpha = 1 is the no-preservation variant and is allowed
    small_config(alpha=1.0)
    # numpy scalars pass, and float fields are stored as float
    cfg = small_config(alpha=np.float64(3.0), gamma=2, clusters=np.int64(3), max_iters=np.int64(5))
    assert (cfg.alpha, cfg.gamma, cfg.clusters, cfg.max_iters) == (3.0, 2.0, 3, 5)
    assert type(cfg.gamma) is float


# --- laplacian and embedding --------------------------------------------------


def test_laplacian_of_path_graph():
    adj = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    assert np.array_equal(sp.build_laplacian(adj), PATH3_LAPLACIAN)


def test_laplacian_symmetrizes_and_rows_sum_to_zero():
    rng = np.random.default_rng(0)
    for _ in range(5):
        Z = rng.random((10, 10))
        L = sp.build_laplacian(Z)
        assert np.array_equal(L, L.T)
        assert np.allclose(L.sum(axis=1), 0.0, atol=1e-12)
        assert np.linalg.eigvalsh(L).min() >= -1e-10


def test_embedding_is_orthonormal_and_spans_bottom_spectrum():
    rng = np.random.default_rng(1)
    Z = rng.random((15, 15))
    L = sp.build_laplacian(Z)
    for c in (2, 3, 5):
        F = sp.update_embedding(L, c)
        assert F.shape == (15, c)
        assert np.allclose(F.T @ F, np.eye(c), atol=1e-10)
        w = np.linalg.eigvalsh(L)
        assert np.sum((L @ F) * F) == pytest.approx(w[:c].sum(), abs=1e-8)
    with pytest.raises(ValueError, match="eigenvectors"):
        sp.update_embedding(L, 16)


# --- closed-form graph step ----------------------------------------------------


def test_graph_column_solves_the_linear_system():
    rng = np.random.default_rng(2)
    n = 12
    K = random_psd_kernel(rng, n)
    cfg = small_config(alpha=3.0, beta=2.0, gamma=0.7)
    f = sp.spd_factorize(K + 2 * cfg.gamma * np.eye(n))
    d = rng.random(n)
    z = sp.update_graph_column(f, K[0], d, cfg)
    lhs = (K + 2 * cfg.gamma * np.eye(n)) @ z
    rhs = cfg.alpha * K[0] - 0.5 * cfg.beta * d
    assert np.allclose(lhs, rhs, atol=1e-10)
    # a block of columns is solved at once, as the solver loop does
    D = rng.random((n, n))
    Zb = sp.update_graph_column(f, K, D, cfg)
    columns = [sp.update_graph_column(f, K[:, j], D[:, j], cfg) for j in range(n)]
    assert np.allclose(Zb, np.column_stack(columns), rtol=0, atol=1e-12)
    lhs = (K + 2 * cfg.gamma * np.eye(n)) @ Zb
    assert np.allclose(lhs, cfg.alpha * K - 0.5 * cfg.beta * D, atol=1e-10)
    with pytest.raises(ValueError, match="length"):
        sp.update_graph_column(f, K[0][:5], d, cfg)
    with pytest.raises(ValueError, match="length"):
        sp.update_graph_column(f, K, D[:, :5], cfg)


def test_graph_column_without_distance_pull():
    # zero embedding distances leave the pure ridge-regression pull
    rng = np.random.default_rng(3)
    n = 8
    K = random_psd_kernel(rng, n)
    cfg = small_config(alpha=2.0, gamma=1.0)
    f = sp.spd_factorize(K + 2 * np.eye(n))
    z = sp.update_graph_column(f, K[2], np.zeros(n), cfg)
    expect = np.linalg.solve(K + 2 * np.eye(n), 2.0 * K[2])
    assert np.allclose(z, expect, atol=1e-10)


def test_project_nonneg():
    Z = np.array([[1.0, -2.0], [-0.5, 3.0]])
    P = sp.project_nonneg(Z)
    assert np.array_equal(P, [[1.0, 0.0], [0.0, 3.0]])
    assert Z[0, 1] == -2.0  # input untouched


# --- objective ------------------------------------------------------------------


def test_objective_identity_case():
    # K = Z = I: fit and ridge cancel the preservation term exactly
    n = 5
    cfg = small_config(alpha=2.0, beta=7.0, gamma=1.0)
    F = np.eye(n)[:, :2]
    val = sp.objective(np.eye(n), np.eye(n), F, cfg)
    assert isinstance(val, float)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_objective_matches_termwise_recomputation():
    rng = np.random.default_rng(4)
    n = 9
    K = random_psd_kernel(rng, n)
    Z = rng.random((n, n))
    F = sp.update_embedding(sp.build_laplacian(Z), 3)
    cfg = small_config(alpha=2.5, beta=1.5, gamma=0.3, clusters=3)
    L = sp.build_laplacian(Z)
    expect = (
        0.5 * (np.trace(K) + np.trace(Z.T @ K @ Z))
        - cfg.alpha * np.trace(K @ Z)
        + cfg.beta * np.trace(F.T @ L @ F)
        + cfg.gamma * np.sum(Z * Z)
    )
    assert sp.objective(K, Z, F, cfg) == pytest.approx(expect, rel=1e-12)


# --- component labeling -----------------------------------------------------------


def test_extract_labels_blocks_and_threshold():
    Z = np.zeros((4, 4))
    Z[:2, :2] = 1.0
    Z[2:, 2:] = 1.0
    labels, count = sp.extract_labels(Z)
    assert count == 2
    assert np.array_equal(labels, [0, 0, 1, 1])

    # a tie weaker than the default cutoff does not merge the blocks
    Z[0, 3] = 1e-12
    labels, count = sp.extract_labels(Z)
    assert count == 2
    # with an explicit zero threshold it does
    labels, count = sp.extract_labels(Z, threshold=0.0)
    assert count == 1
    with pytest.raises(ValueError, match="threshold"):
        sp.extract_labels(Z, threshold=-1.0)


def test_extract_labels_first_seen_numbering():
    Z = np.zeros((5, 5))
    Z[0, 3] = Z[3, 0] = 1.0  # samples 0 and 3 together
    labels, count = sp.extract_labels(Z + np.eye(5))
    assert count == 4
    assert np.array_equal(labels, [0, 1, 2, 0, 3])


def test_extract_labels_zero_graph():
    labels, count = sp.extract_labels(np.zeros((3, 3)))
    assert count == 3
    assert np.array_equal(labels, [0, 1, 2])


def test_zero_eigenvalue_multiplicity_matches_components():
    rng = np.random.default_rng(5)
    for c in (2, 3, 5):
        sizes = rng.integers(3, 7, size=c)
        blocks = [rng.random((s, s)) + 0.1 for s in sizes]
        n = int(sizes.sum())
        Z = np.zeros((n, n))
        at = 0
        truth = np.empty(n, dtype=int)
        for j, Bk in enumerate(blocks):
            s = Bk.shape[0]
            Z[at : at + s, at : at + s] = Bk
            truth[at : at + s] = j
            at += s
        perm = rng.permutation(n)
        Zp, tp = Z[np.ix_(perm, perm)], truth[perm]
        w = np.linalg.eigvalsh(sp.build_laplacian(Zp))
        assert int(np.count_nonzero(w < 1e-8)) == c
        labels, count = sp.extract_labels(Zp)
        assert count == c
        assert sp.accuracy(labels, tp) == 1.0


# --- initialization ------------------------------------------------------------


def test_init_graph_column_stochastic_and_seeded():
    Z = init_graph(30, seed=4)
    assert Z.shape == (30, 30)
    assert np.all(Z >= 0.0)
    assert np.allclose(Z.sum(axis=0), 1.0, atol=1e-12)
    assert np.array_equal(Z, init_graph(30, seed=4))
    assert not np.array_equal(Z, init_graph(30, seed=5))


# --- full solver -----------------------------------------------------------------


def blob_dataset():
    rng = np.random.default_rng(7)
    pts = np.concatenate(
        [rng.normal(0.0, 0.3, (2, 20)), rng.normal(5.0, 0.3, (2, 20))], axis=1
    )
    return sp.Dataset(pts, np.repeat([0, 1], 20))


def test_separable_blobs_recovered_exactly():
    X = blob_dataset()
    K = sp.gaussian_kernel(X, 1.0)
    cfg = sp.SpcConfig(
        alpha=4.0, beta=0.125, gamma=1.0, clusters=2, adapt_beta=True, seed=0
    )
    res = sp.run_spc(K, cfg)
    assert res.converged
    assert res.component_count == 2
    assert sp.accuracy(res.labels, X.labels) == 1.0


def test_result_contract_and_trace_shapes():
    X = blob_dataset()
    K = sp.gaussian_kernel(X, 1.0)
    cfg = sp.SpcConfig(alpha=2.0, beta=5.0, gamma=1.0, clusters=2, max_iters=12, seed=1)
    res = sp.run_spc(K, cfg)
    n = X.n_samples
    assert res.graph.shape == (n, n) and np.all(res.graph >= 0.0)
    assert res.embedding.shape == (n, 2)
    assert np.allclose(res.embedding.T @ res.embedding, np.eye(2), atol=1e-10)
    t = res.trace
    m = t.iterations
    assert 1 <= m <= 12
    for series in (
        t.objective,
        t.objective_after_embedding,
        t.objective_after_graph,
        t.rel_change,
        t.near_zero_eigs,
        t.beta,
        t.wall_time,
    ):
        assert len(series) == m
    assert all(isinstance(v, float) for v in t.objective)
    if res.converged:
        assert res.component_count == cfg.clusters


def test_exact_minimization_steps_descend():
    # with beta fixed, the embedding step and the unprojected graph step are
    # exact minimizers, so each must not increase the objective
    rng = np.random.default_rng(8)
    for trial in range(5):
        n = int(rng.integers(12, 25))
        K = random_psd_kernel(rng, n)
        cfg = sp.SpcConfig(
            alpha=float(rng.uniform(1.0, 6.0)),
            beta=float(rng.uniform(0.1, 10.0)),
            gamma=float(rng.uniform(0.3, 2.0)),
            clusters=2,
            max_iters=15,
            seed=trial,
        )
        t = sp.run_spc(K, cfg).trace
        for k in range(t.iterations):
            if k > 0:
                assert t.objective_after_embedding[k] <= t.objective[k - 1] + 1e-8
            assert t.objective_after_graph[k] <= t.objective_after_embedding[k] + 1e-8


def record_graph_steps(monkeypatch):
    """Collect every unprojected graph iterate the solver loop projects."""
    steps = []

    def recording(Z):
        steps.append(np.array(Z))
        return sp.project_nonneg(Z)

    monkeypatch.setattr(spc_module, "project_nonneg", recording)
    return steps


def assert_last_iteration_matches_reference(K, Z_prev, Z_unproj, result, cfg):
    """The loop's last graph step and objectives against the reference functions."""
    t, F, n = result.trace, result.embedding, K.shape[0]
    cfg_k = replace(cfg, beta=t.beta[-1])
    D = ((F[:, None, :] - F[None, :, :]) ** 2).sum(axis=2)
    expect = sp.update_graph_column(sp.spd_factorize(K + 2 * cfg.gamma * np.eye(n)), K, D, cfg_k)
    assert np.linalg.norm(Z_unproj - expect) <= 1e-12 * np.linalg.norm(expect)
    for got, Z in (
        (t.objective_after_embedding[-1], Z_prev),
        (t.objective_after_graph[-1], Z_unproj),
        (t.objective[-1], result.graph),
    ):
        assert got == pytest.approx(sp.objective(K, Z, F, cfg_k), rel=1e-10, abs=0)


def test_loop_arithmetic_matches_reference_functions(monkeypatch):
    # the loop's rank-(c+2) graph step and its identity-based objectives
    # must reproduce update_graph_column and objective on the same iterates
    steps = record_graph_steps(monkeypatch)
    rng = np.random.default_rng(9)
    for trial in range(4):
        n = int(rng.integers(15, 40))
        K = random_psd_kernel(rng, n)
        cfg = sp.SpcConfig(
            alpha=float(rng.uniform(1.0, 6.0)),
            beta=float(rng.uniform(0.1, 10.0)),
            gamma=float(rng.uniform(0.3, 2.0)),
            clusters=int(rng.integers(2, 5)),
            max_iters=1,
            rel_tol=1e-14,
            adapt_beta=bool(trial % 2),
            seed=trial,
        )
        steps.clear()
        first = sp.run_spc(K, cfg)
        assert_last_iteration_matches_reference(K, init_graph(n, cfg.seed), steps[-1], first, cfg)
        steps.clear()
        second = sp.run_spc(K, replace(cfg, max_iters=2))
        assert second.trace.iterations == 2 and len(steps) == 2
        assert_last_iteration_matches_reference(K, first.graph, steps[-1], second, cfg)


def test_solver_deterministic():
    X = blob_dataset()
    K = sp.gaussian_kernel(X, 1.0)
    cfg = sp.SpcConfig(alpha=3.0, beta=2.0, gamma=0.8, clusters=2, max_iters=20, seed=3)
    r1, r2 = sp.run_spc(K, cfg), sp.run_spc(K, cfg)
    assert np.array_equal(r1.labels, r2.labels)
    assert np.array_equal(r1.graph, r2.graph)
    assert r1.trace.objective == r2.trace.objective


def test_adaptive_beta_bookkeeping():
    X = blob_dataset()
    K = sp.gaussian_kernel(X, 1.0)
    cfg = sp.SpcConfig(
        alpha=4.0, beta=0.125, gamma=1.0, clusters=2, adapt_beta=True, seed=0
    )
    t = sp.run_spc(K, cfg).trace
    # doubling happens while the graph is still connected
    assert t.beta[0] == 0.25
    ratios = np.array(t.beta[1:]) / np.array(t.beta[:-1])
    assert set(np.round(ratios, 12)) <= {0.5, 1.0, 2.0}


def test_solver_input_validation():
    cfg = small_config()
    with pytest.raises(ValueError, match="square"):
        sp.run_spc(np.zeros((3, 4)), cfg)
    with pytest.raises(ValueError, match="square"):
        sp.run_spc(np.float64(3.0), cfg)
    with pytest.raises(ValueError, match="clusters"):
        sp.run_spc(np.eye(3), small_config(clusters=4))
    with pytest.raises(sp.FactorizationError):
        # kernel with a large negative eigenvalue and tiny ridge
        K = np.eye(6) - 2.0 * np.ones((6, 6)) / 6.0
        sp.run_spc(K, small_config(gamma=0.05))
