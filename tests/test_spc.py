import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

import spclust as sp
import spclust.spc as spc_module
from spclust.numerics import gram_upper, product, symmetric_eigen
from spclust.spc import ZERO_EIG_TOL, init_graph

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
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        small_config(seed=-1)
    for field, value in (("max_iters", 2.5), ("adapt_beta", "false"), ("alpha", "4"), ("clusters", True)):
        with pytest.raises(ValueError, match=field):
            small_config(**{field: value})
    # an infinite setting is refused up front, not left to overflow in the loop
    for field in ("alpha", "beta", "gamma", "rel_tol"):
        for value in (float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"{field!r} must be finite"):
                small_config(**{field: value})
    # an integer too large for a float is refused the same way, naming the field
    with pytest.raises(ValueError, match="'alpha' must be finite, got an integer too large for a float"):
        sp.SpcConfig(alpha=10**400, beta=1.0, gamma=1.0, clusters=2)
    # alpha = 1 is the no-preservation variant and is allowed
    small_config(alpha=1.0)
    # numpy scalars pass, float fields are stored as float and int fields as int
    cfg = small_config(alpha=np.float64(3.0), gamma=2, clusters=np.int64(3), max_iters=np.int64(5))
    assert (cfg.alpha, cfg.gamma, cfg.clusters, cfg.max_iters) == (3.0, 2.0, 3, 5)
    assert type(cfg.gamma) is float
    assert type(cfg.clusters) is int and type(cfg.max_iters) is int


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


def test_laplacian_keeps_positive_zeros():
    # the off-diagonal entries are 0 - W, so where Z + Z' is zero the Laplacian
    # holds +0.0, byte for byte as diag(colsums(W)) - W; -W would give -0.0,
    # whose sign the eigensolver's Householder step reads
    rng = np.random.default_rng(10)
    n = 12
    Z = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
    Z[3, :] = Z[:, 3] = 0.0  # an isolated vertex
    L = sp.build_laplacian(Z)
    zeros = (Z + Z.T == 0) & ~np.eye(n, dtype=bool)
    assert zeros.any() and not np.signbit(L[zeros]).any()
    W = 0.5 * (Z + Z.T)
    assert L.tobytes() == (np.diag(W.sum(axis=0)) - W).tobytes()


def test_embedding_is_orthonormal_and_spans_bottom_spectrum():
    rng = np.random.default_rng(1)
    Z = rng.random((15, 15))
    L = sp.build_laplacian(Z)
    for c in (2, 3, 5):
        F, _ = sp.update_embedding(L, c)
        assert F.shape == (15, c)
        assert np.allclose(F.T @ F, np.eye(c), atol=1e-10)
        w = np.linalg.eigvalsh(L)
        assert np.sum((L @ F) * F) == pytest.approx(w[:c].sum(), abs=1e-8)
    with pytest.raises(ValueError, match="eigenvectors"):
        sp.update_embedding(L, 16)


def permuted_blocks(rng, sizes):
    """A nonnegative graph of dense blocks of the given sizes, rows and columns shuffled alike."""
    n = sum(sizes)
    Z = np.zeros((n, n))
    at = 0
    for size in sizes:
        Z[at : at + size, at : at + size] = rng.random((size, size)) + 0.1
        at += size
    perm = rng.permutation(n)
    return Z[np.ix_(perm, perm)]


def record_eigensolves(monkeypatch):
    """Collect the eigenpair count of every symmetric_eigen call the F-step makes."""
    calls = []

    def recording(A, count=None):
        calls.append(count)
        return symmetric_eigen(A, count)

    monkeypatch.setattr(spc_module, "symmetric_eigen", recording)
    return calls


def test_embedding_counts_the_near_zero_eigenvalues():
    # the count is the number of eigenvalues below ZERO_EIG_TOL * the
    # largest degree among the c+1 smallest, whichever way it is found
    rng = np.random.default_rng(11)
    graphs = [rng.random((15, 15))] + [
        permuted_blocks(rng, sizes)
        for sizes in ([9, 6], [1, 8, 6], [3, 1, 5, 1, 5], [1, 1, 1, 6, 6])
    ]
    for Z in graphs:
        L = sp.build_laplacian(Z)
        w = np.linalg.eigvalsh(L)
        for c in (2, 3, 5):
            _, count = sp.update_embedding(L, c)
            assert count == int(np.count_nonzero(w[: c + 1] < ZERO_EIG_TOL * L.diagonal().max()))
    # with c = n there is no (c+1)-th eigenvalue, so all n are counted
    for Z, zeros in ((rng.random((15, 15)), 1), (np.zeros((15, 15)), 15)):
        F, count = sp.update_embedding(sp.build_laplacian(Z), 15)
        assert F.shape == (15, 15) and count == zeros


def test_embedding_read_off_c_components_spans_the_eigensolvers_subspace(monkeypatch):
    rng = np.random.default_rng(12)
    calls = record_eigensolves(monkeypatch)
    for sizes in ([9, 6], [1, 8, 6], [3, 1, 5, 1, 5]):
        L = sp.build_laplacian(permuted_blocks(rng, sizes))
        c = len(sizes)
        F, count = sp.update_embedding(L, c)
        assert not calls and count == c
        assert np.allclose(F.T @ F, np.eye(c), rtol=0, atol=1e-15)
        V = symmetric_eigen(L, c).vectors
        assert np.allclose(F @ F.T, V @ V.T, rtol=0, atol=1e-12)


def test_embedding_falls_back_to_the_eigensolver(monkeypatch):
    rng = np.random.default_rng(13)
    calls = record_eigensolves(monkeypatch)
    # three components, but c - 3 above _LANCZOS_MAX_WANTED
    L = sp.build_laplacian(permuted_blocks(rng, [4, 5, 6]))
    c = 4 + spc_module._LANCZOS_MAX_WANTED
    F, count = sp.update_embedding(L, c)
    assert calls == [c + 1] and count == 3
    assert np.array_equal(F, symmetric_eigen(L, c + 1).vectors[:, :c])
    # two components, but a 1e-12 edge joins two blocks, so the third
    # eigenvalue is near zero too and the Cholesky check refuses the shortcut
    calls.clear()
    Z = np.zeros((15, 15))
    for lo, hi in ((0, 4), (4, 9), (9, 15)):
        Z[lo:hi, lo:hi] = rng.random((hi - lo, hi - lo)) + 0.1
    Z[0, 4] = 1e-12
    L = sp.build_laplacian(Z)
    assert spc_module._components(L != 0)[1] == 2
    F, count = sp.update_embedding(L, 2)
    assert calls == [3] and count == 3


def record_factorizations(monkeypatch):
    """Collect whether every shifted factorization of the F-step succeeded."""
    factorized = []
    shifted_factor = spc_module._shifted_factor

    def recording(*args):
        factor = shifted_factor(*args)
        factorized.append(factor is not None)
        return factor

    monkeypatch.setattr(spc_module, "_shifted_factor", recording)
    return factorized


def bridged_blocks(rng, n, c, k, bridge):
    """c dense blocks on n shuffled samples, the first c-k+1 chained by single edges of weight bridge.

    With a positive bridge the graph has k components; with bridge 0, c.
    """
    cuts = np.sort(rng.choice(np.arange(10, n - 10), c - 1, replace=False))
    bounds = np.concatenate([[0], cuts, [n]])
    Z = np.zeros((n, n))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        Z[lo:hi, lo:hi] = rng.random((hi - lo, hi - lo)) + 0.1
    for b in range(1, c - k + 1):
        Z[rng.integers(bounds[b - 1], bounds[b]), rng.integers(bounds[b], bounds[b + 1])] = bridge
    perm = rng.permutation(n)
    return Z[np.ix_(perm, perm)]


def test_embedding_takes_the_indicators_of_more_than_c_components(monkeypatch):
    # with k > c components F is the normalized indicators of the c-1
    # largest (a tie goes to the component of the first sample) and of the
    # union of the rest, built by hand here; the count is c+1 at any scale,
    # with no factorization and no eigensolve
    rng = np.random.default_rng(19)
    eigensolves = record_eigensolves(monkeypatch)
    factorized = record_factorizations(monkeypatch)
    sizes = [120, 70, 30, 110, 70]
    block = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    Z = (block[:, None] == block[None, :]) * (rng.random((len(block), len(block))) + 0.1)
    first = [np.flatnonzero(block == b)[0] for b in range(len(sizes))]
    order = sorted(range(len(sizes)), key=lambda b: (-sizes[b], first[b]))
    for c in (2, 3, 4):
        want = np.zeros((len(block), c))
        for j in range(c):
            members = np.isin(block, order[j:] if j == c - 1 else [order[j]])
            want[members, j] = 1.0 / np.sqrt(np.count_nonzero(members))
        for scale in (1e-9, 1.0, 1e9):
            L = sp.build_laplacian(Z * scale)
            F, count = sp.update_embedding(L, c)
            assert count == c + 1 and F.tobytes() == want.tobytes()
            again, again_count = sp.update_embedding(L, c)
            assert again.tobytes() == F.tobytes() and again_count == count
            assert np.abs(L @ F).max() <= 1e-13 * L.diagonal().max()
    assert not eigensolves and not factorized


def record_lanczos(monkeypatch):
    """Collect what every Lanczos run of the F-step returned, None where it gave up."""
    runs = []
    lanczos = spc_module._shift_invert_lanczos

    def recording(*args):
        runs.append(lanczos(*args))
        return runs[-1]

    monkeypatch.setattr(spc_module, "_shift_invert_lanczos", recording)
    return runs


def assert_spans_the_eigensolvers_subspace(L, c, F, count):
    eig = symmetric_eigen(L, c + 1)
    assert count == int(np.count_nonzero(eig.values < ZERO_EIG_TOL * L.diagonal().max()))
    assert np.allclose(F.T @ F, np.eye(c), rtol=0, atol=1e-12)
    V = eig.vectors[:, :c]
    assert np.allclose(F @ F.T, V @ V.T, rtol=0, atol=1e-10)


def test_embedding_by_lanczos_matches_the_eigensolver(monkeypatch):
    # a graph with k < c components takes its indicators and the c-k next
    # eigenvectors from shift-invert Lanczos, with no eigensolve, to the
    # eigensolver's count and subspace
    rng = np.random.default_rng(15)
    n = 400
    eigensolves = record_eigensolves(monkeypatch)
    runs = record_lanczos(monkeypatch)
    sparse = rng.random((n, n)) * (rng.random((n, n)) < 0.02)
    cases = [(sparse, 2), (sparse, 3)]
    cases += [(bridged_blocks(rng, n, c, k, 1e-2), c) for c in (2, 3, 5) for k in range(1, c)]
    for Z, c in cases:
        L = sp.build_laplacian(Z)
        k = spc_module._components(L != 0)[1]
        F, count = sp.update_embedding(L, c)
        assert k < c and count == k
        assert not eigensolves and runs[-1] is not None and runs[-1].vectors.shape == (n, c - k)
        assert_spans_the_eigensolvers_subspace(L, c, F, count)
        again, again_count = sp.update_embedding(L, c)
        assert again.tobytes() == F.tobytes() and again_count == count
    assert len(runs) == 2 * len(cases)


def test_embedding_by_lanczos_solves_by_two_triangular_solves(monkeypatch):
    # each product with the shifted inverse is two BLAS-2 dtrsv solves on the
    # factor; LAPACK's dpotrs, which runs them through the level-3 dtrsm, is
    # never called, and the graphs above still reach the eigensolver's result
    def refused(*args, **kwargs):
        raise AssertionError("dpotrs was called")

    monkeypatch.setattr(sp.numerics, "dpotrs", refused, raising=False)
    test_embedding_by_lanczos_matches_the_eigensolver(monkeypatch)


def test_embedding_by_lanczos_falls_back_to_the_eigensolver(monkeypatch):
    rng = np.random.default_rng(16)
    n = 400
    eigensolves = record_eigensolves(monkeypatch)
    runs = record_lanczos(monkeypatch)
    factorized = record_factorizations(monkeypatch)
    # more components than c: no factorization and no eigensolve, and the
    # count is c+1
    L = sp.build_laplacian(bridged_blocks(rng, n, 5, 5, 0.0))
    F, count = sp.update_embedding(L, 3)
    assert not eigensolves and not factorized and not runs and count == 4
    # connected through a 1e-12 bridge: lambda_2 is below the near-zero
    # bound, so the factorization fails and Lanczos never runs
    L = sp.build_laplacian(bridged_blocks(rng, n, 2, 1, 1e-12))
    F, count = sp.update_embedding(L, 2)
    assert eigensolves == [3] and factorized == [False] and not runs and count == 2
    # the solver's near-complete initial graph (lambda_2/lambda_3 about
    # 0.999) needs several restarts, so with a cap of one ARPACK gives up
    L = sp.build_laplacian(init_graph(n, 0))
    with monkeypatch.context() as patch:
        patch.setattr(sp.numerics, "_LANCZOS_RESTARTS", 1)
        F, count = sp.update_embedding(L, 2)
    assert eigensolves == [3, 3] and factorized == [False, True] and runs == [None] and count == 1
    assert np.array_equal(F, symmetric_eigen(L, 3).vectors[:, :2])
    # at any order a graph with fewer than c components takes Lanczos
    L = sp.build_laplacian(bridged_blocks(rng, n - 1, 3, 1, 1e-2))
    F, count = sp.update_embedding(L, 3)
    assert eigensolves == [3, 3] and factorized == [False, True, True] and runs[-1] is not None and count == 1
    assert_spans_the_eigensolvers_subspace(L, 3, F, count)
    # ARPACK's own estimates pass at 1e-17, but no true residual of a
    # computed vector gets that far below rounding, so the vectors are refused
    converged = []
    eigsh = sp.numerics.eigsh

    def recording_eigsh(*args, **kwargs):
        result = eigsh(*args, **kwargs)
        converged.append(True)
        return result

    L = sp.build_laplacian(bridged_blocks(rng, n, 3, 1, 1e-2))
    with monkeypatch.context() as patch:
        patch.setattr(sp.numerics, "eigsh", recording_eigsh)
        patch.setattr(sp.numerics, "_LANCZOS_RESIDUAL", 1e-17)
        F, count = sp.update_embedding(L, 3)
    assert converged == [True] and runs[-1] is None and len(runs) == 3 and count == 1
    assert eigensolves == [3, 3, 4] and factorized == [False, True, True, True]
    assert np.array_equal(F, symmetric_eigen(L, 4).vectors[:, :3])


def test_embedding_by_lanczos_solves_the_initial_graph(monkeypatch):
    # the solver's random initial graph has lambda_2/lambda_3 of 0.997-0.999;
    # ARPACK's restarts get there with no eigensolve
    eigensolves = record_eigensolves(monkeypatch)
    runs = record_lanczos(monkeypatch)
    for n in (400, 1000):
        L = sp.build_laplacian(init_graph(n, 0))
        F, count = sp.update_embedding(L, 2)
        assert not eigensolves and runs[-1] is not None and count == 1
        assert_spans_the_eigensolvers_subspace(L, 2, F, count)
        again, again_count = sp.update_embedding(L, 2)
        assert again.tobytes() == F.tobytes() and again_count == count


def test_embedding_by_lanczos_finds_many_eigenvectors(monkeypatch):
    # c - k = 2 and _LANCZOS_MAX_WANTED wanted eigenvectors on a connected
    # graph: the Krylov dimension grows with their number
    rng = np.random.default_rng(15)
    n = 400
    eigensolves = record_eigensolves(monkeypatch)
    runs = record_lanczos(monkeypatch)
    L = sp.build_laplacian(rng.random((n, n)) * (rng.random((n, n)) < 0.02))
    for c in (3, spc_module._LANCZOS_MAX_WANTED + 1):
        F, count = sp.update_embedding(L, c)
        assert not eigensolves and runs[-1] is not None and runs[-1].vectors.shape == (n, c - 1)
        assert_spans_the_eigensolvers_subspace(L, c, F, count)


def test_embedding_sends_many_wanted_eigenvectors_to_the_eigensolver(monkeypatch):
    # past _LANCZOS_MAX_WANTED eigenvectors beyond the components one
    # eigensolve is faster than Lanczos, so it runs alone
    rng = np.random.default_rng(15)
    n = 400
    eigensolves = record_eigensolves(monkeypatch)
    runs = record_lanczos(monkeypatch)
    L = sp.build_laplacian(rng.random((n, n)) * (rng.random((n, n)) < 0.02))
    c = spc_module._LANCZOS_MAX_WANTED + 2
    F, count = sp.update_embedding(L, c)
    assert eigensolves == [c + 1] and not runs and count == 1
    assert_spans_the_eigensolvers_subspace(L, c, F, count)


def test_embedding_by_lanczos_passes_over_the_components_of_a_near_complete_graph(monkeypatch):
    # two complete blocks joined by slightly lighter edges: lambda_2 = n - 1
    # lies above every degree (n - 1.5), so the components' directions would
    # come first in the shifted inverse unless the shift on them exceeds ||L||
    n = 400
    Z = np.full((n, n), 1.0 - 1.0 / n)
    Z[: n // 2, : n // 2] = Z[n // 2 :, n // 2 :] = 1.0
    np.fill_diagonal(Z, 0.0)
    perm = np.random.default_rng(18).permutation(n)
    L = sp.build_laplacian(Z[np.ix_(perm, perm)])
    assert symmetric_eigen(L, 2).values[1] > L.diagonal().max()
    eigensolves = record_eigensolves(monkeypatch)
    F, count = sp.update_embedding(L, 2)
    assert not eigensolves and count == 1
    assert_spans_the_eigensolvers_subspace(L, 2, F, count)


def test_embedding_by_lanczos_counts_the_components_at_any_scale(monkeypatch):
    # two blocks joined by weak bridges: connected, so L has one zero
    # eigenvalue. Scaled by 1e9, evr's rounding puts it far above the
    # absolute ZERO_EIG_TOL; scaled by 1e-12, lambda_2 lies far below it.
    # The near-zero bound and the shift follow the largest degree, so the
    # factorization certifies the one component at every scale, and without
    # the bridges the two, with no eigensolve
    rng = np.random.default_rng(17)
    n = 600
    eigensolves = record_eigensolves(monkeypatch)
    Z = permuted_blocks(rng, [n // 2, n // 2])
    labels = spc_module._components(Z > 0)[0]
    blocks = np.zeros((n, 2))
    blocks[np.arange(n), labels] = 1.0 / np.sqrt(n // 2)
    bridged = Z.copy()
    bridged[rng.integers(0, n, 10), rng.integers(0, n, 10)] = 1e-3
    assert spc_module._components(bridged > 0)[1] == 1
    for scale in (1e-12, 1.0, 1e6, 1e9):
        L = sp.build_laplacian(bridged * scale)
        F, count = sp.update_embedding(L, 2)
        assert count == 1 and not eigensolves
        V = symmetric_eigen(L, 2).vectors
        assert np.allclose(F @ F.T, V @ V.T, rtol=0, atol=1e-10)
        F, count = sp.update_embedding(sp.build_laplacian(Z * scale), 2)
        assert count == 2 and not eigensolves and F.tobytes() == blocks.tobytes()
    assert symmetric_eigen(L, 3).values[0] > ZERO_EIG_TOL


def test_embedding_by_lanczos_at_small_orders(monkeypatch):
    # Lanczos runs at every order: connected graphs of order 2 to 24 with c
    # up to 1 + _LANCZOS_MAX_WANTED reach the eigensolver's count and
    # subspace, and a warning would fail the test. At order 2 the second
    # eigenvalue is 2 * the degree, the shift, so ARPACK's pair is refused
    # and evr runs
    rng = np.random.default_rng(20)
    eigensolves = record_eigensolves(monkeypatch)
    for n in range(2, 25):
        for density in (1.0, 0.3):
            Z = rng.random((n, n)) * (rng.random((n, n)) < density) + np.eye(n, k=1)
            L = sp.build_laplacian(Z)
            for c in range(2, min(n, 1 + spc_module._LANCZOS_MAX_WANTED) + 1):
                F, count = sp.update_embedding(L, c)
                assert_spans_the_eigensolvers_subspace(L, c, F, count)
                assert count == 1 and (not eigensolves or n == 2), (n, density, c)
                eigensolves.clear()


def test_components_match_scipy():
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(14)
    n = 40
    perm = rng.permutation(n)
    chain = np.eye(n, k=1, dtype=bool)[np.ix_(perm, perm)]
    sparse = rng.random((n, n)) < 0.03
    singletons = np.zeros((n, n), dtype=bool)
    singletons[5:20, 5:20] = singletons[30:, 30:] = True
    masks = {
        "dense": np.ones((n, n), dtype=bool),
        "sparse": sparse | sparse.T,
        "chain": chain | chain.T,
        "singletons": singletons,
        "empty": np.zeros((n, n), dtype=bool),
    }
    for name, mask in masks.items():
        want_count, raw = connected_components(csr_array(mask), directed=False)
        labels, count = spc_module._components(mask)
        assert count == want_count, name
        assert np.array_equal(labels, sp.Partition.from_labels(raw).labels), name


# --- closed-form graph step ----------------------------------------------------


def test_graph_column_solves_the_linear_system():
    # every column solves (K + 2 gamma I) z = alpha k - (beta/2) d for the
    # squared embedding distances d
    rng = np.random.default_rng(2)
    n, c, alpha, beta, gamma = 12, 3, 3.0, 2.0, 0.7
    K = random_psd_kernel(rng, n)
    A = K + 2 * gamma * np.eye(n)
    inv = sp.numerics.spd_inverse(sp.spd_factorize(A))
    F = rng.standard_normal((n, c))
    D = ((F[:, None, :] - F[None, :, :]) ** 2).sum(axis=2)
    Z = sp.update_graph(inv, F, alpha, beta, gamma)
    assert np.allclose(A @ Z[:, 0], alpha * K[0] - 0.5 * beta * D[:, 0], rtol=0, atol=1e-10)
    assert np.allclose(A @ Z, alpha * K - 0.5 * beta * D, rtol=0, atol=1e-10)
    for bad_inv, bad_F in ((inv[:, :5], F), (inv, F[:5]), (inv, F[:, 0])):
        with pytest.raises(ValueError, match="rows"):
            sp.update_graph(bad_inv, bad_F, alpha, beta, gamma)


def test_graph_column_without_distance_pull():
    # zero embedding distances leave the pure ridge-regression pull
    rng = np.random.default_rng(3)
    n = 8
    K = random_psd_kernel(rng, n)
    A = K + 2 * np.eye(n)
    inv = sp.numerics.spd_inverse(sp.spd_factorize(A))
    Z = sp.update_graph(inv, np.zeros((n, 2)), 2.0, 1.0, 1.0)
    expect = np.linalg.solve(A, 2.0 * K[2])
    assert np.allclose(Z[:, 2], expect, atol=1e-10)
    assert np.allclose(Z, np.linalg.solve(A, 2.0 * K), atol=1e-10)


@pytest.mark.parametrize("n", [130, 40])
def test_blocked_updates_equal_the_plain_expressions_bit_for_bit(n):
    # the graph step adds -2*gamma*alpha*A^{-1} and kernel_costs subtracts
    # 2*alpha*Z in 64-row blocks (two full blocks and a partial one at n=130,
    # one partial block at n=40); per entry that is the plain expression's
    # multiply-then-add, so the bits must be the same
    rng = np.random.default_rng(n)
    alpha, beta, gamma, c = 3.7, 0.9, 1.3, 3
    inv = rng.standard_normal((n, n))
    F = rng.standard_normal((n, c))
    s = np.sum(F * F, axis=1)
    ones = np.ones(n)
    solved = product(inv, np.column_stack([s, ones, F]))
    weights = np.concatenate([[-0.5 * beta, -0.5 * beta], np.full(c, beta)])
    P = product(solved * weights, np.column_stack([ones, s, F]), trans_b=True)
    expect = P + (-2.0 * gamma * alpha) * inv
    expect.flat[:: n + 1] += alpha
    got = sp.update_graph(inv, F, alpha, beta, gamma)
    assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))

    Z = rng.standard_normal((n, n))
    bank = [sp.KernelMatrix(random_psd_kernel(rng, n)) for _ in range(3)]
    M = gram_upper(Z) * 2.0
    M.flat[:: n + 1] *= 0.5
    M = M - 2.0 * alpha * Z
    expect = [np.trace(Ki.values) + spc_module._inner(Ki.values, M) for Ki in bank]
    assert np.array_equal(sp.kernel_costs(bank, Z, alpha).view(np.uint64), np.array(expect).view(np.uint64))


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
    F, _ = sp.update_embedding(sp.build_laplacian(Z), 3)
    cfg = small_config(alpha=2.5, beta=1.5, gamma=0.3, clusters=3)
    L = sp.build_laplacian(Z)
    expect = (
        0.5 * (np.trace(K) + np.trace(Z.T @ K @ Z))
        - cfg.alpha * np.trace(K @ Z)
        + cfg.beta * np.trace(F.T @ L @ F)
        + cfg.gamma * np.sum(Z * Z)
    )
    assert sp.objective(K, Z, F, cfg) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("c", [2, 3, 5])
def test_spectral_term_matches_the_laplacian_form(c):
    # the loop's spectral term, from one product of Z with [s, 1, F], is the
    # tr(F'LF) that objective forms, on a non-symmetric Z with exact zeros
    rng = np.random.default_rng(19)
    n = 60
    Z = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
    F = np.linalg.qr(rng.standard_normal((n, c)))[0]
    s = np.sum(F * F, axis=1)
    expect = np.sum(product(sp.build_laplacian(Z), F) * F)
    assert spc_module._spectral(Z, F, s) == pytest.approx(expect, rel=1e-12)


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
        steps.append(Z)
        return sp.project_nonneg(Z)

    monkeypatch.setattr(spc_module, "project_nonneg", recording)
    return steps


def record_embedding_steps(monkeypatch):
    """Collect the (F, count) of every F-step the solver loop takes."""
    steps = []

    def recording(L, c):
        steps.append(sp.update_embedding(L, c))
        return steps[-1]

    monkeypatch.setattr(spc_module, "update_embedding", recording)
    return steps


def test_loop_takes_one_embedding_step_per_iteration(monkeypatch):
    # update_embedding is the loop's only F-step: one call per iteration, and
    # the trace records the near-zero count it returns
    steps = record_embedding_steps(monkeypatch)
    X = blob_dataset()
    cfg = sp.SpcConfig(alpha=1.0, beta=0.5, gamma=3.0, clusters=2, adapt_beta=True, seed=0)
    spc_result = sp.run_spc(sp.gaussian_kernel(X, 1.0), cfg)
    spc_steps = list(steps)
    steps.clear()
    mspc_result, _ = sp.run_mspc(sp.build_standard_bank(X), cfg)
    for result, taken in ((spc_result, spc_steps), (mspc_result, steps)):
        t = result.trace
        assert t.iterations > 1 and len(taken) == t.iterations
        assert t.near_zero_eigs == [count for _, count in taken]
        assert result.embedding is taken[-1][0]


def test_loop_takes_one_graph_step_per_iteration(monkeypatch):
    # update_graph is the loop's only Z-step: one call per iteration, and
    # what it returns is the array the loop projects
    graphs = []

    def recording(inv, F, alpha, beta, gamma):
        graphs.append(sp.update_graph(inv, F, alpha, beta, gamma))
        return graphs[-1]

    monkeypatch.setattr(spc_module, "update_graph", recording)
    projected = record_graph_steps(monkeypatch)
    X = blob_dataset()
    cfg = sp.SpcConfig(alpha=1.0, beta=0.5, gamma=3.0, clusters=2, adapt_beta=True, seed=0)
    for run in (
        lambda: sp.run_spc(sp.gaussian_kernel(X, 1.0), cfg),
        lambda: sp.run_mspc(sp.build_standard_bank(X), cfg)[0],
    ):
        graphs.clear()
        projected.clear()
        t = run().trace
        assert t.iterations > 1 and len(graphs) == len(projected) == t.iterations
        assert all(Z is P for Z, P in zip(graphs, projected))


def assert_last_iteration_matches_reference(K, Z_prev, Z_unproj, result, cfg):
    """The loop's last graph step against a dense solve, its objectives against objective."""
    t, F, n = result.trace, result.embedding, K.shape[0]
    cfg_k = replace(cfg, beta=t.beta[-1])
    D = ((F[:, None, :] - F[None, :, :]) ** 2).sum(axis=2)
    expect = np.linalg.solve(K + 2 * cfg.gamma * np.eye(n), cfg.alpha * K - 0.5 * cfg_k.beta * D)
    assert np.linalg.norm(Z_unproj - expect) <= 1e-12 * np.linalg.norm(expect)
    for got, Z in (
        (t.objective_after_embedding[-1], Z_prev),
        (t.objective_after_graph[-1], Z_unproj),
        (t.objective[-1], result.graph),
    ):
        assert got == pytest.approx(sp.objective(K, Z, F, cfg_k), rel=1e-10, abs=0)


def test_loop_arithmetic_matches_reference_functions(monkeypatch):
    # the loop's rank-(c+2) graph step and its identity-based objectives
    # must reproduce a dense solve and objective on the same iterates
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


@pytest.mark.parametrize("solver", ["spc", "mspc"])
def test_loop_memory_budget(solver):
    # beyond the kernel (spc) or the bank (mspc, which sums the bank straight
    # into A and keeps no combined kernel), the loop keeps A^{-1} and Z
    # alive across iterations, plus two n x n transients at a time: the
    # Laplacian and the eigensolver's copy of it (or the copy the F-step
    # factorizes for its read-off or its Lanczos run), or the projected
    # graph and the ZZ' triangle. Iterations 0-4 run ARPACK's Lanczos on 16
    # vectors of n beside the components, and the peak reads 4.23 n^2 for
    # both at n = 300 and 4.17 at n = 400. With evr's copy in the F-step,
    # n = 300 read 4.26 and 4.24; an mSPC loop that kept its combined kernel
    # read 5.24, one that also kept the Cholesky factor and A^{-1}K read
    # 5.26 and 6.24, and one that kept stale bindings and built its sums in
    # whole-matrix temporaries read 8.03 and 9.03
    for n in (300, 400):
        X = sp.generate_two_moons(n, noise_sigma=0.08, seed=0)
        if solver == "spc":
            run, data, budget = sp.run_spc, sp.normalize_kernel(sp.gaussian_kernel(X, 0.01)), 4.5
            cfg = sp.SpcConfig(alpha=4.0, beta=0.125, gamma=1.0, clusters=2, adapt_beta=True, max_iters=5)
        else:
            run, data, budget = sp.run_mspc, sp.build_standard_bank(X), 4.5
            cfg = sp.SpcConfig(alpha=1.0, beta=0.5, gamma=3.0, clusters=2, adapt_beta=True, max_iters=5)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run(data, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - start) / (8 * n * n) <= budget, n


def test_solver_deterministic():
    X = blob_dataset()
    K = sp.gaussian_kernel(X, 1.0)
    cfg = sp.SpcConfig(alpha=3.0, beta=2.0, gamma=0.8, clusters=2, max_iters=20, seed=3)
    r1, r2 = sp.run_spc(K, cfg), sp.run_spc(K, cfg)
    assert np.array_equal(r1.labels, r2.labels)
    assert np.array_equal(r1.graph, r2.graph)
    assert r1.trace.objective == r2.trace.objective


def test_bare_array_and_kernel_matrix_give_the_same_run():
    # a KernelMatrix enters as it is and a bare copy of its (exactly
    # symmetric) values is symmetrized once, to the same bits
    X = blob_dataset()
    K = sp.gaussian_kernel(X, 1.0)
    cfg = sp.SpcConfig(alpha=3.0, beta=2.0, gamma=0.8, clusters=2, max_iters=20, seed=3)
    r1, r2 = sp.run_spc(K, cfg), sp.run_spc(K.values.copy(), cfg)
    assert np.array_equal(r1.labels, r2.labels)
    assert np.array_equal(r1.graph.view(np.uint64), r2.graph.view(np.uint64))
    for f in fields(r1.trace):
        if f.name != "wall_time":
            assert getattr(r1.trace, f.name) == getattr(r2.trace, f.name), f.name


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


def test_alpha_scales_the_graph_of_the_run_at_beta_over_alpha():
    # the Z-subproblem is homogeneous, Z*(alpha, beta) = alpha Z*(1, beta/alpha), and the
    # F-step, the stop test and the labels ignore Z's scale; alpha = 4 scales exactly
    X = sp.generate_two_moons(300, 0.08, seed=0)
    K = sp.normalize_kernel(sp.gaussian_kernel(X, 0.01))
    base = dict(gamma=1.0, clusters=2, max_iters=300, adapt_beta=True, seed=0)
    r4 = sp.run_spc(K, sp.SpcConfig(alpha=4.0, beta=0.125, **base))
    r1 = sp.run_spc(K, sp.SpcConfig(alpha=1.0, beta=0.03125, **base))
    assert np.array_equal(r4.labels, r1.labels)
    assert r4.trace.iterations == r1.trace.iterations
    assert [b / 4 for b in r4.trace.beta] == r1.trace.beta
    assert np.abs(r4.graph - 4 * r1.graph).max() == 0


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
