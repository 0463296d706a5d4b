import sys
from dataclasses import fields, replace

import numpy as np
import pytest

import spclust as sp
import spclust.spc as spc_module
from spclust import combine_kernels, kernel_costs, run_mspc, update_weights


def random_bank(rng, n, r):
    out = []
    for _ in range(r):
        B = rng.standard_normal((n, n))
        K = B @ B.T
        out.append(sp.KernelMatrix(K / np.abs(K).max()))
    return out


# --- combining ------------------------------------------------------------------


def test_combine_selects_single_kernel():
    rng = np.random.default_rng(0)
    bank = random_bank(rng, 6, 2)
    H = combine_kernels(bank, [1.0, 0.0])
    assert np.array_equal(H.values, bank[0].values)


def test_combine_uniform_feasible_weights():
    rng = np.random.default_rng(1)
    K = random_bank(rng, 5, 1)[0]
    r = 4
    bank = [sp.KernelMatrix(K.values.copy()) for _ in range(r)]
    # sqrt(w_i) = 1/r is the uniform feasible point; identical kernels give K/r
    H = combine_kernels(bank, np.full(r, 1.0 / r**2))
    assert np.allclose(H.values, K.values / r, atol=1e-15)


def test_combine_two_kernel_average():
    rng = np.random.default_rng(2)
    bank = random_bank(rng, 4, 2)
    H = combine_kernels(bank, [0.25, 0.25])
    assert np.allclose(H.values, 0.25 * (bank[0].values + bank[1].values), atol=1e-15)


def test_combine_is_symmetric_and_within_rounding_of_the_plain_sum():
    # daxpy may fuse each multiply and add into one rounding where numpy
    # rounds twice, so the sum is held to an entrywise rounding bound, not
    # to numpy's bits. It must stay exactly symmetric, also where the BLAS
    # loop has a remainder (n^2 odd), and one kernel at weight 1, alone or
    # beside a weight of 0, must come back bit for bit
    rng = np.random.default_rng(4)
    eps = np.finfo(float).eps
    r = 12
    for n in (7, 150, 333):
        bank = random_bank(rng, n, r)
        w = rng.random(r)
        plain = np.zeros((n, n))
        bound = np.zeros((n, n))
        for wi, K in zip(w, bank):
            plain = plain + wi * K.values
            bound = bound + abs(wi) * np.abs(K.values)
        combined = sp.numerics._weighted_sum([K.values for K in bank], w)
        assert combined.tobytes() == combined.T.copy().tobytes(), n
        assert np.all(np.abs(combined - plain) <= r * eps * bound), n
        assert combine_kernels(bank, w).values.tobytes() == combined.tobytes(), n
    for w in ([1.0], [1.0, 0.0]):
        bank = random_bank(rng, 9, len(w))
        assert combine_kernels(bank, w).values.tobytes() == bank[0].values.tobytes()


def test_combine_validates_inputs():
    rng = np.random.default_rng(3)
    bank = random_bank(rng, 4, 2)
    # any finite nonnegative weights combine, whatever their sum of roots
    H = combine_kernels(bank, [0.5, 0.5])
    assert np.allclose(H.values, 0.5 * (bank[0].values + bank[1].values), rtol=0, atol=1e-15)
    for bad in ([1.5, -0.5], [np.inf, 0.0], [np.nan, 0.5]):
        with pytest.raises(ValueError, match="finite and nonneg"):
            combine_kernels(bank, bad)
    with pytest.raises(ValueError, match="weight"):
        combine_kernels(bank, [1.0])
    with pytest.raises(ValueError, match="empty"):
        combine_kernels([], np.array([]))
    bad = random_bank(rng, 5, 1) + random_bank(rng, 4, 1)
    with pytest.raises(ValueError, match="to match kernel 0"):
        combine_kernels(bad, [0.25, 0.25])
    cfg = sp.SpcConfig(alpha=1.0, beta=0.5, gamma=3.0, clusters=2)
    with pytest.raises(ValueError, match="has shape"):
        run_mspc([np.float64(3.0)], cfg)
    with pytest.raises(ValueError, match="has shape"):
        run_mspc([np.zeros((3, 4))], cfg)


# --- per-kernel costs --------------------------------------------------------------


def test_costs_at_zero_graph_are_traces():
    rng = np.random.default_rng(4)
    bank = random_bank(rng, 7, 3)
    h = kernel_costs(bank, np.zeros((7, 7)), alpha=2.0)
    assert np.allclose(h, [np.trace(K.values) for K in bank], atol=1e-12)


def test_costs_identity_cancellation():
    bank = [sp.KernelMatrix(np.eye(5))]
    h = kernel_costs(bank, np.eye(5), alpha=1.0)
    assert h[0] == pytest.approx(0.0, abs=1e-12)


def test_costs_match_naive_traces():
    rng = np.random.default_rng(5)
    bank = random_bank(rng, 8, 4)
    Z = rng.random((8, 8))
    for alpha in (1.0, 2.0, 10.0):
        h = kernel_costs(bank, Z, alpha)
        for i, K in enumerate(bank):
            Kv = K.values
            naive = np.trace(Kv) - 2 * alpha * np.trace(Kv @ Z) + np.trace(Z.T @ Kv @ Z)
            assert h[i] == pytest.approx(naive, rel=1e-10)


def test_asymmetric_bare_kernel_is_symmetrized_once():
    # kernel_costs needs exactly symmetric kernels; run_mspc symmetrizes a
    # bare array in the bank on entry, with the usual warning, and its costs
    # are those of the symmetric part
    rng = np.random.default_rng(11)
    n = 12
    bank = random_bank(rng, n, 2)
    bare = bank[0].values + 0.01 * rng.standard_normal((n, n))
    cfg = sp.SpcConfig(alpha=1.0, beta=0.5, gamma=3.0, clusters=2, max_iters=3)
    with pytest.warns(UserWarning, match="asymmetry"):
        result, state = run_mspc(bank + [bare], cfg)
    Z = result.graph
    for h, K in zip(state.costs, [K.values for K in bank] + [0.5 * (bare + bare.T)]):
        naive = np.trace(K) - 2 * cfg.alpha * np.trace(K @ Z) + np.trace(Z.T @ K @ Z)
        assert h == pytest.approx(naive, rel=1e-10)


def test_bare_asymmetric_kernel_counts_as_its_symmetric_part():
    # kernel_costs and combine_kernels take a bare array through as_kernel:
    # one warning, then the cost and the sum of its symmetric part
    rng = np.random.default_rng(0)
    A, Z = rng.random((8, 8)), rng.random((8, 8))
    S = 0.5 * (A + A.T)
    naive = np.trace(S) - 2 * 2.0 * np.trace(S @ Z) + np.trace(Z.T @ S @ Z)
    with pytest.warns(UserWarning, match="asymmetry") as record:
        h = kernel_costs([A], Z, 2.0)
    assert len(record) == 1
    assert h[0] == pytest.approx(naive, rel=1e-12)
    assert h[0] == pytest.approx(21.51, abs=5e-3)
    with pytest.warns(UserWarning, match="asymmetry") as record:
        H = combine_kernels([A], [1.0])
    assert len(record) == 1
    assert np.array_equal(H.values, S)


def test_weighted_costs_equal_combined_cost():
    # sum_i w_i h_i equals the cost of the combined kernel, exercised with
    # feasible random weights
    rng = np.random.default_rng(6)
    for _ in range(10):
        r = int(rng.integers(2, 6))
        n = int(rng.integers(4, 10))
        bank = random_bank(rng, n, r)
        roots = rng.random(r) + 0.1
        roots /= roots.sum()
        w = roots**2
        Z = rng.random((n, n))
        alpha = float(rng.uniform(1.0, 5.0))
        h = kernel_costs(bank, Z, alpha)
        H = combine_kernels(bank, w).values
        combined = np.trace(H) - 2 * alpha * np.trace(H @ Z) + np.trace(Z.T @ H @ Z)
        assert np.dot(w, h) == pytest.approx(combined, rel=1e-10)


# --- weight update -------------------------------------------------------------------


def test_weight_update_oracle_values():
    assert np.allclose(update_weights(np.array([1.0, 1.0])), [0.25, 0.25], atol=1e-15)
    w = update_weights(np.array([1.0, 3.0]))
    assert abs(w[0] - 9.0 / 16.0) <= 1e-15
    assert abs(w[1] - 1.0 / 16.0) <= 1e-15
    assert update_weights(np.array([2.7]))[0] == 1.0
    assert np.allclose(update_weights(np.full(5, 4.2)), np.full(5, 1.0 / 25.0), atol=1e-15)


def test_weight_update_constraint_holds():
    rng = np.random.default_rng(7)
    for r in (2, 5, 12):
        for _ in range(100):
            h = rng.uniform(0.01, 100.0, size=r)
            w = update_weights(h)
            assert np.all(w > 0)
            assert abs(np.sqrt(w).sum() - 1.0) <= 1e-12


def test_weight_update_rejects_nonpositive_costs():
    with pytest.raises(ValueError, match=r"h\[1\]"):
        update_weights(np.array([1.0, -2.0, 3.0]))
    # 1/inf = 0 would make a zero weight, or nan weights when every cost is infinite
    for h, i in (([np.inf, np.inf], 0), ([np.inf, 1.0], 0), ([1.0, np.nan], 1)):
        with pytest.raises(ValueError, match=rf"kernel cost h\[{i}\] = (inf|nan) is not positive and finite"):
            update_weights(np.array(h))
    with pytest.raises(ValueError, match="1-D"):
        update_weights(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="empty"):
        update_weights(np.array([]))


def test_weight_update_beats_feasible_grid():
    rng = np.random.default_rng(8)
    for _ in range(5):
        h = rng.uniform(0.1, 10.0, size=2)
        w = update_weights(h)
        closed = np.dot(w, h)
        s = np.linspace(1e-9, 1.0 - 1e-9, 10_000)
        grid = s**2 * h[0] + (1.0 - s) ** 2 * h[1]
        assert closed <= grid.min() + 1e-6


# --- full multiple-kernel solver -------------------------------------------------------


def blob_dataset():
    rng = np.random.default_rng(7)
    pts = np.concatenate(
        [rng.normal(0.0, 0.3, (2, 20)), rng.normal(5.0, 0.3, (2, 20))], axis=1
    )
    return sp.Dataset(pts, np.repeat([0, 1], 20))


def test_single_kernel_bank_reproduces_plain_solver():
    X = blob_dataset()
    K = sp.gaussian_kernel(X, 1.0)
    # alpha = 1 keeps the kernel cost at tr((I-Z)^T K (I-Z)) >= 0, so the
    # bank path cannot abort and the trajectories stay comparable
    cfg = sp.SpcConfig(
        alpha=1.0, beta=0.5, gamma=3.0, clusters=2, adapt_beta=True, seed=0
    )
    plain = sp.run_spc(K, cfg)
    multi, state = run_mspc([K], cfg)
    assert np.array_equal(plain.labels, multi.labels)
    assert np.array_equal(plain.graph, multi.graph)
    assert np.array_equal(plain.embedding, multi.embedding)
    for series in fields(sp.SpcTrace):
        if series.name != "wall_time":
            assert getattr(plain.trace, series.name) == getattr(multi.trace, series.name), series.name
    assert state.weights.shape == (1,) and state.weights[0] == 1.0


def test_factorizes_once_per_kernel(monkeypatch):
    # a fixed kernel is factorized once; a bank's weights change every
    # iteration, and those returned after the last iteration are never used.
    # Both solvers form the ZZ' triangle once for the initial graph and once
    # per projected graph: the objective's fit term and the kernel weights
    # share it.
    calls, grams = [], []
    gram_upper = sp.numerics.gram_upper

    def counting_factorize(A):
        calls.append(A.shape)
        return sp.spd_factorize(A)

    def counting_gram(a):
        grams.append(a.shape)
        return gram_upper(a)

    monkeypatch.setattr(spc_module, "spd_factorize", counting_factorize)
    # every module that binds gram_upper, wherever the calls live
    for name, module in list(sys.modules.items()):
        if name.startswith("spclust.") and getattr(module, "gram_upper", None) is gram_upper:
            monkeypatch.setattr(module, "gram_upper", counting_gram)
    X = blob_dataset()
    n = X.n_samples
    cfg = sp.SpcConfig(alpha=1.0, beta=0.5, gamma=3.0, clusters=2, adapt_beta=True, seed=0)
    result = sp.run_spc(sp.gaussian_kernel(X, 1.0), cfg)
    assert result.trace.iterations > 1 and len(calls) == 1
    assert grams == [(n, n)] * (result.trace.iterations + 1)
    calls.clear()
    grams.clear()
    result, _ = run_mspc(sp.build_standard_bank(X), cfg)
    assert result.trace.iterations > 1 and len(calls) == result.trace.iterations
    assert grams == [(n, n)] * (result.trace.iterations + 1)


def test_loop_factorizes_the_ridged_sum_under_the_returned_weights(monkeypatch):
    # the loop sums the bank into A = sum_i w_i K^i + 2*gamma*I itself, under
    # the 1/r start and then the weights each kernel step returns, within the
    # rounding bound of the combine test; a run never calls combine_kernels
    factored, returned, combined = [], [], []
    mkl_module = sys.modules["spclust.mkl"]

    def recording_factorize(A):
        factored.append(A.copy())
        return sp.spd_factorize(A)

    def recording_weights(h):
        returned.append(update_weights(h))
        return returned[-1]

    def recording_combine(bank, w):
        combined.append(np.array(w))
        return combine_kernels(bank, w)

    monkeypatch.setattr(spc_module, "spd_factorize", recording_factorize)
    monkeypatch.setattr(mkl_module, "update_weights", recording_weights)
    monkeypatch.setattr(mkl_module, "combine_kernels", recording_combine)
    bank = sp.build_standard_bank(blob_dataset())
    r, n = len(bank), bank[0].order
    cfg = sp.SpcConfig(alpha=1.0, beta=0.5, gamma=3.0, clusters=2, adapt_beta=True, max_iters=6, seed=0)
    result, state = run_mspc(bank, cfg)
    assert len(factored) == len(returned) == result.trace.iterations > 1
    assert combined == []
    assert np.array_equal(state.weights, returned[-1])
    eps = np.finfo(float).eps
    for A, w in zip(factored, [np.full(r, 1.0 / r)] + returned[:-1]):
        plain = sum(wi * K.values for wi, K in zip(w, bank)) + 2.0 * cfg.gamma * np.eye(n)
        bound = sum(abs(wi) * np.abs(K.values) for wi, K in zip(w, bank)) + 2.0 * cfg.gamma * np.eye(n)
        assert A.tobytes() == A.T.copy().tobytes()
        assert np.all(np.abs(A - plain) <= r * eps * bound)


def test_solver_calls_match_the_benchmark_attribution(monkeypatch):
    # the benchmark's traced run rebinds symmetric_eigen and spd_factorize
    # under every name in every spclust module, and fails the run unless
    # spd_factorize runs once for SPC and once per iteration for mSPC. Every
    # F-step is one eigensolve, one read-off of c components or one Lanczos
    # run; the last two factorize their own copy of the Laplacian through a
    # private helper. The data are at the order where Lanczos starts.
    counts = {"symmetric_eigen": 0, "spd_factorize": 0}
    factored, lanczos = [], []
    shifted_factor = sp.numerics._shifted_factor
    shift_invert_lanczos = sp.numerics._shift_invert_lanczos

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def recording(into, fn):
        def wrapper(*args):
            result = fn(*args)
            into.append(result is not None)
            return result

        return wrapper

    wrappers = [(getattr(sp.numerics, name), counting(name, getattr(sp.numerics, name))) for name in counts]
    wrappers.append((shifted_factor, recording(factored, shifted_factor)))
    wrappers.append((shift_invert_lanczos, recording(lanczos, shift_invert_lanczos)))
    for name, module in list(sys.modules.items()):
        if name == "spclust" or name.startswith("spclust."):
            for attr, value in list(vars(module).items()):
                for fn, wrapper in wrappers:
                    if value is fn:
                        monkeypatch.setattr(module, attr, wrapper)
    X = sp.generate_two_moons(400, noise_sigma=0.08, seed=0)
    cfg = sp.SpcConfig(alpha=4.0, beta=0.125, gamma=1.0, clusters=2, adapt_beta=True, seed=0)
    spc_trace = sp.run_spc(sp.normalize_kernel(sp.gaussian_kernel(X, 0.01)), cfg).trace
    assert counts["spd_factorize"] == 1
    runs = [(spc_trace, dict(counts), list(factored), list(lanczos))]
    counts.update(symmetric_eigen=0, spd_factorize=0)
    factored.clear()
    lanczos.clear()
    cfg = sp.SpcConfig(alpha=1.0, beta=0.5, gamma=3.0, clusters=2, adapt_beta=True, seed=0)
    mspc_trace = run_mspc(sp.build_standard_bank(X), cfg)[0].trace
    assert counts["spd_factorize"] == mspc_trace.iterations
    runs.append((mspc_trace, counts, factored, lanczos))
    for trace, calls, factored, lanczos in runs:
        read_offs = sum(factored) - len(lanczos)
        # no F-step of these runs, the random initial graph's included, falls
        # back to the eigensolver
        assert calls["symmetric_eigen"] == 0 and read_offs and sum(lanczos)
        assert calls["symmetric_eigen"] + read_offs + sum(lanczos) == trace.iterations


def test_loop_arithmetic_follows_the_kernel_step(monkeypatch):
    # iteration 2 runs on the kernel combined after iteration 1, so its
    # graph step and all three objectives must use that kernel, including
    # the fit terms of the graph carried over from iteration 1
    steps = []

    def recording(Z):
        steps.append(np.array(Z))
        return sp.project_nonneg(Z)

    monkeypatch.setattr(spc_module, "project_nonneg", recording)
    rng = np.random.default_rng(10)
    n = 24
    bank = random_bank(rng, n, 4)
    cfg = sp.SpcConfig(alpha=1.0, beta=2.0, gamma=0.8, clusters=3, max_iters=1, rel_tol=1e-14)
    first, state = run_mspc(bank, cfg)
    second, _ = run_mspc(bank, replace(cfg, max_iters=2))
    assert second.trace.iterations == 2 and len(steps) == 3
    H = combine_kernels(bank, state.weights).values
    F, t = second.embedding, second.trace
    D = ((F[:, None, :] - F[None, :, :]) ** 2).sum(axis=2)
    expect = np.linalg.solve(H + 2 * cfg.gamma * np.eye(n), cfg.alpha * H - 0.5 * cfg.beta * D)
    assert np.linalg.norm(steps[-1] - expect) <= 1e-12 * np.linalg.norm(expect)
    for got, Z in (
        (t.objective_after_embedding[1], first.graph),
        (t.objective_after_graph[1], steps[-1]),
        (t.objective[1], second.graph),
    ):
        assert got == pytest.approx(sp.objective(H, Z, F, cfg), rel=1e-10, abs=0)


def test_identical_kernels_get_uniform_weights():
    X = blob_dataset()
    K = sp.gaussian_kernel(X, 1.0)
    r = 3
    bank = [sp.KernelMatrix(K.values.copy()) for _ in range(r)]
    cfg = sp.SpcConfig(alpha=1.0, beta=5.0, gamma=1.0, clusters=2, max_iters=1, seed=0)
    _, state = run_mspc(bank, cfg)
    # identical costs make every update land on the uniform feasible point
    assert np.allclose(state.weights, np.full(r, 1.0 / r**2), atol=1e-12)


def test_mspc_state_contract():
    X = blob_dataset()
    bank = sp.build_standard_bank(X)
    cfg = sp.SpcConfig(alpha=1.0, beta=0.5, gamma=3.0, clusters=2, adapt_beta=True, seed=0)
    _, state = run_mspc(bank, cfg)
    assert state.weights.shape == (12,)
    assert abs(np.sqrt(state.weights).sum() - 1.0) <= 1e-12
    assert state.costs.shape == (12,) and np.all(state.costs > 0)
    assert not hasattr(state, "combined")  # the run forms no combined kernel
    assert np.allclose(
        combine_kernels(bank, state.weights).values,
        sum(w * K.values for w, K in zip(state.weights, bank)),
        atol=1e-12,
    )


def test_mspc_aborts_on_nonpositive_cost():
    X = blob_dataset()
    bank = sp.build_standard_bank(X)
    cfg = sp.SpcConfig(alpha=30.0, beta=0.125, gamma=1.0, clusters=2, adapt_beta=True, seed=0)
    with pytest.raises(ValueError, match="not positive"):
        run_mspc(bank, cfg)


def test_bank_beats_kmeans_on_moons():
    # the learned combination has more to work with than raw coordinates
    X = sp.generate_two_moons(300, noise_sigma=0.08, seed=0)
    bank = sp.build_standard_bank(X)
    cfg = sp.SpcConfig(alpha=1.0, beta=0.5, gamma=3.0, clusters=2, adapt_beta=True, seed=0)
    result, _ = run_mspc(bank, cfg)
    baseline = sp.accuracy(sp.lloyd_kmeans(X, 2, seed=0).labels, X.labels)
    assert sp.accuracy(result.labels, X.labels) > baseline


def test_mspc_deterministic():
    X = blob_dataset()
    bank = sp.build_standard_bank(X)
    cfg = sp.SpcConfig(alpha=1.0, beta=0.5, gamma=3.0, clusters=2, adapt_beta=True, seed=2)
    r1, s1 = run_mspc(bank, cfg)
    r2, s2 = run_mspc(bank, cfg)
    assert np.array_equal(r1.labels, r2.labels)
    assert np.array_equal(s1.weights, s2.weights)
    assert r1.trace.objective == r2.trace.objective


def test_mspc_reads_f_off_more_than_c_components(monkeypatch):
    # at the bank settings on moons n = 300 with data seeds 1 and 2, the
    # learned graph splits into three components at iteration 6; F is then
    # the indicators of the largest one and of the union of the other two,
    # so no F-step of the run calls the eigensolver, and the runs end at
    # these cluster sizes
    def refused(*args, **kwargs):
        raise AssertionError("the F-step called the eigensolver")

    monkeypatch.setattr(spc_module, "symmetric_eigen", refused)
    cfg = sp.SpcConfig(alpha=1.0, beta=0.5, gamma=3.0, clusters=2, adapt_beta=True, max_iters=300)
    for seed, sizes, iterations in ((1, [195, 105], 14), (2, [182, 118], 13)):
        X = sp.generate_two_moons(300, noise_sigma=0.08, seed=seed)
        result, _ = run_mspc(sp.build_standard_bank(X), cfg)
        assert 3 in result.trace.near_zero_eigs
        assert result.trace.iterations == iterations and result.converged
        assert sorted(np.bincount(result.labels), reverse=True) == sizes
