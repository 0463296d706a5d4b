import tracemalloc
import warnings

import numpy as np
import pytest

import spclust.kernels
from spclust import (
    GAUSSIAN_T_GRID,
    POLYNOMIAL_AB_GRID,
    Dataset,
    KernelMatrix,
    KernelSpec,
    as_kernel,
    build_standard_bank,
    gaussian_kernel,
    generate_two_moons,
    normalize_kernel,
    pairwise_sq_dist,
)
from spclust.kernels import linear_kernel, polynomial_kernel


def test_dataset_shape_and_labels():
    X = Dataset(np.zeros((2, 5)), labels=[0, 0, 1, 1, 1])
    assert X.n_features == 2 and X.n_samples == 5
    with pytest.raises(ValueError, match="labels"):
        Dataset(np.zeros((2, 5)), labels=[0, 1])
    with pytest.raises(ValueError, match="2-D"):
        Dataset(np.zeros(5))


def test_dataset_refuses_non_integer_labels():
    # a fractional or non-finite label is refused, not truncated; integral
    # floats are kept as the integers they stand for
    with pytest.raises(ValueError, match=r"label 0 is 0\.2, not an integer"):
        Dataset(np.zeros((2, 3)), labels=[0.2, 1.7, 1.0])
    with pytest.raises(ValueError, match="label 1 is nan"):
        Dataset(np.zeros((2, 2)), labels=[0.0, np.nan])
    X = Dataset(np.zeros((2, 3)), labels=[0.0, 1.0, 1.0])
    assert X.labels.dtype.kind == "i" and X.labels.tolist() == [0, 1, 1]


def test_pairwise_sq_dist_hand_case():
    X = Dataset(np.array([[0.0, 3.0], [0.0, 4.0]]))
    D = pairwise_sq_dist(X)
    assert np.allclose(D, [[0.0, 25.0], [25.0, 0.0]])
    with pytest.raises(ValueError, match="two samples"):
        pairwise_sq_dist(Dataset(np.zeros((3, 1))))


def test_gaussian_extreme_pair_value():
    # two points: their distance is d_max, so the off-diagonal is exp(-1/t)
    X = Dataset(np.array([[0.0, 1.0]]))
    K = gaussian_kernel(X, 1.0)
    assert K.values[0, 1] == pytest.approx(0.36787944117144233, abs=1e-16)
    assert np.array_equal(np.diag(K.values), [1.0, 1.0])


def test_gaussian_range_and_diagonal():
    rng = np.random.default_rng(0)
    X = Dataset(rng.standard_normal((3, 30)))
    K = gaussian_kernel(X, 0.5)
    assert np.all(K.values > 0.0) and np.all(K.values <= 1.0)
    assert np.allclose(np.diag(K.values), 1.0)
    assert K.spec == KernelSpec("gaussian", t=0.5)


def test_gaussian_translation_invariance():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((4, 25))
    K0 = gaussian_kernel(Dataset(X), 2.0).values
    K1 = gaussian_kernel(Dataset(X + rng.standard_normal((4, 1))), 2.0).values
    assert np.abs(K0 - K1).max() <= 1e-12


def test_gaussian_positive_semidefinite():
    rng = np.random.default_rng(11)
    for _ in range(8):
        n = int(rng.integers(5, 51))
        X = Dataset(rng.standard_normal((3, n)) * rng.uniform(0.5, 3.0))
        t = float(rng.choice(GAUSSIAN_T_GRID))
        w = np.linalg.eigvalsh(gaussian_kernel(X, t).values)
        assert w.min() >= -1e-8


def test_gaussian_degenerate_data():
    X = Dataset(np.ones((2, 4)))
    with pytest.raises(ValueError, match="d_max"):
        gaussian_kernel(X, 1.0)
    with pytest.raises(ValueError, match="positive"):
        gaussian_kernel(Dataset(np.eye(2)), 0.0)


def test_polynomial_small_case():
    # columns (1,0) and (1,1): gram [[1,1],[1,2]], (1 + gram)^2
    X = Dataset(np.array([[1.0, 1.0], [0.0, 1.0]]))
    K = polynomial_kernel(X, 1.0, 2)
    assert np.allclose(K.values, [[4.0, 4.0], [4.0, 9.0]])
    with pytest.raises(ValueError, match="exponent"):
        polynomial_kernel(X, 1.0, 0)


def test_polynomial_refuses_a_fractional_exponent():
    X = Dataset(np.array([[1.0, 1.0], [0.0, 1.0]]))
    for b in (2.7, 0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="exponent b must be an integer >= 1"):
            polynomial_kernel(X, 1.0, b)
    K = polynomial_kernel(X, 1.0, 2.0)
    assert K.spec.b == 2 and isinstance(K.spec.b, int)
    assert np.array_equal(K.values, polynomial_kernel(X, 1.0, 2).values)


def test_kernel_spec_refuses_non_numbers_by_name():
    # a bool is refused rather than read as 0 or 1, and a string fails here
    # with the parameter's name instead of deep in a comparison or a ufunc
    X = Dataset(np.array([[1.0, 1.0], [0.0, 1.0]]))
    for build, name in (
        (lambda: gaussian_kernel(X, True), "t"),
        (lambda: polynomial_kernel(X, 0.0, True), "b"),
        (lambda: polynomial_kernel(X, np.bool_(False), 2), "a"),
        (lambda: KernelSpec("gaussian", t="1"), "t"),
        (lambda: KernelSpec("polynomial", a="x", b=2), "a"),
        (lambda: KernelSpec("polynomial", a=0.0, b=None), "b"),
    ):
        with pytest.raises(ValueError, match=f"kernel parameter {name} must be a real number"):
            build()
    assert KernelSpec("polynomial", a=1, b=2.0).b == 2
    assert KernelSpec("gaussian", t=np.float64(0.5)) == KernelSpec("gaussian", t=0.5)


def test_polynomial_overflow_is_an_error():
    X = Dataset(np.full((1, 2), 1e80))
    with pytest.raises(ValueError, match="non-finite"):
        with np.errstate(over="ignore"):
            polynomial_kernel(X, 0.0, 4)


def test_linear_is_the_gram_matrix():
    rng = np.random.default_rng(2)
    X = Dataset(rng.standard_normal((3, 7)))
    assert np.allclose(linear_kernel(X).values, X.values.T @ X.values)


def test_kernel_matrix_exactly_symmetric():
    rng = np.random.default_rng(5)
    v = rng.standard_normal((6, 6))
    before = v.copy()
    K = KernelMatrix(v)
    assert np.array_equal(K.values, K.values.T)
    # symmetrized into a new buffer, with the bits of 0.5 * (v + v.T)
    assert np.array_equal(v.view(np.uint64), before.view(np.uint64))
    assert np.array_equal(K.values.view(np.uint64), (0.5 * (v + v.T)).view(np.uint64))
    with pytest.raises(ValueError, match="kernel matrix has non-finite"):
        KernelMatrix(np.array([[1.0, np.nan], [0.0, 1.0]]))
    for values in (np.zeros((3, 4)), np.zeros(3)):
        with pytest.raises(ValueError, match="square kernel matrix"):
            KernelMatrix(values)


def test_symmetric_part_of_finite_values_near_the_limit_stays_finite():
    # a sum that overflows is halved first, which is exact there; the other
    # entries keep the bits of 0.5 * (v + v.T)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        K = KernelMatrix(np.array([[1e308, 1.0], [1.0, 1e308]]))
        assert np.array_equal(K.values, [[1e308, 1.0], [1.0, 1e308]])
        v = np.array([[1.5e308, 1.7e308, 0.25], [1.3e308, 3.0, -1e308], [0.75, -1.1e308, 1e-310]])
        with np.errstate(over="ignore"):
            want = 0.5 * (v + v.T)
        over = np.isinf(want)
        assert over.sum() == 5
        want[over] = (0.5 * v + 0.5 * v.T)[over]
        assert np.array_equal(KernelMatrix(v).values.view(np.uint64), want.view(np.uint64))
        with pytest.warns(UserWarning, match="max asymmetry 4.000e"):
            assert np.array_equal(as_kernel(v).values.view(np.uint64), want.view(np.uint64))
        with pytest.warns(UserWarning, match="max asymmetry inf"):
            assert np.array_equal(as_kernel([[1.0, -1.7e308], [1.7e308, 1.0]]).values, np.eye(2))
        # every inner product is at most 1.44e308; each is one rounded product
        X = Dataset(np.array([[1.1e154, 1.2e154]]))
        L = linear_kernel(X)
        x, y = 1.1e154, 1.2e154
        assert np.array_equal(L.values, [[x * x, x * y], [x * y, y * y]])
        N = normalize_kernel(L)
        assert np.isfinite(N.values).all() and N.values.min() == 0.0 and N.values.max() == 1.0


def test_kernel_overflows_are_refused_by_cause():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="inner product of two samples overflows"):
            linear_kernel(Dataset(np.array([[1e155, 2e155]])))
        with pytest.raises(ValueError, match=r"kernel range \[-1e\+308, 1e\+308\] overflows"):
            normalize_kernel(linear_kernel(Dataset(np.array([[1e154, -1e154]]))))


def test_overflowing_squared_distance_is_refused_by_name():
    X = Dataset(np.array([[0.0, 1e200, -1e200]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (lambda: gaussian_kernel(X, 1.0), lambda: build_standard_bank(X)):
            with pytest.raises(ValueError, match="squared distance between two samples overflows"):
                build()


def test_gaussian_scale_past_the_float_limit_is_divided_in_two_steps():
    # t * d_max^2 overflows for t = 100 here, although every gaussian value
    # lies in [exp(-0.01), 1]; D is divided by d_max^2 first, then by -t
    X = Dataset(np.array([[0.0, 1.35e153, 0.5e153]]))
    D = pairwise_sq_dist(X)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        K = gaussian_kernel(X, 100.0)
        assert np.array_equal(K.values, np.exp(D / D.max() / -100.0))
        bank = spclust.kernels._kernels(X, KernelSpec.parse("bank"))
        for t in GAUSSIAN_T_GRID:
            want = normalize_kernel(gaussian_kernel(X, t)).values
            assert np.array_equal(next(bank).values.view(np.uint64), want.view(np.uint64)), t
        # the squares of the inner products overflow, and are refused by name
        with pytest.raises(ValueError, match="polynomial kernel has non-finite"):
            next(bank)


def test_as_kernel_returns_average():
    A = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.warns(UserWarning, match="asymmetry"):
        K = as_kernel(A)
    assert isinstance(K, KernelMatrix)
    assert np.array_equal(K.values, np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_as_kernel_quiet_below_tolerance():
    A = np.array([[1.0, 1.0 + 1e-12], [1.0, 1.0]])
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        as_kernel(A)


def test_as_kernel_tolerance_scales_with_the_kernel():
    # Q G Q' is symmetric up to rounding at any scale: a relative asymmetry
    # near 1e-16 stays quiet, though entries near 3e9 make it absolute 1e-7
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((200, 200)))
    K = (Q * rng.random(200)) @ Q.T
    K *= 3e9 / np.abs(K).max()
    asym = np.abs(K - K.T).max()
    assert 1e-8 < asym <= 1e-15 * np.abs(K).max()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(as_kernel(K).values, 0.5 * (K + K.T))


def test_as_kernel_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        as_kernel(np.zeros((2, 3)))


def test_as_kernel_trusts_a_kernel_matrix():
    K = KernelMatrix(np.random.default_rng(3).random((5, 5)))
    assert as_kernel(K) is K


def test_normalize_kernel_min_max():
    K = KernelMatrix(np.array([[2.0, 4.0], [4.0, 6.0]]))
    N = normalize_kernel(K)
    assert N.values.min() == 0.0 and N.values.max() == 1.0
    assert np.allclose(N.values, [[0.0, 0.5], [0.5, 1.0]])
    # scaled in a new buffer; the input kernel keeps its values
    assert np.array_equal(K.values, [[2.0, 4.0], [4.0, 6.0]])
    assert not np.shares_memory(N.values, K.values)
    with pytest.raises(ValueError, match="constant"):
        normalize_kernel(KernelMatrix(np.ones((3, 3))))


def test_standard_bank_layout():
    rng = np.random.default_rng(9)
    X = Dataset(rng.standard_normal((3, 20)))
    bank = build_standard_bank(X)
    assert len(bank) == 12
    # seven gaussian (ascending t), four polynomial (lexicographic), one linear
    assert tuple(k.spec.family for k in bank) == ("gaussian",) * 7 + (
        "polynomial",
    ) * 4 + ("linear",)
    assert tuple(k.spec.t for k in bank[:7]) == GAUSSIAN_T_GRID
    assert tuple((k.spec.a, k.spec.b) for k in bank[7:11]) == POLYNOMIAL_AB_GRID
    for K in bank:
        assert K.values.min() == 0.0 and K.values.max() == 1.0
        assert np.array_equal(K.values, K.values.T)


def test_standard_bank_deterministic():
    rng = np.random.default_rng(10)
    X = Dataset(rng.standard_normal((2, 15)))
    b1, b2 = build_standard_bank(X), build_standard_bank(X)
    for K1, K2 in zip(b1, b2):
        assert np.array_equal(K1.values, K2.values)


@pytest.mark.parametrize(
    "X",
    [
        Dataset(np.random.default_rng(14).standard_normal((3, 40))),
        generate_two_moons(120, noise_sigma=0.1, seed=2),
    ],
    ids=["random3", "moons"],
)
def test_standard_bank_equals_the_public_path_bit_for_bit(X):
    public = [normalize_kernel(gaussian_kernel(X, t)) for t in GAUSSIAN_T_GRID]
    public += [normalize_kernel(polynomial_kernel(X, a, b)) for a, b in POLYNOMIAL_AB_GRID]
    public.append(normalize_kernel(linear_kernel(X)))
    bank = build_standard_bank(X)
    assert len(bank) == len(public)
    for K, P in zip(bank, public):
        assert K.spec == P.spec and K.values.min() == 0.0 and K.values.max() == 1.0
        assert np.array_equal(K.values.view(np.uint64), P.values.view(np.uint64)), K.spec


def test_standard_bank_memory_budget():
    # the 12 kernels are 12 n^2 floats, the linear one in the Gram product's
    # buffer; each kernel is written straight into its own buffer, so the
    # traced peak is 12.26 n^2, where building each kernel on its own and
    # normalizing the finished list peaks at 25.1 n^2
    n = 300
    X = generate_two_moons(n, noise_sigma=0.1, seed=0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        bank = build_standard_bank(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(bank) == 12
    assert (peak - start) / (8 * n * n) <= 12.5


@pytest.mark.parametrize("n", [40, 130])
def test_polynomial_triangle_has_the_bits_of_the_whole_power(n):
    # data with negative inner products, an order below _BLOCK_ROWS and one
    # that is not a multiple of it; in a new buffer and in place
    rng = np.random.default_rng(n)
    X = Dataset(rng.standard_normal((5, n)))
    G = X.values.T @ X.values
    assert (G < 0).mean() > 0.3
    for a, b in POLYNOMIAL_AB_GRID + ((0.5, 3), (-2.0, 5), (1.0, 1)):
        want = np.power(a + G, b).view(np.uint64)
        got = spclust.kernels._polynomial_values(G, a, b, out=np.empty_like(G))
        assert np.array_equal(got.view(np.uint64), want), (a, b)
        assert np.array_equal(polynomial_kernel(X, a, b).values.view(np.uint64), want), (a, b)


def test_standard_bank_kernels_own_their_buffers(monkeypatch):
    gram, grams = spclust.kernels._gram, []

    def recording_gram(X):
        grams.append(gram(X))
        return grams[-1]

    monkeypatch.setattr(spclust.kernels, "_gram", recording_gram)
    X = Dataset(np.random.default_rng(4).standard_normal((3, 50)))
    bank = build_standard_bank(X)
    assert len(grams) == 1
    for i, K in enumerate(bank):
        assert K.values.flags.owndata and not np.shares_memory(K.values, X.values)
        assert all(not np.shares_memory(K.values, other.values) for other in bank[i + 1 :])
    # the linear kernel is the Gram product, scaled in place once the
    # polynomial kernels have read it
    assert all(not np.shares_memory(K.values, grams[0]) for K in bank[:-1])
    assert bank[-1].values is grams[0]


def test_standard_bank_symmetrizes_twice_at_most(monkeypatch):
    # once for the distances and once for the Gram product; every kernel is
    # exactly symmetric by construction and is not symmetrized again
    symmetric_part, calls = spclust.kernels._symmetric_part, []

    def counting(A):
        calls.append(A.shape)
        return symmetric_part(A)

    monkeypatch.setattr(spclust.kernels, "_symmetric_part", counting)
    bank = build_standard_bank(generate_two_moons(60, noise_sigma=0.1, seed=0))
    assert len(calls) <= 2
    for K in bank:
        assert np.array_equal(K.values, K.values.T)
