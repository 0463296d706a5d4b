import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg.lapack import dpotri

import spclust
import spclust.mkl
import spclust.numerics
import spclust.spc
import spclust.workbench
from spclust.numerics import (
    FactorizationError,
    check_finite,
    gram_upper,
    product,
    spd_factorize,
    spd_inverse,
    symmetric_eigen,
)

# Laplacian of the 3-node path graph has spectrum {0, 1, 3}
PATH3 = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])


def test_path_graph_spectrum():
    eig = symmetric_eigen(PATH3)
    assert np.allclose(eig.values, [0.0, 1.0, 3.0], atol=1e-12)


def test_eigenvalues_ascending_and_vectors_orthonormal():
    rng = np.random.default_rng(0)
    for _ in range(10):
        A = rng.standard_normal((12, 12))
        A = A + A.T
        eig = symmetric_eigen(A)
        assert np.all(np.diff(eig.values) >= -1e-12)
        assert np.allclose(eig.vectors.T @ eig.vectors, np.eye(12), atol=1e-10)
        # each pair really is an eigenpair
        assert np.allclose(A @ eig.vectors, eig.vectors * eig.values, atol=1e-8)


def test_two_node_flip_matrix():
    eig = symmetric_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(eig.values, [-1.0, 1.0], atol=1e-14)
    v = 1.0 / np.sqrt(2.0)
    # eigenvectors are (1, -1) and (1, 1) up to sign
    assert np.isclose(abs(eig.vectors[:, 0] @ [v, -v]), 1.0, atol=1e-12)
    assert np.isclose(abs(eig.vectors[:, 1] @ [v, v]), 1.0, atol=1e-12)


def test_eigen_deterministic():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((20, 20))
    A = A + A.T
    e1, e2 = symmetric_eigen(A), symmetric_eigen(A.copy())
    assert np.array_equal(e1.values, e2.values)
    assert np.array_equal(e1.vectors, e2.vectors)


def test_bottom_eigenpairs_match_full_spectrum():
    rng = np.random.default_rng(4)
    n = 30
    B = rng.standard_normal((n, n))
    A = B + B.T
    full = symmetric_eigen(A)
    assert full.values.shape == (n,) and full.vectors.shape == (n, n)
    for count in (1, 3, 7, n - 1):
        part = symmetric_eigen(A, count)
        assert part.values.shape == (count,) and part.vectors.shape == (n, count)
        assert np.allclose(part.values, full.values[:count], rtol=0, atol=1e-12)
        # the spanned subspace, not the signs of the vectors, is determined
        want = full.vectors[:, :count] @ full.vectors[:, :count].T
        assert np.allclose(part.vectors @ part.vectors.T, want, rtol=0, atol=1e-10)
    # a count of at least the order falls back to the full spectrum
    for count in (n, n + 5):
        assert np.array_equal(symmetric_eigen(A, count).values, full.values)
    for bad in (0, -2):
        with pytest.raises(ValueError, match="count"):
            symmetric_eigen(A, bad)


def test_product_matches_matmul():
    rng = np.random.default_rng(5)
    a, b, c = rng.standard_normal((3, 5)), rng.standard_normal((5, 4)), rng.standard_normal((4, 5))
    assert np.allclose(product(a, b), a @ b, rtol=0, atol=1e-13)
    assert np.allclose(product(a, c, trans_b=True), a @ c.T, rtol=0, atol=1e-13)
    # column-major and strided operands give the same product
    assert np.allclose(product(np.asfortranarray(a), b[:, ::2]), a @ b[:, ::2], rtol=0, atol=1e-13)
    assert product(a, b).flags.c_contiguous


def test_gram_upper_is_the_upper_triangle_of_the_gram_matrix():
    rng = np.random.default_rng(6)
    for shape in ((1, 1), (6, 6), (5, 3), (3, 5)):
        a = rng.standard_normal(shape)
        G = gram_upper(a)
        assert G.shape == (shape[0], shape[0]) and G.flags.c_contiguous
        assert np.allclose(G, np.triu(a @ a.T), rtol=0, atol=1e-13)
        assert np.array_equal(np.tril(G, -1), np.zeros_like(G))
    # a column-major operand gives the same triangle
    a = rng.standard_normal((7, 7))
    assert np.array_equal(gram_upper(np.asfortranarray(a)), gram_upper(a))


def test_spd_inverse_matches_dense_inverse():
    rng = np.random.default_rng(7)
    for n in (1, 4, 30):
        B = rng.standard_normal((n, n))
        A = B @ B.T + n * np.eye(n)
        f = spd_factorize(A)
        assert f.shape == (n, n)
        assert np.allclose(np.tril(f) @ np.tril(f).T, A, rtol=0, atol=1e-12)
        factor = f.copy()
        inv = spd_inverse(f)
        assert inv.flags.c_contiguous and np.array_equal(inv, inv.T)
        assert np.allclose(inv, np.linalg.inv(A), rtol=0, atol=1e-12)
        # dpotri works on a copy; the factor is untouched
        assert np.array_equal(f, factor)


def test_spd_inverse_mirrors_the_triangle_bit_for_bit():
    # the blocked mirror gives the bits of the whole-matrix masked copy,
    # also where the order is not a multiple of the block
    rng = np.random.default_rng(9)
    for n in (1, 63, 64, 65, 150):
        B = rng.standard_normal((n, n))
        f = spd_factorize(B @ B.T + n * np.eye(n))
        want = dpotri(f, lower=1)[0].T
        np.copyto(want, want.T, where=np.tri(n, k=-1, dtype=bool))
        assert spd_inverse(f).tobytes() == want.tobytes()


def test_only_the_lower_triangle_is_read():
    # LAPACK's contract: a symmetric matrix and its lower triangle with
    # garbage above the diagonal give the same eigenpairs and factor
    rng = np.random.default_rng(8)
    n = 9
    B = rng.standard_normal((n, n))
    A = B @ B.T + n * np.eye(n)
    garbled = np.tril(A) + np.triu(rng.standard_normal((n, n)), 1)
    assert not np.array_equal(garbled, garbled.T)
    for count in (None, 3):
        want, got = symmetric_eigen(A, count), symmetric_eigen(garbled, count)
        assert np.array_equal(want.values, got.values)
        assert np.array_equal(want.vectors, got.vectors)
    assert np.array_equal(np.tril(spd_factorize(A)), np.tril(spd_factorize(garbled)))
    with pytest.raises(ValueError, match="square"):
        symmetric_eigen(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        spd_factorize(np.full((2, 2), np.nan))


def test_check_finite_names_entry():
    A = np.zeros((3, 3))
    A[1, 2] = np.nan
    with pytest.raises(ValueError, match=r"kernel .* \(1, 2\)"):
        check_finite(A, "kernel matrix")
    A[1, 2] = np.inf
    with pytest.raises(ValueError):
        check_finite(A)


def test_factorization_error_carries_pivot():
    A = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(FactorizationError) as err:
        spd_factorize(A)
    assert err.value.pivot == 1


NUMPY_BLAS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}

# the functions the alternating loop runs, by the module that exports them
LOOP_FUNCTIONS = {
    spclust.numerics: ("_weighted_sum", "_shifted_factor", "_shift_invert_lanczos", "spd_inverse"),
    spclust.spc: (
        "alternate",
        "update_graph",
        "_spectral",
        "kernel_costs",
        "build_laplacian",
        "update_embedding",
        "_components",
        "project_nonneg",
        "_add_scaled",
    ),
    spclust.mkl: ("combine_kernels", "update_weights"),
}


def numpy_blas_uses(tree):
    """Line numbers in an AST where numpy's @ or one of its BLAS entry points is used."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult))
        or (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "np"
            and node.attr in NUMPY_BLAS
        )
    ]


def test_solver_code_makes_no_numpy_blas_call():
    # numpy and scipy each load their own OpenBLAS; a numpy BLAS call in the
    # loop leaves numpy's worker spinning and roughly doubles the next scipy
    # eigensolve, so the solver paths use scipy only. That holds for
    # spc.objective too, which the loop does not call but a caller may run
    # right before the next solve.
    for module in (spclust.numerics, spclust.spc, spclust.mkl):
        tree = ast.parse(inspect.getsource(module))
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef):
                assert not numpy_blas_uses(fn), (module.__name__, fn.name)


def test_loop_functions_keep_the_one_pool_rule():
    # each loop function is checked by name, wherever its source lives, so a
    # loop step moved out of the modules above is still held to the rule
    for module, names in LOOP_FUNCTIONS.items():
        for name in names:
            tree = ast.parse(inspect.getsource(getattr(module, name)))
            assert not numpy_blas_uses(tree), (module.__name__, name)


def self_transpose_sums(tree):
    """Line numbers in an AST where an expression is added to its own .T."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Add)
        and any(
            isinstance(b, ast.Attribute) and b.attr == "T" and ast.dump(b.value) == ast.dump(a)
            for a, b in ((node.left, node.right), (node.right, node.left))
        )
    ]


def test_one_routine_forms_the_symmetric_part():
    # (A + A')/2 has one definition, numerics._symmetric_part; every other
    # function calls it, so the rule for exact symmetry lives in one place
    for info in pkgutil.iter_modules(spclust.__path__):
        module = importlib.import_module(f"spclust.{info.name}")
        for fn in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(fn, ast.FunctionDef) and (module, fn.name) != (spclust.numerics, "_symmetric_part"):
                assert not self_transpose_sums(fn), (module.__name__, fn.name)
    assert self_transpose_sums(ast.parse(inspect.getsource(spclust.numerics._symmetric_part)))


def test_annotations_are_read_resolved():
    # which values a config field, flag or report key takes is spc._fits over the resolved
    # annotations (typing.get_type_hints); a dataclass field's .type is the annotation as
    # written, a string under postponed evaluation, so no module reads a .type
    for info in pkgutil.iter_modules(spclust.__path__):
        module = importlib.import_module(f"spclust.{info.name}")
        reads = [
            node.lineno
            for node in ast.walk(ast.parse(inspect.getsource(module)))
            if isinstance(node, ast.Attribute) and node.attr == "type"
        ]
        assert not reads, (module.__name__, reads)


def _names_read():
    # every name loaded, as a name or an attribute, in the package's own modules,
    # the demos or the benchmark's workloads; an import does not count
    root = Path(__file__).resolve().parents[1]
    files = [p for p in (root / "src" / "spclust").glob("*.py") if p.name != "__init__.py"]
    files += [*(root / "demos").glob("*.py"), root / "perfbench" / "workloads.py"]
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return used


def test_every_export_is_used():
    # a public name earns its place by being read: each name in spclust.__all__
    # is read by the package, the demos or the benchmark's workloads
    assert sorted(set(spclust.__all__) - _names_read()) == []


def test_every_public_workbench_name_is_used():
    # the same rule for each public function and class spclust.workbench defines,
    # exported or not: a name that only tests read is not public
    public = {
        name
        for name, obj in vars(spclust.workbench).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == "spclust.workbench"
    }
    assert sorted(public - _names_read()) == []
