import dataclasses
import errno
import hashlib
import json
import os
import re

import numpy as np
import pytest

import spclust as sp
import spclust.workbench as workbench
from spclust.kernels import _kernels
from spclust.workbench import (
    ExperimentConfig,
    REPORT_VERSION,
    RunReport,
    SpcTrace,
    companion_labels_path,
    format_matrix,
    parse_matrix,
    resolve_dataset,
)


# --- matrix files -----------------------------------------------------------------


def _bits(A):
    return np.ascontiguousarray(A, dtype=float).view(np.uint64)


def test_matrix_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    special = [-0.0, 0.0, 5e-324, 2.2250738585072009e-308, -1e-310, np.nan, np.inf, -np.inf, 1e308]
    for _ in range(5):
        A = rng.standard_normal((int(rng.integers(1, 9)), int(rng.integers(1, 9))))
        A *= 10.0 ** rng.integers(-200, 200, size=A.shape)
        A.flat[rng.integers(0, A.size, size=3)] = rng.choice(special, size=3)
        path = str(tmp_path / "m.csv")
        sp.save_matrix(A, path)
        assert np.array_equal(_bits(sp.load_matrix(path)), _bits(A))
    A = np.array([special])
    sp.save_matrix(A, path)
    assert np.array_equal(_bits(sp.load_matrix(path)), _bits(A))


@pytest.fixture(scope="module")
def moons_600():
    return sp.generate_two_moons(600, 0.08, seed=1)


def test_bank_kernel_file_round_trip_is_bitwise(tmp_path, moons_600):
    K = sp.build_standard_bank(moons_600)[0].values
    path = str(tmp_path / "kernel_01.csv")
    sp.save_matrix(K, path)
    assert np.array_equal(_bits(sp.load_matrix(path)), _bits(K))
    with open(path) as fh:
        assert fh.read() == format_matrix(K)


def test_matrix_file_bytes_are_pinned():
    text = format_matrix([[-0.0, 5e-324, 0.1, 1 / 3, 1e308, 2.0]])
    assert text == "1,6\n-0,4.9406564584124654e-324,0.10000000000000001,0.33333333333333331,1e+308,2\n"


# sha256 of the float64 bytes of the 12 bank kernels of two-moons n=600 (noise 0.08,
# seed 1): kernels are written as .npy, so their bits are pinned, not their text
_BANK_600_SHA256 = [
    "9e8260910f706157d8dcce1fbc6b565a2416b845debf71e9cc460576e0884ad9",
    "9ce9d985cceac8528c334d60a82ba758c9d53b11b619f31f622e6684d55e88d6",
    "3dbb03efb1db8033a97fe03eea494454ef528239d26f74e5e15e20fd976c48d0",
    "3e094a2cab7e0a76a5fe0abc43b0d525f82d6ab506c25fa38033f6a4d25aeb1b",
    "0c234b5ba8d128913c2b2cd6a83425ac0b647d05f67b5093baa51d01573d2d98",
    "10613fd3836e396975b80586c084aa9e33cf4bb20a498eb06e078bd1824c18fb",
    "40e6d6923b29d4712b6594c7b6458007be445a5e4e0cbc167a3f234f499bfce4",
    "cc318e86580d1c8c9027dfffbd9a5a2a4799e17758e06ae547c7e347f57dd794",
    "f894f65dd7cb6565fa508acb76bc4d10524c91f1ea88f57d1d22a34f33d1ba14",
    "ed01072c891d86ace5899c7fda877e2563f2ea70253c5abd1b248af71325a7ef",
    "37f6026eb5296d81ad7823e9b0ac93218fa7d413aed3f7ee5b2d3cba16967558",
    "24e3e05a883739e71a2bf0668f51ba9d5bbf67b3b66aaa75125d1f95c0e11272",
]
# sha256 of format_matrix for the data matrix itself and for a square non-symmetric matrix
_MOONS_600_SHA256 = "672b0795b646f2d7bb3e3fd4db0f41bbee8cb88e80710d41aea2dfd0d8d646cd"
_NONSYMMETRIC_7_SHA256 = "5981dd34e0c9026a0a054fadba3c7fb7ca416f39085cea0e87bf1810c53da637"


def _sha256(A):
    return hashlib.sha256(format_matrix(A).encode()).hexdigest()


def test_matrix_file_digests_are_pinned(moons_600):
    bank = sp.build_standard_bank(moons_600)
    assert [hashlib.sha256(K.values.tobytes()).hexdigest() for K in bank] == _BANK_600_SHA256
    assert _sha256(moons_600.values) == _MOONS_600_SHA256
    assert _sha256(np.random.default_rng(1).standard_normal((7, 7))) == _NONSYMMETRIC_7_SHA256


def test_mirrored_pairs_round_trip_bitwise(tmp_path):
    # a -0.0 facing a 0.0 and two NaN payloads facing each other in a text file:
    # each entry comes back exactly, but for the payload
    quiet, payload = np.float64(np.nan), np.uint64(0x7FF8000000000001).view(np.float64)
    path = str(tmp_path / "m.csv")
    for a, b in ((-0.0, 0.0), (0.0, -0.0), (quiet, payload), (payload, payload), (-0.0, -0.0)):
        A = np.array([[1.0, a, 2.0], [b, 3.0, 4.0], [2.0, 4.0, 5.0]])
        sp.save_matrix(A, path)
        with open(path) as fh:
            assert fh.read() == format_matrix(A)
        for back in (sp.load_matrix(path), parse_matrix(format_matrix(A))):
            want = A.copy()
            if np.isnan(a):  # the text "nan" reads back as the canonical NaN
                want[0, 1] = want[1, 0] = np.nan
            assert np.array_equal(_bits(back), _bits(want))


def test_square_non_symmetric_matrix_round_trips(tmp_path):
    rng = np.random.default_rng(3)
    path = str(tmp_path / "m.csv")
    for A in (rng.standard_normal((6, 6)), np.triu(np.ones((5, 5))), np.eye(4) + np.eye(4, k=-3) * 1e-300):
        sp.save_matrix(A, path)
        assert np.array_equal(_bits(sp.load_matrix(path)), _bits(A))
    S = rng.standard_normal((6, 6))
    S = S + S.T
    S[5, 4] = np.nextafter(S[4, 5], np.inf)  # symmetric but for the last row
    assert np.array_equal(_bits(parse_matrix(format_matrix(S))), _bits(S))


def test_matrix_format_header_and_body():
    text = format_matrix(np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 0.0]]))
    lines = text.splitlines()
    assert lines[0] == "2,3"
    assert lines[1] == "0,1,2"
    A = parse_matrix(text)
    assert A.shape == (2, 3)


def test_matrix_parse_errors():
    with pytest.raises(ValueError, match="header"):
        parse_matrix("2\n1\n2\n")
    with pytest.raises(ValueError, match="header"):
        parse_matrix("a,b\n")
    with pytest.raises(ValueError, match="positive"):
        parse_matrix("0,2\n")
    with pytest.raises(ValueError, match="promises 2 rows"):
        parse_matrix("2,2\n1,2\n")
    with pytest.raises(ValueError, match="promises 1000000 rows, file has 1 data lines"):
        parse_matrix("1000000,1000000\n1,2\n")  # nothing sized from the header alone
    with pytest.raises(ValueError, match="line 2, column 2"):
        parse_matrix("1,2\n1,oops\n")
    with pytest.raises(ValueError, match="expected 2 values"):
        parse_matrix("1,2\n1,2,3\n")
    with pytest.raises(ValueError, match="content after row 1"):
        parse_matrix("1,1\n5\n6\n")


def test_matrix_writer_rejects_what_the_reader_would(tmp_path):
    for path in (str(tmp_path / "empty.csv"), str(tmp_path / "empty.npy")):
        for shape in [(0, 3), (3, 0)]:
            with pytest.raises(ValueError, match=re.escape(f"positive, got shape {shape}")):
                sp.save_matrix(np.empty(shape), path)
            with pytest.raises(ValueError, match="positive"):
                format_matrix(np.empty(shape))
        for shape in [(3,), (2, 2, 2)]:
            with pytest.raises(ValueError, match=re.escape(f"2-D, got shape {shape}")):
                sp.save_matrix(np.zeros(shape), path)
    assert os.listdir(tmp_path) == []


def test_npy_round_trip_is_bitwise(tmp_path):
    # the binary file keeps every bit, the NaN payloads that text reads back as
    # the canonical NaN included, and reads back C-ordered
    payloads = np.array([[1.0, np.nan], [np.nan, 2.0]])
    payloads.view(np.uint64)[1, 0] = 0x7FF8000000000001
    rng = np.random.default_rng(4)
    cases = [
        np.array([[1.0, -0.0], [0.0, 2.0]]),  # a -0.0 facing a 0.0
        payloads,
        np.array([[5e-324, -5e-324], [1e308, 5e-324]]),
        rng.standard_normal((6, 6)),  # square, not symmetric
        np.array([[1.0, 2.0, 3.0, 4.0, 5.0]]),  # 1 x k
        np.asfortranarray(rng.standard_normal((5, 3))),
    ]
    path = str(tmp_path / "m.npy")
    for A in cases:
        sp.save_matrix(A, path)
        back = sp.load_matrix(path)
        assert back.flags.c_contiguous and np.array_equal(_bits(back), _bits(A))
    assert not np.array_equal(_bits(parse_matrix(format_matrix(payloads))), _bits(payloads))


def test_npy_reader_refuses_what_is_not_a_matrix(tmp_path):
    cases = [
        (np.array([{"a": 1}, None], dtype=object), "not a .npy matrix file (Object arrays cannot be loaded"),
        (np.arange(4).reshape(2, 2), "a .npy matrix file holds float64 values, found dtype int64"),
        (np.zeros(3), "matrix must be 2-D, got shape (3,)"),
        (np.zeros((2, 2, 2)), "matrix must be 2-D, got shape (2, 2, 2)"),
        (np.zeros((0, 2)), "matrix dimensions must be positive, got shape (0, 2)"),
    ]
    path = str(tmp_path / "m.npy")
    for A, message in cases:
        np.save(path, A, allow_pickle=True)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            sp.load_matrix(path)
    sp.save_matrix(np.eye(4), path)
    whole = (tmp_path / "m.npy").read_bytes()
    # text under a binary name, a file cut short, an empty file
    for content in (format_matrix(np.eye(2)).encode(), whole[:-8], b""):
        (tmp_path / "m.npy").write_bytes(content)
        with pytest.raises(ValueError, match=re.escape(f"{path}: not a .npy matrix file")):
            sp.load_matrix(path)
    with open(path, "wb") as fh:
        np.savez(fh, a=np.eye(2))
    with pytest.raises(ValueError, match=re.escape(f"{path}: a .npy matrix file holds float64 values, found an .npz")):
        sp.load_matrix(path)


def test_text_kernel_files_of_earlier_builds_still_load(tmp_path):
    # build-kernels once wrote each kernel as kernel_NN.csv text; those files read back bit for bit
    bank = sp.build_standard_bank(sp.generate_two_moons(20, 0.08, seed=0))
    for i, K in enumerate(bank, start=1):
        path = tmp_path / f"kernel_{i:02d}.csv"
        path.write_text(format_matrix(K.values))
        assert np.array_equal(_bits(sp.load_matrix(str(path))), _bits(K.values))


# content, then the array parse_matrix gives or its message after the source name
_MATRIX_CONTENT = [
    ("2,2\r\n1,2\r\n3,4\r\n", np.array([[1.0, 2.0], [3.0, 4.0]])),
    ("2,2\r1,2\r3,4", np.array([[1.0, 2.0], [3.0, 4.0]])),
    ("3,3\n1,2,3\n4,5,6\n7,8,9\n\n \n", np.arange(1.0, 10.0).reshape(3, 3)),
    ("3,3\n1,2,3\n4,5,6\n7,8,9x\n", ", line 4, column 3: '9x' is not a number"),
    ("3,3\r\n1,2,3\r\n4,5,6\r\n7,8,\r\n", ", line 4, column 3: '' is not a number"),
    (
        "40,5\n" + "1,2,3,4,5\n" * 36 + "1,2,3,4,5e\n" + "1,2,3,4,5\n" * 3,
        ", line 38, column 5: '5e' is not a number",
    ),
    ("3,2\n1,2\n3,4,5\n6,7\n", ", line 3: expected 2 values, got 3"),
    ("3,2\n1,2\n3,4\n", ": header promises 3 rows, file has 2 data lines"),
    ("3,2\n1,2\nx,4\n", ": header promises 3 rows, file has 2 data lines"),
    ("1,2\n1,2\n\n3,4\n", ": unexpected content after row 1: '3,4'"),
    ("1,2\nx,2\n3,4\n", ": unexpected content after row 1: '3,4'"),
    # symmetric files
    ("3,3\r\n1,2,3\r\n2,5,6\r\n3,6,9\r\n", np.array([[1.0, 2, 3], [2, 5, 6], [3, 6, 9]])),
    ("2,2\r\n1,2\r\n2,4", np.array([[1.0, 2.0], [2.0, 4.0]])),
    ("3,3\n1,1.0,1e0\n1,2,3\n1.0,3,4\n", np.array([[1.0, 1, 1], [1, 2, 3], [1, 3, 4]])),
    ("3,3\n1,2,x\n2,5,6\nx,6,9\n", ", line 2, column 3: 'x' is not a number"),
    ("3,3\n1,2,3\n2,5,y\n3,y,9\n", ", line 3, column 3: 'y' is not a number"),
    ("3,3\n1,2,3\n2,5,6\n3,6x,9\n", ", line 4, column 2: '6x' is not a number"),
    ("4,4\n1,2,3,4\n2,5,6,7\n3,6,8,9\n4,7,9,1 0\n", ", line 5, column 4: '1 0' is not a number"),
    ("3,3\n1,2,3\n2,5\n3,6,9\n", ", line 3: expected 3 values, got 2"),
    ("2,x\r\n1\r\n", ", line 1: header must be two integers, got '2,x'"),
    ("", ": empty matrix file"),
]


@pytest.mark.parametrize("content, expected", _MATRIX_CONTENT)
def test_parse_and_load_agree(tmp_path, content, expected):
    path = str(tmp_path / "m.csv")
    with open(path, "w", newline="") as fh:
        fh.write(content)

    def outcome(read):
        try:
            return _bits(read())
        except ValueError as e:
            return str(e)

    from_text = outcome(lambda: parse_matrix(content, source=path))
    from_file = outcome(lambda: sp.load_matrix(path))
    if isinstance(expected, str):
        assert from_text == from_file == path + expected
    else:
        assert np.array_equal(from_text, _bits(expected))
        assert np.array_equal(from_file, _bits(expected))


def test_matrix_values_use_float_syntax():
    fields = ["1_0", " 1.5 ", "nan", "inf", "-Infinity", "+2E-3"]
    A = parse_matrix(f"1,{len(fields)}\n" + ",".join(fields) + "\n")
    assert np.array_equal(_bits(A), _bits([[float(f) for f in fields]]))


def test_no_temp_file_left_behind(tmp_path):
    sp.save_matrix(np.eye(2), str(tmp_path / "a.csv"))
    sp.save_matrix(np.eye(2), str(tmp_path / "a.npy"))
    assert sorted(os.listdir(tmp_path)) == ["a.csv", "a.npy"]


class _FullDisk:
    """A file open for writing that raises ENOSPC once its byte budget is spent."""

    def __init__(self, fh, budget):
        self.fh, self.budget = fh, budget

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, s):
        if len(s) > self.budget:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.budget -= len(s)
        return self.fh.write(s)


def _disk_full_after(nbytes):
    real_open = open

    def fake_open(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        return _FullDisk(fh, nbytes) if "w" in mode else fh

    return fake_open


def test_failed_write_leaves_directory_unchanged(tmp_path, monkeypatch):
    text_path, binary_path = str(tmp_path / "kernel.csv"), str(tmp_path / "kernel.npy")
    sp.save_matrix(np.eye(3), text_path)
    sp.save_matrix(np.eye(3), binary_path)
    (tmp_path / "report.txt").write_text("old report\n")
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}

    # the .npy header fits in 200 bytes; the whole text, written at once, or the binary data does not
    monkeypatch.setattr(workbench, "open", _disk_full_after(200), raising=False)
    for path in (text_path, binary_path, str(tmp_path / "new.csv"), str(tmp_path / "new.npy")):
        with pytest.raises(OSError, match="No space"):
            sp.save_matrix(np.full((40, 40), 1 / 3), path)
    with pytest.raises(OSError, match="No space"):
        sp.run_experiment(run_cfg(tmp_path, out=str(tmp_path)))  # report.txt is written first
    monkeypatch.undo()

    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before


# --- label files ---------------------------------------------------------------------


def test_labels_round_trip(tmp_path):
    path = str(tmp_path / "y.labels")
    sp.save_labels([3, 1, 2, 1], path)
    assert np.array_equal(sp.load_labels(path), [3, 1, 2, 1])


def test_labels_writer_refuses_what_the_reader_would(tmp_path):
    # an empty array and a non-integral value raise before any file is opened
    path = str(tmp_path / "y.labels")
    with pytest.raises(ValueError, match="no labels"):
        sp.save_labels([], path)
    for labels in ([1.7, -2], [0.0, float("nan")], [1.0, float("inf")], ["a", "b"]):
        with pytest.raises(ValueError, match="not an integer|must be integers"):
            sp.save_labels(labels, path)
    assert os.listdir(tmp_path) == []
    # integral floats and booleans are written as integers, as before
    sp.save_labels(np.array([3.0, -1.0, 0.0]), path)
    with open(path) as fh:
        assert fh.read() == "3\n-1\n0\n"
    sp.save_labels(np.array([True, False]), path)
    assert np.array_equal(sp.load_labels(path), [1, 0])


def test_labels_parse_errors(tmp_path):
    path = str(tmp_path / "y.labels")
    path2 = str(tmp_path / "empty.labels")
    with open(path, "w") as fh:
        fh.write("0\n\nx\n")
    with pytest.raises(ValueError, match="line 3"):
        sp.load_labels(path)
    with open(path2, "w") as fh:
        fh.write("\n")
    with pytest.raises(ValueError, match="empty"):
        sp.load_labels(path2)


def test_dense_matrix_with_companion_labels(tmp_path):
    data = str(tmp_path / "d.csv")
    sp.save_matrix(np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 0.0]]), data)
    X = sp.load_dense_matrix(data)
    assert X.labels is None  # no companion file, silently skipped

    sp.save_labels([0, 1, 1], companion_labels_path(data))
    X = sp.load_dense_matrix(data)
    assert np.array_equal(X.labels, [0, 1, 1])

    with pytest.raises(FileNotFoundError):
        sp.load_dense_matrix(data, labels_path=str(tmp_path / "nope.labels"))
    sp.save_labels([0, 1], str(tmp_path / "short.labels"))
    with pytest.raises(ValueError, match="2 labels for 3 samples"):
        sp.load_dense_matrix(data, labels_path=str(tmp_path / "short.labels"))


# --- synthetic data --------------------------------------------------------------------


def test_two_moons_noiseless_geometry():
    X = sp.generate_two_moons(4, noise_sigma=0.0, seed=0)
    th = np.array([0.0, np.pi])
    expect = np.array(
        [
            np.concatenate([np.cos(th), 1.0 - np.cos(th)]),
            np.concatenate([np.sin(th), 0.5 - np.sin(th)]),
        ]
    )
    assert np.array_equal(X.values, expect)
    assert np.array_equal(X.labels, [0, 0, 1, 1])


def test_two_moons_arcs_have_unit_radius():
    X = sp.generate_two_moons(40, noise_sigma=0.0, seed=0)
    upper, lower = X.values[:, :20], X.values[:, 20:]
    assert np.allclose(np.linalg.norm(upper, axis=0), 1.0, atol=1e-12)
    centered = lower - np.array([[1.0], [0.5]])
    assert np.allclose(np.linalg.norm(centered, axis=0), 1.0, atol=1e-12)
    assert np.all(upper[1] >= -1e-12)  # upper arc stays above the axis
    assert np.all(lower[1] <= 0.5 + 1e-12)


def test_two_moons_seeded_and_validated():
    a = sp.generate_two_moons(30, 0.1, seed=3)
    b = sp.generate_two_moons(30, 0.1, seed=3)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, sp.generate_two_moons(30, 0.1, seed=4).values)
    with pytest.raises(ValueError, match="even"):
        sp.generate_two_moons(7, 0.1)
    with pytest.raises(ValueError, match="noise"):
        sp.generate_two_moons(8, -0.1)
    for seed in (-1, 1.5, True):
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer >= 0, got {seed!r}")):
            sp.generate_two_moons(8, 0.1, seed=seed)


def test_two_moons_refuses_non_finite_noise():
    for noise in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="noise_sigma must be finite"):
            sp.generate_two_moons(8, noise)


def test_resolve_dataset_sources(tmp_path):
    X = resolve_dataset("moons:n=10,noise=0.0,seed=2")
    assert X.n_samples == 10
    path = str(tmp_path / "d.csv")
    sp.save_matrix(np.eye(3), path)
    Y = resolve_dataset(f"file:{path}")
    assert Y.n_samples == 3
    with pytest.raises(FileNotFoundError):
        resolve_dataset("file:/no/such/file.csv")
    with pytest.raises(ValueError, match="unknown"):
        resolve_dataset("moons:radius=2")
    with pytest.raises(ValueError, match="'n' must be an integer, got 'abc'"):
        resolve_dataset("moons:n=abc")
    with pytest.raises(ValueError, match="'noise' must be a number, got 'x'"):
        resolve_dataset("moons:noise=x")
    with pytest.raises(ValueError, match="source"):
        resolve_dataset("blobs:n=4")


# --- kernel selection ---------------------------------------------------------------------


def _kernels_of(X, choice):
    # the normalized kernel(s) run_experiment builds for a choice string
    return list(_kernels(X, sp.KernelSpec.parse(choice)))


def test_build_kernel_choice():
    X = sp.generate_two_moons(20, 0.05, seed=0)
    assert len(_kernels_of(X, "bank")) == 12
    (K,) = _kernels_of(X, "gaussian:0.5")
    assert K.spec == sp.KernelSpec("gaussian", t=0.5)
    assert K.values.min() == 0.0 and K.values.max() == 1.0
    for choice in ("poly:1,2", "poly:1,2.0"):  # an integral float exponent is an integer
        (K,) = _kernels_of(X, choice)
        assert (K.spec.a, K.spec.b) == (1.0, 2) and type(K.spec.b) is int
    with pytest.raises(ValueError, match="polynomial exponent b must be an integer >= 1, got 2.5"):
        _kernels_of(X, "poly:1,2.5")
    (K,) = _kernels_of(X, "linear")
    assert K.spec.family == "linear"
    for bad in ("gaussian", "poly:1", "poly:a,b", "rbf:1"):
        with pytest.raises(ValueError):
            _kernels_of(X, bad)
    # non-finite parameters are refused by name, and an overflowing power is
    # reported as a non-finite kernel rather than warned about
    for bad, message in (
        ("gaussian:inf", "gaussian scale t must be positive and finite, got inf"),
        ("poly:inf,2", "polynomial offset a must be finite, got inf"),
        ("poly:1e308,2", "polynomial kernel has non-finite entry"),
    ):
        with pytest.raises(ValueError, match=message):
            _kernels_of(X, bad)


def test_kernel_labels():
    # str(spec) writes the choice text that KernelSpec.parse reads back to the same spec
    X = sp.generate_two_moons(12, 0.05, seed=0)
    assert str(_kernels_of(X, "gaussian:10")[0].spec) == "gaussian:10"
    assert str(_kernels_of(X, "poly:0,2")[0].spec) == "poly:0,2"
    assert str(_kernels_of(X, "linear")[0].spec) == "linear"
    bank = sp.KernelSpec.parse("bank")
    assert len(bank) == 12
    for spec in bank:
        assert sp.KernelSpec.parse(str(spec)) == (spec,), spec
    for choice in ("gaussian:0.0123456789", "gaussian:1e-5", f"gaussian:{1 / 3!r}", "poly:0.123456789,3", "poly:-0.5,1"):
        (K,) = _kernels_of(X, choice)
        assert sp.KernelSpec.parse(str(K.spec)) == (K.spec,), choice


# --- configuration --------------------------------------------------------------------------


def test_config_from_json_with_overrides(tmp_path):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        fh.write('{"source": "moons:n=20", "alpha": 2.5, "clusters": 3}')
    cfg = ExperimentConfig.from_sources(cfg_path, {"alpha": 4.0})
    assert cfg.alpha == 4.0  # flag wins
    assert cfg.clusters == 3
    assert cfg.source == "moons:n=20"


def test_config_json_values_must_match_field_types(tmp_path):
    cfg_path = str(tmp_path / "cfg.json")
    for entry, message in (
        ('"adapt_beta": "false"', "'adapt_beta' must be bool, got 'false'"),
        ('"max_iters": 2.5', "'max_iters' must be int, got 2.5"),
        ('"alpha": "4"', "'alpha' must be float, got '4'"),
        ('"seed": true', "'seed' must be int, got True"),
        ('"alpha": false', "'alpha' must be float, got False"),
        ('"kernel": 3', "'kernel' must be str, got 3"),
    ):
        with open(cfg_path, "w") as fh:
            fh.write('{"source": "moons", %s}' % entry)
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_sources(cfg_path, {})
    with open(cfg_path, "w") as fh:
        fh.write('{"source": "moons", "alpha": 4, "adapt_beta": true, "max_iters": 7}')
    cfg = ExperimentConfig.from_sources(cfg_path, {})
    assert (cfg.alpha, cfg.adapt_beta, cfg.max_iters) == (4, True, 7)


def test_config_errors(tmp_path):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        fh.write('{"source": "moons", "volume": 11}')
    with pytest.raises(ValueError, match="volume"):
        ExperimentConfig.from_sources(cfg_path, {})
    with pytest.raises(ValueError, match="source"):
        ExperimentConfig.from_sources(None, {"alpha": 2.0})
    with pytest.raises(ValueError, match="mode"):
        ExperimentConfig(source="moons", mode="fast")
    with pytest.raises(ValueError, match="max_iters"):
        ExperimentConfig(source="moons", max_iters=2.5)
    with pytest.raises(ValueError, match="gamma"):
        ExperimentConfig(source="moons", gamma=0.0)


def test_config_fields_follow_solver_config(tmp_path):
    solver = {f.name: f.type for f in dataclasses.fields(sp.SpcConfig)}
    experiment = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
    assert solver.items() <= experiment.items()
    # the report's config rebuilds the run's ExperimentConfig, and a JSON
    # "alpha": 4 and the flag value 4.0 give the same report outside timings
    settings = run_cfg_settings(tmp_path)
    del settings["alpha"]
    cfg_path = tmp_path / "cfg.json"
    views = []
    for in_file, flags in (({**settings, "alpha": 4}, {}), (settings, {"alpha": 4.0})):
        cfg_path.write_text(json.dumps(in_file))
        cfg = ExperimentConfig.from_sources(str(cfg_path), flags)
        sp.run_experiment(cfg)
        text = (tmp_path / "run" / "report.txt").read_text()
        assert ExperimentConfig(**RunReport.from_text(text).config) == cfg
        views.append(_without_clocks(text))
    assert '"alpha": 4.0,' in views[0]
    assert views[0] == views[1]


# --- reports -----------------------------------------------------------------------------------


def sample_trace():
    return SpcTrace(
        objective=[10.5, -3.25],
        objective_after_embedding=[11.0, -3.0],
        objective_after_graph=[10.75, -3.5],
        rel_change=[1.0, 0.125],
        near_zero_eigs=[1, 2],
        beta=[0.125, 0.25],
        wall_time=[0.5, 0.375],
    )


def sample_report():
    return RunReport(
        config={"source": "moons", "alpha": 1.2, "clusters": 2, "adapt_beta": True},
        converged=True,
        components=2,
        metrics={"accuracy": 0.983333, "nmi": 0.882255, "purity": 0.983333},
        weights=[0.25, 0.75],
        trace=sample_trace(),
        timings={"total_seconds": 1.25},
    )


def test_report_round_trip():
    rep = sample_report()
    back = RunReport.from_text(rep.to_text())
    assert back == rep and isinstance(back.trace, SpcTrace)
    # values that no fixed number of digits keeps: every float reads back bit for bit
    rep.metrics = {"accuracy": 59 / 60, "nmi": 0.1 + 0.2, "purity": 59 / 60}
    rep.timings = {"total_seconds": 0.1234567}
    rep.trace.objective = [1 / 3, -2.5e-300]
    rep.trace.rel_change = [float("inf"), 5e-324]
    rep.trace.wall_time = [0.1 + 0.7, 1e-7]
    assert RunReport.from_text(rep.to_text()) == rep
    assert json.loads(rep.to_text())["version"] == "spc-report/3" == REPORT_VERSION
    rep.trace.objective[1] = float("nan")  # nan != nan, so the report no longer equals itself
    assert np.isnan(RunReport.from_text(rep.to_text()).trace.objective[1])


def test_report_without_optional_sections():
    rep = sample_report()
    rep.metrics = None
    rep.weights = None
    rep.trace = SpcTrace()  # a trace with no iterations is well formed
    text = rep.to_text()
    assert json.loads(text)["metrics"] is None and json.loads(text)["weights"] is None
    assert RunReport.from_text(text) == rep


_DROP = object()


def _edited(data, changes):
    return {k: v for k, v in {**data, **changes}.items() if v is not _DROP}


def _edited_report(**changes):
    # sample_report's text with keys changed, added, or dropped (set to _DROP)
    return json.dumps(_edited(dataclasses.asdict(sample_report()), changes))


def _edited_trace(**changes):
    # sample_trace's object with series changed, added, or dropped (set to _DROP)
    return _edited(dataclasses.asdict(sample_trace()), changes)


def test_report_parse_errors():
    for text, message in (
        ("spc-report/1\n[config]\nsource = moons\n", "not a spc-report/3 JSON object"),
        ('{"version": "spc-report/3",', "not a spc-report/3 JSON object"),
        ("[1, 2]", "not a spc-report/3 JSON object"),
        ("[" * 100000, "not a spc-report/3 JSON object"),
        (_edited_report(version="spc-report/1"), "version 'spc-report/1'; expected spc-report/3"),
        (_edited_report(version="spc-report/2"), "version 'spc-report/2'; expected spc-report/3"),
        (_edited_report(converged=_DROP), "report is missing key 'converged'"),
        (_edited_report(stop_reason="tol"), "report has unknown key 'stop_reason'"),
        (_edited_report(iterations=2), "report has unknown key 'iterations'"),
        (_edited_report(components=True), "'components' must be int, got True"),
        (_edited_report(components=2.0), "'components' must be int, got 2.0"),
        (_edited_report(converged="yes"), "'converged' must be bool"),
        (_edited_report(weights=[0.25, False]), "'weights' must be Optional[list[float]]"),
        (_edited_report(timings=None), "'timings' must be dict[str, float], got None"),
        (_edited_report(config={"nested": [1]}), "'config' must be dict[str, Union[str, bool, int, float]]"),
        (_edited_report(metrics={"accuracy": 1.0, "nmi": 1.0}), "'metrics' must hold exactly accuracy, nmi, purity"),
        (_edited_report(trace=[1.0, 0.5]), "report key 'trace' must be SpcTrace, got [1.0, 0.5]"),
        (_edited_report(trace=_edited_trace(stop=["tol", "tol"])), "report key 'trace' has unknown key 'stop'"),
        (
            _edited_report(trace=_edited_trace(near_zero_eigs=[1, 2.0])),
            "report key 'trace' key 'near_zero_eigs' must be list[int], got [1, 2.0]",
        ),
        (
            _edited_report(trace=_edited_trace(beta=[0.125, True])),
            "report key 'trace' key 'beta' must be list[float], got [0.125, True]",
        ),
        (
            _edited_report(trace=_edited_trace(rel_change=[1.0])),
            "report key 'trace' holds series of unequal length: objective 2, objective_after_embedding 2, "
            "objective_after_graph 2, rel_change 1, near_zero_eigs 2, beta 2, wall_time 2",
        ),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            RunReport.from_text(text)


def test_report_reader_checks_every_field():
    # the reader's schema is the field annotations: a text without any one
    # field of RunReport, or of SpcTrace under 'trace', is refused by name
    for f in dataclasses.fields(RunReport):
        message = "report version None" if f.name == "version" else f"report is missing key {f.name!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            RunReport.from_text(_edited_report(**{f.name: _DROP}))
    for f in dataclasses.fields(SpcTrace):
        with pytest.raises(ValueError, match=re.escape(f"report key 'trace' is missing key {f.name!r}")):
            RunReport.from_text(_edited_report(trace=_edited_trace(**{f.name: _DROP})))


def test_report_schema_follows_the_trace_annotations(monkeypatch):
    # a series added to SpcTrace reaches the report, checked, with no report code
    @dataclasses.dataclass
    class TraceWithStops(SpcTrace):
        stop: list[str] = dataclasses.field(default_factory=list)

    monkeypatch.setattr(workbench, "SpcTrace", TraceWithStops)
    rep = sample_report()
    rep.trace = TraceWithStops(**dataclasses.asdict(sample_trace()), stop=["beta", "tol"])
    assert RunReport.from_text(rep.to_text()) == rep
    data = json.loads(rep.to_text())
    del data["trace"]["stop"]
    with pytest.raises(ValueError, match="report key 'trace' is missing key 'stop'"):
        RunReport.from_text(json.dumps(data))


# --- end to end ----------------------------------------------------------------------------------


def _without_clocks(text):
    # report text without its clock readings, the timings and the trace's wall_time
    view = dataclasses.asdict(RunReport.from_text(text))
    del view["timings"], view["trace"]["wall_time"]
    return json.dumps(view)


def run_cfg_settings(tmp_path):
    return dict(
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


def run_cfg(tmp_path, **kw):
    return ExperimentConfig(**{**run_cfg_settings(tmp_path), **kw})


def test_run_experiment_writes_report_labels_graph(tmp_path):
    cfg = run_cfg(tmp_path)
    rep = sp.run_experiment(cfg)
    assert rep.metrics is not None and set(rep.metrics) == {"accuracy", "nmi", "purity"}
    assert rep.components == 2
    out = str(tmp_path / "run")
    labels = sp.load_labels(os.path.join(out, "labels.txt"))
    assert labels.size == 60
    graph = sp.load_matrix(os.path.join(out, "graph.npy"))
    assert graph.shape == (60, 60)
    with open(os.path.join(out, "report.txt")) as fh:
        parsed = RunReport.from_text(fh.read())
    assert parsed == rep  # full-precision metrics, timings and traces


@pytest.mark.parametrize(
    "settings",
    [{}, dict(kernel="bank", mode="mspc", alpha=1.0, beta=0.5, gamma=3.0), dict(clusters=np.int64(2))],
    ids=["spc", "mspc", "numpy-clusters"],
)
def test_report_carries_the_run_trace(tmp_path, monkeypatch, settings):
    cfg = run_cfg(tmp_path, **settings)
    solver = f"run_{cfg.mode}"
    real, runs = getattr(workbench, solver), []
    monkeypatch.setattr(workbench, solver, lambda *a: runs.append(real(*a)) or runs[-1])
    rep = sp.run_experiment(cfg)
    result = runs[0] if cfg.mode == "spc" else runs[0][0]
    text = (tmp_path / "run" / "report.txt").read_text()
    parsed = RunReport.from_text(text)
    assert parsed == rep and '"clusters": 2,' in text  # a numpy integer setting is written as a JSON int
    assert parsed.trace == result.trace and parsed.trace.iterations > 1


def test_run_experiment_requires_single_kernel_for_spc(tmp_path, monkeypatch):
    with pytest.raises(ValueError, match="single kernel"):
        sp.run_experiment(run_cfg(tmp_path, kernel="bank"))
    # rejected when the config is built, before any data is loaded or kernel built
    with pytest.raises(ValueError, match="single kernel"):
        run_cfg(tmp_path, kernel="bank", source="file:/no/such/file.csv")
    monkeypatch.setattr(workbench, "_kernels", None)
    with pytest.raises(FileNotFoundError, match="/no/such/file.csv"):
        sp.run_experiment(run_cfg(tmp_path, source="file:/no/such/file.csv"))


def test_malformed_kernel_choice_is_refused_when_the_config_is_built():
    # before any data is loaded: the source names a file that does not exist
    for mode in ("spc", "mspc"):
        with pytest.raises(ValueError, match="kernel choice 'rbf:1' not understood"):
            ExperimentConfig(source="file:/no/such.csv", kernel="rbf:1", mode=mode)


def test_metrics_absent_without_ground_truth(tmp_path):
    data = str(tmp_path / "d.csv")
    X = sp.generate_two_moons(40, 0.05, seed=2)
    sp.save_matrix(X.values, data)  # no companion labels
    cfg = run_cfg(tmp_path, source=f"file:{data}")
    rep = sp.run_experiment(cfg)
    assert rep.metrics is None
    assert json.loads(rep.to_text())["metrics"] is None
    assert os.path.exists(os.path.join(str(tmp_path / "run"), "labels.txt"))


def test_mspc_report_carries_feasible_weights(tmp_path):
    cfg = run_cfg(
        tmp_path, kernel="bank", mode="mspc", alpha=1.0, beta=0.5, gamma=3.0
    )
    rep = sp.run_experiment(cfg)
    assert rep.weights is not None and len(rep.weights) == 12
    assert abs(sum(np.sqrt(w) for w in rep.weights) - 1.0) <= 1e-12


def test_run_experiment_deterministic(tmp_path):
    text = []
    for d in ("r1", "r2"):
        cfg = run_cfg(tmp_path, out=str(tmp_path / d))
        sp.run_experiment(cfg)
        with open(tmp_path / d / "report.txt") as fh:
            body = fh.read()
        # the out directory is part of the config echo; mask it
        text.append(_without_clocks(body).replace(str(tmp_path / d), "OUT"))
    assert text[0] == text[1]


# --- scatter files -------------------------------------------------------------------------------


def test_svg_glyph_count_and_determinism(tmp_path):
    X = sp.Dataset(np.array([[0.0, 1.0], [0.0, 1.0]]))
    path = str(tmp_path / "s.svg")
    sp.emit_scatter_svg(X, [0, 1], path)
    with open(path) as fh:
        body = fh.read()
    assert body.count("<circle") == 2
    assert body.startswith("<svg")
    sp.emit_scatter_svg(X, [0, 1], str(tmp_path / "s2.svg"))
    with open(tmp_path / "s2.svg") as fh:
        assert fh.read() == body


def test_svg_rejects_bad_inputs(tmp_path):
    path = str(tmp_path / "s.svg")
    with pytest.raises(ValueError, match="2"):
        sp.emit_scatter_svg(sp.Dataset(np.zeros((3, 4))), [0, 0, 0, 1], path)
    with pytest.raises(ValueError, match="labels"):
        sp.emit_scatter_svg(sp.Dataset(np.zeros((2, 4))), [0, 1], path)
    with pytest.raises(ValueError, match="label 1 is 1.7, not an integer"):
        sp.emit_scatter_svg(sp.Dataset(np.zeros((2, 4))), [0.0, 1.7, 2.2, 0.0], path)
    assert not os.path.exists(path)


def test_svg_handles_degenerate_spans(tmp_path):
    X = sp.Dataset(np.array([[1.0, 1.0], [2.0, 2.0]]))
    path = str(tmp_path / "s.svg")
    sp.emit_scatter_svg(X, [0, 0], path)
    with open(path) as fh:
        assert fh.read().count("<circle") == 2
