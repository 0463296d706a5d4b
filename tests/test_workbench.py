import dataclasses
import os

import numpy as np
import pytest

import spclust as sp
import spclust.workbench as workbench
from spclust.workbench import (
    ExperimentConfig,
    RunReport,
    _echo_config,
    build_kernel_choice,
    companion_labels_path,
    format_matrix,
    kernel_label,
    parse_matrix,
    report_determinism_view,
    resolve_dataset,
)


# --- matrix files -----------------------------------------------------------------


def test_matrix_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    for _ in range(5):
        A = rng.standard_normal((int(rng.integers(1, 9)), int(rng.integers(1, 9))))
        A *= 10.0 ** rng.integers(-200, 200, size=A.shape)
        path = str(tmp_path / "m.csv")
        sp.save_matrix(A, path)
        assert np.array_equal(sp.load_matrix(path), A)


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
    with pytest.raises(ValueError, match="line 2, column 2"):
        parse_matrix("1,2\n1,oops\n")
    with pytest.raises(ValueError, match="expected 2 values"):
        parse_matrix("1,2\n1,2,3\n")
    with pytest.raises(ValueError, match="content after row 1"):
        parse_matrix("1,1\n5\n6\n")


def test_no_temp_file_left_behind(tmp_path):
    path = str(tmp_path / "a.csv")
    sp.save_matrix(np.eye(2), path)
    assert os.listdir(tmp_path) == ["a.csv"]


# --- label files ---------------------------------------------------------------------


def test_labels_round_trip(tmp_path):
    path = str(tmp_path / "y.labels")
    sp.save_labels([3, 1, 2, 1], path)
    assert np.array_equal(sp.load_labels(path), [3, 1, 2, 1])


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


def test_build_kernel_choice():
    X = sp.generate_two_moons(20, 0.05, seed=0)
    assert len(build_kernel_choice(X, "bank")) == 12
    (K,) = build_kernel_choice(X, "gaussian:0.5")
    assert K.spec == sp.KernelSpec("gaussian", t=0.5) and K.normalized
    (K,) = build_kernel_choice(X, "poly:1,2")
    assert (K.spec.a, K.spec.b) == (1.0, 2)
    (K,) = build_kernel_choice(X, "linear")
    assert K.spec.family == "linear"
    for bad in ("gaussian", "poly:1", "poly:a,b", "rbf:1"):
        with pytest.raises(ValueError):
            build_kernel_choice(X, bad)


def test_kernel_labels():
    X = sp.generate_two_moons(12, 0.05, seed=0)
    assert kernel_label(build_kernel_choice(X, "gaussian:10")[0]) == "gaussian:10"
    assert kernel_label(build_kernel_choice(X, "poly:0,2")[0]) == "poly:0,2"
    assert kernel_label(build_kernel_choice(X, "linear")[0]) == "linear"
    assert kernel_label(sp.KernelMatrix(np.eye(2))) == "combined"


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
    # an integer JSON value for a float field echoes like the float it stands for
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        fh.write('{"source": "moons", "alpha": 4}')
    from_json = ExperimentConfig.from_sources(cfg_path, {})
    from_flag = ExperimentConfig.from_sources(None, {"source": "moons", "alpha": 4.0})
    assert from_json == from_flag
    assert _echo_config(from_json) == _echo_config(from_flag)
    assert _echo_config(from_json)["alpha"] == "4.0"


# --- reports -----------------------------------------------------------------------------------


def sample_report():
    return RunReport(
        config={"source": "moons", "alpha": "1.2"},
        converged=True,
        components=2,
        iterations=17,
        metrics={"accuracy": 0.983333, "nmi": 0.882255, "purity": 0.983333},
        weights=[0.25, 0.75],
        objective_trace=[10.5, -3.25],
        rel_change_trace=[1.0, 0.125],
        timings={"total_seconds": 1.25},
    )


def test_report_round_trip():
    rep = sample_report()
    back = RunReport.from_text(rep.to_text())
    assert back == rep


def test_report_without_optional_sections():
    rep = sample_report()
    rep.metrics = None
    rep.weights = None
    text = rep.to_text()
    assert "[metrics]" not in text and "[weights]" not in text
    assert RunReport.from_text(text) == rep


def test_report_parse_errors():
    rep = sample_report()
    with pytest.raises(ValueError, match="unsupported report format"):
        RunReport.from_text("bogus/1\n[config]\n")
    text = rep.to_text() + "[config]\n"
    with pytest.raises(ValueError, match="duplicate"):
        RunReport.from_text(text)
    text = rep.to_text()
    for old, new, message in (
        ("converged = yes\n", "", "missing 'converged'"),
        ("converged = yes", "converged = maybe", "line 6: bad value for 'converged'"),
        ("components = 2", "components = two", "line 7: bad value for 'components'"),
        ("i0001 = 10.5 1.0", "i0001 = 10.5", "line 17: bad value for 'i0001'"),
    ):
        assert old in text
        with pytest.raises(ValueError, match=message):
            RunReport.from_text(text.replace(old, new))


def test_determinism_view_strips_timings():
    text = sample_report().to_text()
    view = report_determinism_view(text)
    assert "total_seconds" not in view
    assert "[config]" in view


# --- end to end ----------------------------------------------------------------------------------


def run_cfg(tmp_path, **kw):
    base = dict(
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
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_experiment_writes_report_labels_graph(tmp_path):
    cfg = run_cfg(tmp_path)
    rep = sp.run_experiment(cfg)
    assert rep.metrics is not None and set(rep.metrics) == {"accuracy", "nmi", "purity"}
    assert rep.components == 2
    out = str(tmp_path / "run")
    labels = sp.load_labels(os.path.join(out, "labels.txt"))
    assert labels.size == 60
    graph = sp.load_matrix(os.path.join(out, "graph.csv"))
    assert graph.shape == (60, 60)
    with open(os.path.join(out, "report.txt")) as fh:
        parsed = RunReport.from_text(fh.read())
    assert parsed.metrics == rep.metrics


def test_run_experiment_requires_single_kernel_for_spc(tmp_path, monkeypatch):
    with pytest.raises(ValueError, match="single kernel"):
        sp.run_experiment(run_cfg(tmp_path, kernel="bank"))
    # rejected when the config is built, before any data is loaded or kernel built
    with pytest.raises(ValueError, match="single kernel"):
        run_cfg(tmp_path, kernel="bank", source="file:/no/such/file.csv")
    monkeypatch.setattr(workbench, "build_kernel_choice", None)
    with pytest.raises(FileNotFoundError, match="/no/such/file.csv"):
        sp.run_experiment(run_cfg(tmp_path, source="file:/no/such/file.csv"))


def test_metrics_absent_without_ground_truth(tmp_path):
    data = str(tmp_path / "d.csv")
    X = sp.generate_two_moons(40, 0.05, seed=2)
    sp.save_matrix(X.values, data)  # no companion labels
    cfg = run_cfg(tmp_path, source=f"file:{data}")
    rep = sp.run_experiment(cfg)
    assert rep.metrics is None
    assert "[metrics]" not in rep.to_text()
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
        text.append(report_determinism_view(body).replace(str(tmp_path / d), "OUT"))
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


def test_svg_handles_degenerate_spans(tmp_path):
    X = sp.Dataset(np.array([[1.0, 1.0], [2.0, 2.0]]))
    path = str(tmp_path / "s.svg")
    sp.emit_scatter_svg(X, [0, 0], path)
    with open(path) as fh:
        assert fh.read().count("<circle") == 2
