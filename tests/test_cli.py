import json
import os
from dataclasses import dataclass

import numpy as np
import pytest

import spclust as sp
import spclust.cli as cli
import spclust.workbench as workbench
from spclust.cli import main


def test_gen_moons_writes_dataset(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["gen-moons", "--n", "40", "--noise", "0.05", "--out", out]) == 0
    X = sp.load_dense_matrix(os.path.join(out, "moons.csv"))
    assert X.n_samples == 40
    assert np.array_equal(np.unique(X.labels), [0, 1])


def test_build_kernels_writes_bank_and_manifest(tmp_path):
    out = str(tmp_path / "k")
    assert main(["gen-moons", "--n", "20", "--out", str(tmp_path)]) == 0
    data = os.path.join(str(tmp_path), "moons.csv")
    assert main(["build-kernels", data, "--kernel", "bank", "--out", out]) == 0
    with open(os.path.join(out, "kernels.txt")) as fh:
        manifest = fh.read().splitlines()
    assert len(manifest) == 12
    assert manifest[0] == "kernel_01.csv gaussian:0.01"
    K = sp.load_matrix(os.path.join(out, "kernel_01.csv"))
    assert K.shape == (20, 20)


def test_spc_run_reports_and_exits_zero(tmp_path, capsys):
    out = str(tmp_path / "run")
    code = main(
        [
            "spc",
            "moons:n=60,noise=0.06,seed=1",
            "--kernel",
            "gaussian:0.01",
            "--alpha",
            "4",
            "--beta",
            "0.125",
            "--gamma",
            "1",
            "--adapt-beta",
            "--out",
            out,
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "converged" in stdout
    assert "accuracy" in stdout
    assert os.path.exists(os.path.join(out, "report.txt"))


def test_unconverged_run_exits_two(tmp_path):
    out = str(tmp_path / "run")
    code = main(
        [
            "spc",
            "moons:n=40,noise=0.06,seed=1",
            "--kernel",
            "gaussian:10",
            "--alpha",
            "2",
            "--beta",
            "0.001",
            "--gamma",
            "1",
            "--max-iters",
            "4",
            "--out",
            out,
        ]
    )
    assert code == 2


def test_mspc_defaults_run(tmp_path):
    # the out-of-box defaults must keep every kernel cost positive and
    # converge on the stock moons source
    out = str(tmp_path / "run")
    assert main(["mspc", "moons", "--out", out]) == 0
    with open(os.path.join(out, "report.txt")) as fh:
        assert len(sp.RunReport.from_text(fh.read()).weights) == 12


def test_data_file_named_like_a_source_string(tmp_path, monkeypatch, capsys):
    # moons.csv in the working directory is a data file, not a moons generator string
    monkeypatch.chdir(tmp_path)
    assert main(["gen-moons", "--n", "40", "--noise", "0.06", "--seed", "1"]) == 0
    args = ["--kernel", "gaussian:0.01", "--alpha", "4", "--beta", "0.125", "--adapt-beta", "--out", "run"]
    assert main(["spc", "moons.csv", *args]) == 0
    config = sp.RunReport.from_text((tmp_path / "run" / "report.txt").read_text()).config
    assert config["source"] == "file:moons.csv"
    assert "accuracy = " in capsys.readouterr().out  # the companion labels were picked up


def test_eval_prints_three_metrics(tmp_path, capsys):
    pred = str(tmp_path / "pred.labels")
    truth = str(tmp_path / "truth.labels")
    sp.save_labels([0, 1, 1, 1], pred)
    sp.save_labels([0, 0, 1, 1], truth)
    assert main(["eval", pred, truth]) == 0
    out = capsys.readouterr().out
    assert "accuracy = 0.750000" in out
    assert "nmi = 0.345592" in out
    assert "purity = 0.750000" in out


def test_plot_uses_explicit_or_companion_labels(tmp_path):
    assert main(["gen-moons", "--n", "30", "--out", str(tmp_path)]) == 0
    data = os.path.join(str(tmp_path), "moons.csv")
    labels = os.path.join(str(tmp_path), "moons.labels")
    out = str(tmp_path / "plots")
    assert main(["plot", data, labels, "--out", out]) == 0
    svg = os.path.join(out, "scatter.svg")
    with open(svg) as fh:
        assert fh.read().count("<circle") == 30
    # companion labels are found without naming them
    assert main(["plot", data, "--out", out]) == 0


def test_plot_without_any_labels_fails(tmp_path, capsys):
    data = str(tmp_path / "d.csv")
    sp.save_matrix(np.zeros((2, 4)), data)
    assert main(["plot", data, "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    out = str(tmp_path / "run")
    cfg = str(tmp_path / "cfg.json")
    with open(cfg, "w") as fh:
        json.dump(
            {
                "source": "moons:n=40,noise=0.06,seed=1",
                "kernel": "gaussian:0.01",
                "alpha": 2.0,
                "beta": 0.125,
                "adapt_beta": True,
            },
            fh,
        )
    assert main(["spc", "--config", cfg, "--alpha", "4", "--out", out]) == 0
    with open(os.path.join(out, "report.txt")) as fh:
        config = sp.RunReport.from_text(fh.read()).config
    assert config["alpha"] == 4.0
    assert config["beta"] == 0.125


def test_flag_turns_a_config_boolean_off(tmp_path):
    out = tmp_path / "run"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "source": "moons:n=40,noise=0.06,seed=1",
                "kernel": "gaussian:0.01",
                "alpha": 4.0,
                "beta": 0.125,
                "adapt_beta": True,
            }
        )
    )
    # without the anneal this run ends with one component, so it does not converge
    assert main(["spc", "--config", str(cfg), "--no-adapt-beta", "--out", str(out)]) == 2
    assert sp.RunReport.from_text((out / "report.txt").read_text()).config["adapt_beta"] is False


def test_solver_flags_follow_the_config_fields(tmp_path, monkeypatch):
    # a field added to the config gets its flag and its report key with no change to the CLI;
    # the annotation is a string, as in the package's modules
    @dataclass(frozen=True, kw_only=True)
    class Extended(sp.ExperimentConfig):
        z_step: "str" = "clip"

    monkeypatch.setattr(cli, "ExperimentConfig", Extended)
    out = tmp_path / "run"
    args = ["moons:n=40,noise=0.06,seed=1", "--kernel", "gaussian:0.01", "--alpha", "4", "--beta", "0.125"]
    assert main(["spc", *args, "--adapt-beta", "--z-step", "exact", "--out", str(out)]) == 0
    assert sp.RunReport.from_text((out / "report.txt").read_text()).config["z_step"] == "exact"


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["spc", "moons", "--alpha", "abc"]) == 1
    assert main(["warp", "moons"]) == 1
    assert main(["spc", "file:/no/such.csv"]) == 1
    assert main([]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_gen_moons_refuses_nan_noise(tmp_path, capsys):
    assert main(["gen-moons", "--n", "20", "--noise", "nan", "--out", str(tmp_path)]) == 1
    assert "noise_sigma" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_non_finite_setting_exits_one(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["spc", "moons:n=20", "--kernel", "linear", "--gamma", "inf", "--out", str(out)]) == 1
    assert "'gamma' must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_exits_one_naming_the_field(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["spc", "moons:n=40", "--kernel", "linear", "--seed", "-1", "--out", str(out)]) == 1
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_gen_moons_refuses_a_negative_seed(tmp_path, capsys):
    assert main(["gen-moons", "--n", "20", "--seed", "-1", "--out", str(tmp_path)]) == 1
    assert "seed" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize(
    "argv",
    [
        ["moons:n=41", "--kernel", "linear"],
        ["moons:noise=nan", "--kernel", "linear"],
        ["moons:n=40,seed=-1", "--kernel", "linear"],
        ["moons", "--kernel", "gaussian:-1"],
    ],
)
def test_bad_source_or_kernel_leaves_no_output_directory(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main(["spc", *argv, "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_bad_output_path_fails_before_the_solve(tmp_path, monkeypatch, capsys):
    calls = []
    real = workbench.run_spc
    monkeypatch.setattr(workbench, "run_spc", lambda *a: calls.append(a) or real(*a))
    out = tmp_path / "taken"
    out.write_text("a regular file\n")
    assert main(["spc", "moons:n=40", "--kernel", "linear", "--out", str(out)]) == 1
    assert str(out) in capsys.readouterr().err
    assert calls == []


def test_config_integer_too_large_for_a_float_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"source": "moons:n=20", "kernel": "linear", "beta": 1%s}' % ("0" * 400))
    out = tmp_path / "run"
    assert main(["spc", "--config", str(cfg), "--out", str(out)]) == 1
    assert "'beta' must be finite, got an integer too large for a float" in capsys.readouterr().err
    assert not out.exists()


def test_config_integer_beyond_the_digit_limit_names_the_file(tmp_path, capsys):
    # Python refuses to parse an integer literal of more than 4300 digits
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"source": "moons:n=20", "kernel": "linear", "beta": 1%s}' % ("0" * 5000))
    out = tmp_path / "run"
    assert main(["spc", "--config", str(cfg), "--out", str(out)]) == 1
    assert str(cfg) in capsys.readouterr().err
    assert not out.exists()


def test_config_nested_too_deep_names_the_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[" * 100000)
    out = tmp_path / "run"
    assert main(["spc", "--config", str(cfg), "--out", str(out)]) == 1
    assert str(cfg) in capsys.readouterr().err
    assert not out.exists()


def test_eval_missing_file_exits_one(tmp_path, capsys):
    assert main(["eval", str(tmp_path / "a.labels"), str(tmp_path / "b.labels")]) == 1
    assert "error:" in capsys.readouterr().err
