import json

import numpy as np
import pytest

from ellipticsde import DivergenceError, NumericalError, cli, fbm
from ellipticsde.cli import main
from ellipticsde.experiments import parse_config_file


def test_fbm_sample_writes_csv_and_sidecar(tmp_path):
    out = tmp_path / "run"
    assert main(["fbm-sample", "--H", "0.75", "--n", "64", "--seed", "3", "--out", str(out)]) == 0
    sidecar = json.loads((out / "fbm.json").read_text())
    assert sidecar == {"H": 0.75, "n": 64, "seed": 3}
    lines = (out / "path.csv").read_text().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 66
    assert float(lines[1].split(",")[1]) == 0.0


def test_solve_from_fbm_descriptor(tmp_path):
    out = tmp_path / "solve"
    rc = main(
        [
            "solve", "--n", "128", "--path", "fbm:0.75:5", "--sigma", "tanh:0.02,0.01",
            "--M", "30", "--out", str(out),
        ]
    )
    assert rc == 0
    summary = json.loads((out / "solve.json").read_text())
    assert summary["residual"] < 1e-6
    assert summary["contraction_ratio"] < 1.0
    assert 0.0 <= summary["cutoff_value"] <= 1.0
    assert "kappa_norm" in summary["norms"]
    assert summary["smallness"]["holds"] is True
    assert (out / "solution.csv").exists()


def test_solve_from_csv_path(tmp_path):
    src = tmp_path / "driver"
    main(["fbm-sample", "--H", "0.75", "--n", "64", "--seed", "1", "--out", str(src)])
    out = tmp_path / "solve"
    rc = main(
        [
            "solve", "--n", "64", "--path", str(src / "path.csv"),
            "--sigma", "const:0.05", "--M", "30", "--out", str(out),
        ]
    )
    assert rc == 0


def test_solve_csv_grid_mismatch_is_config_error(tmp_path):
    src = tmp_path / "driver"
    main(["fbm-sample", "--H", "0.75", "--n", "64", "--seed", "1", "--out", str(src)])
    rc = main(["solve", "--n", "128", "--path", str(src / "path.csv"), "--out", str(tmp_path)])
    assert rc == 2


def test_solve_bad_sigma_is_config_error(tmp_path):
    rc = main(["solve", "--sigma", "cubic:1", "--out", str(tmp_path)])
    assert rc == 2


def test_solve_divergence_exit_code(tmp_path):
    rc = main(
        [
            "solve", "--n", "128", "--path", "fbm:0.75:21", "--sigma", "tanh:1.0,30.0",
            "--M", "1000000", "--gamma", "0.45", "--kappa", "0.6", "--out", str(tmp_path),
        ]
    )
    assert rc == 3


def test_malliavin_summary(tmp_path):
    out = tmp_path / "mall"
    rc = main(
        [
            "malliavin", "--n", "64", "--path", "fbm:0.75:2", "--sigma", "tanh:0.05,0.02",
            "--M", "1000", "--H", "0.75", "--t", "0.25,0.5", "--out", str(out),
        ]
    )
    assert rc == 0
    summary = json.loads((out / "malliavin.json").read_text())
    assert set(summary["per_t"]) == {"0.25", "0.5"}
    entry = summary["per_t"]["0.5"]
    assert entry["h_norm"] >= 0.0
    assert {"pathwise", "trace", "skorohod"} <= set(entry["strato"])
    assert summary["fd_check_error"] <= 1e-3
    kernel = np.genfromtxt(out / "kernel.csv", delimiter=",")
    assert kernel.shape == (65, 65)


def test_density_cli_with_config_and_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fbm.n = 64\nn_samples = 4\na = 0.0005\n")
    out = tmp_path / "dens"
    rc = main(["density", "--config", str(cfg), "--N", "5", "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "density.json").read_text())
    assert payload["report"]["n_total"] == 5  # flag overrides the file
    assert payload["config"]["fbm"]["n"] == 64
    assert (out / "histogram.csv").read_text().splitlines()[0] == "bin_left,bin_right,count"


def test_density_cli_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["density", "--N", "4", "--n", "64", "--seed", "9", "--a", "0.001"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "density.json").read_bytes() == (out2 / "density.json").read_bytes()


def test_density_cli_invalid_flavor_is_config_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cutoff.flavor = sobolev\nfbm.n = 64\nn_samples = 2\n")
    assert main(["density", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_convergence_cli(tmp_path):
    out = tmp_path / "conv"
    rc = main(["convergence", "--kind", "young", "--sizes", "64,128,256", "--out", str(out)])
    assert rc == 0
    table = json.loads((out / "convergence.json").read_text())
    assert len(table["rows"]) == 3
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "n,value"


def test_malliavin_low_hurst_is_config_error_before_output(tmp_path):
    out = tmp_path / "mall"
    rc = main(
        [
            "malliavin", "--n", "64", "--path", "fbm:0.75:2", "--sigma", "tanh:0.05,0.02",
            "--M", "1000", "--H", "0.5", "--out", str(out),
        ]
    )
    assert rc == 2
    assert not (out / "kernel.csv").exists()
    assert not (out / "malliavin.json").exists()


def test_malliavin_non_node_t_is_config_error_before_output(tmp_path):
    out = tmp_path / "o4"
    rc = main(
        [
            "malliavin", "--n", "64", "--M", "1000", "--sigma", "tanh:0.05,0.02",
            "--t", "0.3", "--out", str(out),
        ]
    )
    assert rc == 2
    assert not out.exists()


def test_malliavin_fd_check_divergence_exit_code(tmp_path, monkeypatch):
    # the base solve converges; the perturbed solves of the fd check diverge
    real = cli.solve_elliptic
    calls = []

    def diverge_after_first(*args, **kwargs):
        calls.append(1)
        if len(calls) > 1:
            raise DivergenceError("forced divergence")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_elliptic", diverge_after_first)
    out = tmp_path / "mall"
    rc = main(
        [
            "malliavin", "--n", "64", "--path", "fbm:0.75:2", "--sigma", "tanh:0.05,0.02",
            "--M", "1000", "--H", "0.75", "--out", str(out),
        ]
    )
    assert rc == 3
    assert len(calls) == 2
    assert not (out / "malliavin.json").exists()


def test_default_config_echo(tmp_path):
    assert main(["solve", "--n", "64", "--out", str(tmp_path / "solve")]) == 0
    echo = json.loads((tmp_path / "solve" / "solve.json").read_text())["config"]
    assert echo["cutoff"] == {
        "level": 2.0, "gamma": 0.5, "p": 2, "epsilon": 0.3, "flavor": "sobolev"
    }
    assert echo["solver"] == {"kappa": 0.55, "tol": 1e-10, "max_iters": 200, "ball_radius": 2.0}
    assert echo["sigma"] == "const:0.1"
    # density defaults are acceptance criterion 10's configuration
    assert main(["density", "--N", "2", "--n", "64", "--out", str(tmp_path / "dens")]) == 0
    echo = json.loads((tmp_path / "dens" / "density.json").read_text())["config"]
    assert echo == {
        "fbm": {"hurst": 0.75, "n": 64, "seed": 0},
        "cutoff": {"level": 2.0, "gamma": 0.3, "p": 5, "epsilon": 0.42, "flavor": "garsia"},
        "sigma": "tanh:0.05,0.02",
        "solver": {"kappa": 0.75, "tol": 1e-10, "max_iters": 200, "ball_radius": 2.0},
        "n_samples": 2,
        "t_eval": 0.5,
        "a": 0.002,
    }


def test_config_file_accepts_every_key(tmp_path):
    values = {
        "fbm.hurst": "0.75", "fbm.n": "64", "fbm.seed": "0", "cutoff.level": "2.0",
        "cutoff.gamma": "0.3", "cutoff.p": "5", "cutoff.epsilon": "0.42",
        "cutoff.flavor": "garsia", "solver.kappa": "0.75", "solver.tol": "1e-10",
        "solver.max_iters": "200", "solver.ball_radius": "2.0", "sigma": "tanh:0.05,0.02",
        "n_samples": "2", "t_eval": "0.5", "a": "0.002", "output_dir": str(tmp_path),
    }
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    assert parse_config_file(cfg) == values


@pytest.mark.parametrize(
    "argv",
    [
        ["malliavin", "--n", "64", "--M", "1000", "--t", "abc"],
        ["convergence", "--kind", "young", "--sizes", "64,x"],
        # non-finite values are configuration errors too
        ["solve", "--n", "64", "--M", "nan"],
        ["solve", "--n", "64", "--M", "inf"],
        ["solve", "--n", "64", "--tol", "nan"],
        ["malliavin", "--n", "64", "--M", "1000", "--t", "nan"],
        ["malliavin", "--n", "64", "--M", "1000", "--t", "inf"],
        ["density", "--N", "4", "--n", "64", "--a", "nan"],
    ],
)
def test_bad_list_flag_is_config_error(tmp_path, argv):
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()


def test_fbm_factorization_failure_is_config_error(tmp_path, monkeypatch):
    def fail(hurst, n):
        raise NumericalError(f"fBm covariance not positive definite (H={hurst}, n={n})")

    monkeypatch.setattr(fbm, "_cholesky_factor", fail)
    assert main(["fbm-sample", "--H", "0.75", "--n", "64", "--out", str(tmp_path)]) == 2
    assert main(["solve", "--n", "64", "--out", str(tmp_path)]) == 2
