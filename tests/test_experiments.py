import numpy as np
import pytest

from ellipticsde import (
    ConfigError,
    CutoffSpec,
    DivergenceError,
    ExperimentConfig,
    FbmConfig,
    GridFunction,
    InvalidInputError,
    SolverConfig,
    convergence_study,
    density_experiment,
    experiments,
    holder_norm,
    lacunary_path,
    report_json,
)
from ellipticsde.experiments import build_experiment_config, parse_config_file


def _config(**overrides):
    base = dict(
        fbm=FbmConfig(hurst=0.75, n=64, seed=0),
        cutoff=CutoffSpec(level=2.0, gamma=0.3, p=5, epsilon=0.42, flavor="garsia"),
        sigma="tanh:0.05,0.02",
        solver=SolverConfig(kappa=0.75, tol=1e-10, max_iters=200),
        n_samples=12,
        t_eval=0.5,
        a=0.002,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_lacunary_path_determinism_and_scaling():
    a = lacunary_path(128, 0.7, phase_seed=3)
    b = lacunary_path(128, 0.7, phase_seed=3)
    np.testing.assert_array_equal(a.values, b.values)
    rough = holder_norm(lacunary_path(256, 0.6, phase_seed=3), 0.8).seminorm
    smooth = holder_norm(lacunary_path(256, 0.9, phase_seed=3), 0.8).seminorm
    assert rough > smooth  # lower exponent means a rougher path


def test_density_requires_nondegenerate_sigma():
    with pytest.raises(ConfigError):
        density_experiment(_config(sigma="const:0.0"))
    with pytest.raises(ConfigError):
        density_experiment(_config(sigma="tanh:0.01,0.02"))  # no lower bound


def test_density_requires_garsia_flavor():
    spec = CutoffSpec(level=2.0, gamma=0.3, p=5, epsilon=0.42, flavor="sobolev")
    with pytest.raises(ConfigError):
        density_experiment(_config(cutoff=spec))


def test_density_requires_malliavin_regime():
    spec = CutoffSpec(level=2.0, gamma=0.5, p=2, epsilon=0.3, flavor="garsia")
    with pytest.raises(InvalidInputError):
        density_experiment(_config(cutoff=spec))


def test_density_requires_high_hurst():
    with pytest.raises(ConfigError):
        density_experiment(_config(fbm=FbmConfig(hurst=0.45, n=64, seed=0)))


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        _config(n_samples=0)
    with pytest.raises(ConfigError):
        _config(a=-1.0)
    with pytest.raises(ConfigError):
        _config(t_eval=0.123)  # not a node of n=64


def test_density_large_exclusion_radius_empties_omega_a():
    rep = density_experiment(_config(a=100.0, n_samples=6))
    assert rep.n_omega_a == 0
    assert rep.positive_norm_fraction == 0.0
    assert rep.min_h_norm_on_omega_a is None
    assert rep.histogram_counts == []
    assert rep.n_total == rep.n_omega_a + rep.n_below_threshold + rep.n_diverged


def test_density_small_run_accounting_and_gating():
    rep = density_experiment(_config(n_samples=12))
    assert rep.n_total == 12
    assert rep.n_total == rep.n_omega_a + rep.n_below_threshold + rep.n_diverged
    assert rep.seeds == [[0, i] for i in range(12)]
    # omega_a gating: active cutoff and norm power below level+1
    for g, u in zip(rep.cutoff_values_omega_a, rep.norm_powers_omega_a):
        assert g > 0.0
        assert u < 2.0 + 1.0
    if rep.n_omega_a:
        assert rep.min_h_norm_on_omega_a > 1e-8
        assert rep.positive_norm_fraction == 1.0
        assert sum(rep.histogram_counts) == rep.n_omega_a
        # fitted corpus constant for the cutoff lower bound on omega_a
        C = max(0.002 / g for g in rep.cutoff_values_omega_a)
        assert all(g >= 0.002 / C for g in rep.cutoff_values_omega_a)


def test_density_reproducibility():
    cfg = _config(n_samples=6)
    j1 = report_json(density_experiment(cfg), cfg)
    j2 = report_json(density_experiment(cfg), cfg)
    assert j1 == j2


def test_convergence_study_validation():
    with pytest.raises(ConfigError):
        convergence_study("young", [64, 128])
    with pytest.raises(ConfigError):
        convergence_study("unknown", [64, 128, 256])


def test_convergence_study_young_smooth():
    table = convergence_study("young", [64, 128, 256, 512])
    assert table["slope"] == pytest.approx(-1.0, abs=0.3)
    assert len(table["rows"]) == 4


def test_convergence_study_solver_machine_noise():
    # constant sigma with x = t is resolution-independent: slope unreportable
    table = convergence_study("solver", [64, 128, 256])
    assert table["slope"] is None
    for row in table["rows"]:
        assert row["value"] == pytest.approx(0.25 * 0.125, abs=1e-12)


def test_convergence_study_malliavin_quadrature_order():
    table = convergence_study("malliavin", [64, 128, 256])
    assert table["slope"] == pytest.approx(-1.0, abs=0.3)


def test_parse_config_file(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# density run\n"
        "fbm.hurst = 0.8\n"
        "fbm.n = 64\n"
        "n_samples = 5   # small\n"
        "sigma = tanh:0.05,0.02\n"
    )
    mapping = parse_config_file(cfg_file)
    assert mapping["fbm.hurst"] == "0.8"
    cfg = build_experiment_config(mapping)
    assert cfg.fbm.hurst == 0.8
    assert cfg.fbm.n == 64
    assert cfg.n_samples == 5
    # defaults fill the rest
    assert cfg.cutoff.flavor == "garsia"


def test_parse_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("fbm.hurst 0.8\n")
    with pytest.raises(ConfigError):
        parse_config_file(bad)
    bad.write_text("unknown.key = 1\n")
    with pytest.raises(ConfigError):
        parse_config_file(bad)
    with pytest.raises(ConfigError):
        build_experiment_config({"fbm.n": "not-a-number"})


def test_density_counts_kernel_divergence(monkeypatch):
    # a kernel that fails on one sample is counted, and the run goes on
    cfg = _config(n_samples=8)
    base = density_experiment(cfg)
    assert base.n_omega_a >= 2
    real = experiments.malliavin_kernel
    calls = []

    def failing_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise DivergenceError("forced kernel failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "malliavin_kernel", failing_once)
    rep = density_experiment(cfg)
    assert rep.n_diverged == base.n_diverged + 1
    assert rep.n_omega_a == base.n_omega_a - 1
    assert rep.n_below_threshold == base.n_below_threshold
    assert rep.n_total == rep.n_omega_a + rep.n_below_threshold + rep.n_diverged
    assert len(rep.cutoff_values_omega_a) == len(rep.norm_powers_omega_a) == rep.n_omega_a
    assert sum(rep.histogram_counts) == rep.n_omega_a
