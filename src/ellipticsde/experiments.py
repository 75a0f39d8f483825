"""Experiment orchestration: the density study, convergence tables, config.

The density experiment samples fBm paths on deterministic per-sample Philox
streams, solves the garsia-localized equation for each, and on the event
{|z_t| >= a} assembles the derivative kernel and records the |H|-norm of the
Malliavin derivative. Reports are plain dataclasses serialized to JSON with
sorted keys and fixed summation orders, so identical configs and seeds give
byte-identical output.
"""

import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

import numpy as np

from .coefficients import parse_sigma
from .cutoff import CutoffSpec
from .errors import ConfigError, DivergenceError
from .fbm import FbmConfig, sample_fbm
from .grid import GridFunction
from .malliavin import derivative_norm, directional_derivative, malliavin_kernel
from .solver import SolverConfig, solve_elliptic
from .young import young_integral

__all__ = [
    "ExperimentConfig",
    "DensityReport",
    "density_experiment",
    "report_json",
    "convergence_study",
    "lacunary_path",
    "DEFAULT_CONFIG",
    "CONFIG_CASTS",
    "parse_config_file",
    "build_experiment_config",
]

_NORM_FLOOR = 1e-8


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of a density run."""

    fbm: FbmConfig
    cutoff: CutoffSpec
    sigma: str
    solver: SolverConfig
    n_samples: int = 200
    t_eval: float = 0.5
    a: float = 0.002
    output_dir: str = "."

    def __post_init__(self):
        if self.n_samples < 1:
            raise ConfigError("n_samples must be >= 1")
        if not 0.0 < self.a < np.inf:
            raise ConfigError(f"exclusion radius a must be positive and finite, got {self.a}")
        if not 0.0 < self.t_eval < 1.0:
            raise ConfigError("t_eval must lie in (0,1)")
        j = round(self.t_eval * self.fbm.n)
        if abs(self.t_eval - j / self.fbm.n) > 1e-9:
            raise ConfigError(f"t_eval={self.t_eval} is not a node of the n={self.fbm.n} grid")


@dataclass(frozen=True)
class DensityReport:
    """Aggregated outcome of a density run.

    n_total = n_omega_a + n_below_threshold + n_diverged exactly; the norm
    statistics are computed over the Omega_a samples only.
    """

    n_total: int
    n_omega_a: int
    n_below_threshold: int
    n_diverged: int
    positive_norm_fraction: float
    min_h_norm_on_omega_a: float | None
    histogram_edges: list[float]
    histogram_counts: list[int]
    seeds: list[list[int]]
    cutoff_values_omega_a: list[float] = field(default_factory=list)
    norm_powers_omega_a: list[float] = field(default_factory=list)


def density_experiment(cfg: ExperimentConfig) -> DensityReport:
    """Run the Monte Carlo density study.

    Requires a nondegenerate coefficient (declared lower bound > 0) and the
    garsia cutoff flavor in the Malliavin-admissible regime. A sample whose
    solve or derivative kernel diverges is counted in n_diverged and
    excluded, never silently dropped.
    """
    sigma = parse_sigma(cfg.sigma)
    if sigma.lower_bound is None or sigma.lower_bound <= 0:
        raise ConfigError(
            f"density experiment needs |sigma| >= sigma_0 > 0; {cfg.sigma!r} "
            "declares no positive lower bound"
        )
    if cfg.cutoff.flavor != "garsia":
        raise ConfigError("density experiment requires the garsia cutoff flavor")
    cfg.cutoff.require_malliavin_regime()
    if cfg.fbm.hurst <= 0.5:
        raise ConfigError("density experiment needs hurst > 1/2")

    n_omega, n_below, n_diverged = 0, 0, 0
    z_values: list[float] = []
    norms: list[float] = []
    cutoffs: list[float] = []
    powers: list[float] = []
    seeds: list[list[int]] = []
    for i in range(cfg.n_samples):
        seeds.append([cfg.fbm.seed, i])
        path = sample_fbm(cfg.fbm, stream=i)
        try:
            sol = solve_elliptic(path, sigma, cfg.cutoff, cfg.solver)
        except DivergenceError:
            n_diverged += 1
            continue
        zt = sol.z(cfg.t_eval)
        if abs(zt) < cfg.a:
            n_below += 1
            continue
        try:
            kernel = malliavin_kernel(sol, path, sigma, cfg.cutoff, cfg.solver)
        except DivergenceError:
            n_diverged += 1
            continue
        n_omega += 1
        z_values.append(zt)
        norms.append(derivative_norm(kernel, cfg.t_eval, cfg.fbm.hurst))
        cutoffs.append(sol.cutoff_value)
        powers.append(sol.norm_power)

    if z_values:
        counts, edges = np.histogram(np.asarray(z_values), bins=40)
        fraction = float(np.mean(np.asarray(norms) > _NORM_FLOOR))
        min_norm = float(np.min(norms))
    else:
        counts, edges = np.array([], dtype=int), np.array([])
        fraction, min_norm = 0.0, None
    return DensityReport(
        n_total=cfg.n_samples,
        n_omega_a=n_omega,
        n_below_threshold=n_below,
        n_diverged=n_diverged,
        positive_norm_fraction=fraction,
        min_h_norm_on_omega_a=min_norm,
        histogram_edges=[float(e) for e in edges],
        histogram_counts=[int(c) for c in counts],
        seeds=seeds,
        cutoff_values_omega_a=[float(c) for c in cutoffs],
        norm_powers_omega_a=[float(u) for u in powers],
    )


def report_json(report: DensityReport, cfg: ExperimentConfig) -> str:
    """Deterministic JSON rendering of a report with its config echo.

    The output directory is omitted from the echo so reruns of one
    configuration are byte-identical wherever they land.
    """
    config = asdict(cfg)
    config.pop("output_dir", None)
    payload = {"config": config, "report": asdict(report)}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def lacunary_path(
    n: int, exponent: float, base: float = 2.3, terms: int = 18, phase_seed: int = 0
) -> GridFunction:
    """Deterministic lacunary cosine series with exact Holder exponent.

    sum_k base^{-k*exponent} cos(base^k 2 pi t + phi_k) sampled on the grid.
    The non-integer base keeps the frequencies incommensurate with dyadic
    grids (integer bases make the terms discretely orthogonal to them, which
    collapses Young sums to exponent-independent diagonal products).
    """
    rng = np.random.Generator(np.random.Philox(key=np.array([phase_seed, 0], dtype=np.uint64)))
    phases = rng.random(terms) * 2 * np.pi
    t = np.linspace(0.0, 1.0, n + 1)
    values = np.zeros(n + 1)
    for k in range(terms):
        values += base ** (-k * exponent) * np.cos(base**k * 2 * np.pi * t + phases[k])
    return GridFunction(n, values)


def _young_pair(n: int, params: dict) -> tuple[GridFunction, GridFunction]:
    kind = params.get("pair", "smooth")
    if kind == "smooth":
        t = np.linspace(0.0, 1.0, n + 1)
        g = GridFunction(n, t + 0.3 * np.sin(2 * np.pi * t))
        f = GridFunction(n, t**2 + 0.2 * np.cos(2 * np.pi * t))
        return g, f
    if kind == "lacunary":
        g = lacunary_path(n, params.get("kappa", 0.75), phase_seed=1)
        f = lacunary_path(n, params.get("gamma", 0.75), phase_seed=2)
        return g, f
    raise ConfigError(f"unknown young pair {kind!r}")


def _study_value(kind: str, n: int, params: dict) -> float:
    from .coefficients import constant_coefficient

    if kind == "young":
        g, f = _young_pair(n, params)
        return young_integral(g, f, 0.0, 1.0).value
    spec = CutoffSpec(level=5.0, gamma=0.5, p=2, epsilon=0.3, flavor="sobolev")
    cfg = SolverConfig(kappa=0.55, tol=1e-12, max_iters=50)
    sigma = constant_coefficient(params.get("c", 0.25))
    x = GridFunction.from_callable(lambda t: t, n)
    sol = solve_elliptic(x, sigma, spec, cfg)
    if kind == "solver":
        return sol.z(0.5)
    if kind == "malliavin":
        kernel = malliavin_kernel(sol, x, sigma, spec, cfg)
        h = GridFunction.from_callable(lambda s: s**2, n)
        return directional_derivative(kernel, h)(0.5)
    raise ConfigError(f"unknown study kind {kind!r}")


def convergence_study(kind: str, sizes, params: dict | None = None) -> dict:
    """Value-versus-resolution table with a fitted log-log refinement slope.

    Needs at least 3 sizes. The slope is fitted on |value(n_{i+1}) - value(n_i)|
    against n_i and reported as None when the differences sit at machine noise.
    """
    sizes = sorted(int(s) for s in sizes)
    if len(sizes) < 3:
        raise ConfigError("convergence study needs at least 3 grid sizes")
    params = params or {}
    values = [_study_value(kind, n, params) for n in sizes]
    diffs = [abs(values[i + 1] - values[i]) for i in range(len(values) - 1)]
    if min(diffs) < 1e-14:
        slope = None
    else:
        slope = float(np.polyfit(np.log(sizes[:-1]), np.log(diffs), 1)[0])
    return {
        "kind": kind,
        "rows": [{"n": n, "value": v} for n, v in zip(sizes, values)],
        "diffs": [{"n": n, "diff": d} for n, d in zip(sizes[:-1], diffs)],
        "slope": slope,
    }


# Acceptance criterion 10's configuration; config files and flags override it.
DEFAULT_CONFIG = ExperimentConfig(
    fbm=FbmConfig(hurst=0.75, n=256, seed=0),
    cutoff=CutoffSpec(level=2.0, gamma=0.3, p=5, epsilon=0.42, flavor="garsia"),
    sigma="tanh:0.05,0.02",
    solver=SolverConfig(kappa=0.75),
)


def _leaves(obj, prefix: str = ""):
    """(dotted key, value) for every non-dataclass field, nested ones included."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _leaves(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, value


# Every config key (an ExperimentConfig field path) and the cast its values take.
CONFIG_CASTS = {key: type(value) for key, value in _leaves(DEFAULT_CONFIG)}


def _replace_leaves(obj, values: dict, prefix: str = ""):
    """Copy of obj with the dotted-key values swapped in, nested dataclasses
    rebuilt (and so re-validated) bottom up."""
    changes = {}
    for f in fields(obj):
        key = prefix + f.name
        value = getattr(obj, f.name)
        if is_dataclass(value):
            changes[f.name] = _replace_leaves(value, values, key + ".")
        elif key in values:
            changes[f.name] = values[key]
    return replace(obj, **changes)


def parse_config_file(path) -> dict:
    """Read a ``key = value`` per line config file (# starts a comment)."""
    mapping: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in CONFIG_CASTS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            mapping[key] = value.strip()
    return mapping


def build_experiment_config(mapping: dict) -> ExperimentConfig:
    """Turn a flat dotted-key mapping into an ExperimentConfig.

    Keys not in the mapping, or mapped to None, keep their DEFAULT_CONFIG
    values.
    """
    values = {}
    for key, value in mapping.items():
        if key not in CONFIG_CASTS:
            raise ConfigError(f"unknown config key {key!r}")
        if value is None:
            continue
        try:
            values[key] = CONFIG_CASTS[key](value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value {value!r} for {key}") from exc
    try:
        return _replace_leaves(DEFAULT_CONFIG, values)
    except ValueError as exc:  # invalid field combinations surface as config errors
        raise ConfigError(str(exc)) from exc
