"""Command line front end.

Subcommands: solve, malliavin, density, convergence, fbm-sample. Every run
writes CSV data files plus one JSON summary (config echo, seeds, diagnostics)
into --out. Exit codes: 0 success, 2 invalid configuration (including
parameters outside the supported regime, such as H <= 1/2 for |H| norms or
an fBm covariance whose Cholesky factorization fails), 3 solver divergence
outside Monte Carlo mode.
"""

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .coefficients import parse_sigma
from .cutoff import CutoffSpec
from .errors import (
    ConfigError,
    DivergenceError,
    InvalidInputError,
    NumericalError,
    UnsupportedParameterError,
)
from .experiments import (
    CONFIG_CASTS,
    build_experiment_config,
    convergence_study,
    density_experiment,
    parse_config_file,
    report_json,
)
from .fbm import FbmConfig, sample_fbm
from .grid import GridFunction, holder_norm
from .malliavin import (
    derivative_norm,
    directional_derivative,
    malliavin_kernel,
    sign_pattern,
    stratonovich_decomposition,
)
from .solver import SolverConfig, solve_elliptic

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _parse_list(text: str, cast, flag: str) -> list:
    """Comma-separated flag values, a bad entry being a configuration error."""
    try:
        return [cast(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad {flag} value {text!r}") from exc


def _add_problem_flags(p: argparse.ArgumentParser):
    solver = SolverConfig()
    p.add_argument("--n", type=int, default=256, help="grid resolution")
    p.add_argument("--gamma", type=float, default=0.5, help="Holder exponent of the norm")
    p.add_argument("--kappa", type=float, default=solver.kappa, help="target Holder exponent")
    p.add_argument("--p", type=int, default=2, help="norm moment parameter")
    p.add_argument("--epsilon", type=float, default=0.3, help="regularity margin")
    p.add_argument("--M", type=float, default=2.0, help="localization level")
    p.add_argument("--cutoff", choices=["sobolev", "garsia"], default="sobolev")
    p.add_argument("--sigma", default="const:0.1", help="coefficient, e.g. const:0.1 or tanh:0.05,0.02")
    p.add_argument("--path", default="fbm:0.75:0", help="driver: CSV file or fbm:H:seed")
    p.add_argument("--tol", type=float, default=solver.tol)
    p.add_argument("--max-iters", type=int, default=solver.max_iters)
    p.add_argument("--out", default=".", help="output directory")


def _load_path(descr: str, n: int) -> tuple[GridFunction, dict]:
    if descr.startswith("fbm:"):
        try:
            _, hurst, seed = descr.split(":")
            cfg = FbmConfig(hurst=float(hurst), n=n, seed=int(seed))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad path descriptor {descr!r}") from exc
        return sample_fbm(cfg), {"driver": "fbm", "hurst": cfg.hurst, "seed": cfg.seed}
    x = GridFunction.from_csv(descr)
    if x.n != n:
        raise ConfigError(f"{descr}: grid has n={x.n}, expected n={n}")
    return x, {"driver": "csv", "file": descr}


def _problem_from_args(args):
    spec = CutoffSpec(
        level=args.M, gamma=args.gamma, p=args.p, epsilon=args.epsilon, flavor=args.cutoff
    )
    cfg = SolverConfig(kappa=args.kappa, tol=args.tol, max_iters=args.max_iters)
    sigma = parse_sigma(args.sigma)
    x, driver = _load_path(args.path, args.n)
    return spec, cfg, sigma, x, driver


def _solve_summary(args, spec, cfg, sigma, sol, driver):
    kappa_norm = holder_norm(sol.z, cfg.kappa).norm
    return {
        "config": {
            "n": args.n,
            "cutoff": asdict(spec),
            "solver": asdict(cfg),
            "sigma": args.sigma,
            "path": driver,
        },
        "iterations": sol.iterations,
        "contraction_ratio": sol.contraction_ratio,
        "residual": sol.residual,
        "cutoff_value": sol.cutoff_value,
        "norms": {
            "kappa_norm": kappa_norm,
            "sup_norm": float(np.max(np.abs(sol.z.values))),
            "norm_power": sol.norm_power,
            "in_ball": bool(kappa_norm <= cfg.ball_radius),
        },
        "smallness": sigma.smallness_report(spec.level),
    }


def _cmd_solve(args) -> int:
    spec, cfg, sigma, x, driver = _problem_from_args(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        sol = solve_elliptic(x, sigma, spec, cfg)
    except DivergenceError as exc:
        print(f"solver diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    sol.z.to_csv(out / "solution.csv")
    _write_json(out / "solve.json", _solve_summary(args, spec, cfg, sigma, sol, driver))
    print(f"wrote {out / 'solution.csv'} and {out / 'solve.json'}")
    return EXIT_OK


def _fd_check(sol, kernel, x, sigma, spec, cfg, t_nodes):
    """Central finite differences of the solve against the kernel pairing."""
    eps = 1e-4
    h = GridFunction.from_callable(lambda s: s, x.n)
    dd = directional_derivative(kernel, h)
    worst = 0.0
    plus = solve_elliptic(GridFunction(x.n, x.values + eps * h.values), sigma, spec, cfg)
    minus = solve_elliptic(GridFunction(x.n, x.values - eps * h.values), sigma, spec, cfg)
    for t in t_nodes:
        fd = (plus.z(t) - minus.z(t)) / (2 * eps)
        scale = max(abs(dd(t)), 1e-12)
        worst = max(worst, abs(dd(t) - fd) / scale)
    return worst


def _cmd_malliavin(args) -> int:
    if args.H <= 0.5:
        raise UnsupportedParameterError(f"|H| norms need H > 1/2, got H={args.H}")
    spec, cfg, sigma, x, driver = _problem_from_args(args)
    t_nodes = _parse_list(args.t, float, "--t")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        sol = solve_elliptic(x, sigma, spec, cfg)
        kernel = malliavin_kernel(sol, x, sigma, spec, cfg)
        fd_check_error = _fd_check(sol, kernel, x, sigma, spec, cfg, t_nodes)
    except DivergenceError as exc:
        print(f"solver diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    np.savetxt(out / "kernel.csv", kernel.values, delimiter=",")
    per_t = {}
    for t in t_nodes:
        strato = stratonovich_decomposition(sol, kernel, x, sigma, spec, t, args.H)
        per_t[str(t)] = {
            "h_norm": derivative_norm(kernel, t, args.H),
            "strato": asdict(strato),
            "sign_pattern": sign_pattern(kernel, t),
        }
    summary = _solve_summary(args, spec, cfg, sigma, sol, driver)
    summary["hurst"] = args.H
    summary["per_t"] = per_t
    summary["fd_check_error"] = fd_check_error
    _write_json(out / "malliavin.json", summary)
    print(f"wrote {out / 'kernel.csv'} and {out / 'malliavin.json'}")
    return EXIT_OK


# density flag (dest) -> config key; the flag is spelled --dest with dashes.
_DENSITY_OVERRIDES = {
    "N": "n_samples",
    "a": "a",
    "t_eval": "t_eval",
    "H": "fbm.hurst",
    "n": "fbm.n",
    "seed": "fbm.seed",
    "M": "cutoff.level",
    "gamma": "cutoff.gamma",
    "p": "cutoff.p",
    "epsilon": "cutoff.epsilon",
    "sigma": "sigma",
    "kappa": "solver.kappa",
    "tol": "solver.tol",
    "max_iters": "solver.max_iters",
    "out": "output_dir",
}


def _cmd_density(args) -> int:
    mapping = parse_config_file(args.config) if args.config else {}
    for flag, key in _DENSITY_OVERRIDES.items():
        value = getattr(args, flag)
        if value is not None:
            mapping[key] = str(value)
    cfg = build_experiment_config(mapping)
    report = density_experiment(cfg)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "density.json").write_text(report_json(report, cfg), encoding="utf-8")
    with open(out / "histogram.csv", "w", encoding="utf-8") as f:
        f.write("bin_left,bin_right,count\n")
        for left, right, count in zip(
            report.histogram_edges[:-1], report.histogram_edges[1:], report.histogram_counts
        ):
            f.write(f"{left!r},{right!r},{count}\n")
    print(
        f"omega_a {report.n_omega_a}/{report.n_total}, "
        f"positive norm fraction {report.positive_norm_fraction}, "
        f"wrote {out / 'density.json'}"
    )
    return EXIT_OK


def _cmd_convergence(args) -> int:
    sizes = _parse_list(args.sizes, int, "--sizes")
    table = convergence_study(args.kind, sizes)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "convergence.csv", "w", encoding="utf-8") as f:
        f.write("n,value\n")
        for row in table["rows"]:
            f.write(f"{row['n']},{row['value']!r}\n")
    _write_json(out / "convergence.json", table)
    print(f"slope {table['slope']}, wrote {out / 'convergence.json'}")
    return EXIT_OK


def _cmd_fbm_sample(args) -> int:
    cfg = FbmConfig(hurst=args.H, n=args.n, seed=args.seed)
    path = sample_fbm(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path.to_csv(out / "path.csv")
    _write_json(out / "fbm.json", {"H": cfg.hurst, "n": cfg.n, "seed": cfg.seed})
    print(f"wrote {out / 'path.csv'} and {out / 'fbm.json'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellipticsde",
        description="Pathwise elliptic SDE solver, derivative kernels and fBm experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the localized elliptic equation")
    _add_problem_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("malliavin", help="assemble the derivative kernel and diagnostics")
    _add_problem_flags(p)
    p.add_argument("--H", type=float, default=0.75, help="Hurst parameter for |H| norms")
    p.add_argument("--t", default="0.5", help="comma-separated evaluation nodes")
    p.set_defaults(func=_cmd_malliavin)

    p = sub.add_parser("density", help="Monte Carlo density study")
    p.add_argument("--config", help="key = value config file")
    for flag, key in _DENSITY_OVERRIDES.items():
        p.add_argument(
            "--" + flag.replace("_", "-"), dest=flag, type=CONFIG_CASTS[key], help=f"sets {key}"
        )
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("convergence", help="refinement study with fitted slope")
    p.add_argument("--kind", choices=["young", "solver", "malliavin"], required=True)
    p.add_argument("--sizes", default="64,128,256,512", help="comma-separated grid sizes")
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_convergence)

    p = sub.add_parser("fbm-sample", help="sample one fBm path")
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_fbm_sample)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ConfigError,
        InvalidInputError,
        UnsupportedParameterError,
        NumericalError,
        FileNotFoundError,
    ) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
