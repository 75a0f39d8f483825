"""The benchmark's workloads: their seeded inputs, program calls and gates.

A *path* is one fBm driving path taken through the workload's whole
pipeline. A *unit* is one call into the program: one CLI invocation (one
path) or one ``density_experiment`` call (``DENSITY_CHUNK`` paths). Every fBm
seed derives from the benchmark seed ``s``: unit ``k`` uses fBm seed
``s * SEED_STRIDE + k``, so the same seed always gives the same inputs and
distinct seeds below ``SEED_STRIDE`` units never share one.

Library functions are always looked up through their module at call time, so
the span recorders that :mod:`spans` installs see every call.
"""

import contextlib
import io
import json
import traceback
from dataclasses import dataclass, field, fields
from pathlib import Path
from time import perf_counter

import numpy as np

from ellipticsde import cli, coefficients, cutoff, experiments, fbm, grid, solver, young

HURST = 0.75
SEED_STRIDE = 1000
DENSITY_CHUNK = 16


@dataclass
class UnitResult:
    """Outcome of one unit.

    ``latencies_s`` holds one entry per path that completed, ``classes`` the
    outcome class of each of those paths when the workload has several, and
    ``failures`` one
    dict per group of failed paths: ``{"paths", "count", "reason", "wrong"}``,
    where ``wrong`` marks an output that failed its correctness gate (as
    opposed to a path that raised, diverged or exited non-zero).
    """

    attempted: int
    program_s: float
    latencies_s: list = field(default_factory=list)
    classes: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    output_bytes: int = 0


def _failure(paths: str, reason: str, count: int = 1, wrong: bool = False) -> dict:
    return {"paths": paths, "count": count, "reason": reason, "wrong": wrong}


def _last_error_line() -> str:
    return traceback.format_exc().strip().splitlines()[-1]


class Workload:
    name = ""
    n = 0
    sigma = ""
    kappa = 0.0
    # Long-run share of each class of path, for workloads whose paths fall
    # into classes of very different cost; None when all paths are alike.
    class_shares = None

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def fbm_seed(self, unit: int) -> int:
        return self.seed * SEED_STRIDE + unit

    def setup(self):
        """What the first path would otherwise pay for: the coefficient probe,
        the fBm Cholesky factor and the kappa-Holder lag cache."""
        coefficients.parse_sigma(self.sigma)
        x = fbm.sample_fbm(fbm.FbmConfig(hurst=HURST, n=self.n, seed=self.fbm_seed(0)))
        grid.holder_norm(x, self.kappa)

    def run(self, unit: int, quiet) -> UnitResult:
        """Run one unit. ``quiet()`` is a context manager under which the
        correctness gates run, so a traced run does not record them."""
        raise NotImplementedError

    def finish(self) -> list:
        """Run-level checks after all units; returns failure dicts."""
        return []


class DensityWorkload(Workload):
    """``density_experiment`` on acceptance criterion 10's configuration.

    A path that reaches Omega_a = {|z_t| >= a} costs about fifty times one
    that is screened out, so the share of Omega_a paths in a run moves its
    throughput and median as much as any program change would: about 190
    paths per 30 s give that share a standard deviation of 0.036, and the
    median latency flips between the two classes when the share drops below
    one half. The end-to-end figures therefore re-mix each run's paths to the
    configuration's long-run share, 0.603 over 4000 paths (fBm seeds 0-19,
    streams 0-199); run.py checks that every run's share agrees with it.
    """

    name = "density-n256"
    n = 256
    sigma = "tanh:0.05,0.02"
    kappa = 0.75
    class_shares = {"omega_a": 0.6, "screened": 0.4}

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.first_outcomes = None
        self.totals = {}

    def config(self, unit: int):
        return experiments.ExperimentConfig(
            fbm=fbm.FbmConfig(hurst=HURST, n=self.n, seed=self.fbm_seed(unit)),
            cutoff=cutoff.CutoffSpec(level=2.0, gamma=0.3, p=5, epsilon=0.42, flavor="garsia"),
            sigma=self.sigma,
            solver=solver.SolverConfig(kappa=self.kappa, tol=1e-10, max_iters=200),
            n_samples=DENSITY_CHUNK,
            t_eval=0.5,
            a=0.002,
        )

    @staticmethod
    def outcomes(report) -> dict:
        return {
            f.name: getattr(report, f.name)
            for f in fields(report)
            if f.name.startswith("n_") and f.name != "n_total"
        }

    def run(self, unit, quiet):
        cfg = self.config(unit)
        paths = f"fbm.seed={cfg.fbm.seed} streams 0-{DENSITY_CHUNK - 1}"
        # Per-sample latency comes from the library's own loop: each sample
        # starts where density_experiment calls sample_fbm.
        stamps = []
        sampler = experiments.sample_fbm

        def stamped(*args, **kwargs):
            stamps.append(perf_counter())
            return sampler(*args, **kwargs)

        experiments.sample_fbm = stamped
        start = perf_counter()
        try:
            report = experiments.density_experiment(cfg)
        except Exception:
            report, error = None, _last_error_line()
        finally:
            end = perf_counter()
            experiments.sample_fbm = sampler
        result = UnitResult(attempted=DENSITY_CHUNK, program_s=end - start)
        if report is None:
            result.failures.append(
                _failure(paths, f"run aborted at stream {len(stamps) - 1}: {error}", DENSITY_CHUNK)
            )
            return result
        result.latencies_s = list(np.diff(stamps + [end]))
        with quiet():
            result.classes = self.classify(cfg)
            result.failures = self.check(report, result.classes, paths)
        outcomes = self.outcomes(report)
        for key, value in outcomes.items():
            self.totals[key] = self.totals.get(key, 0) + value
        if self.first_outcomes is None:
            self.first_outcomes = outcomes
        return result

    @staticmethod
    def classify(cfg) -> list:
        """Class of every sample of a unit, from an independent solve: "omega_a"
        where |z_t| >= a, else "screened"."""
        sigma = coefficients.parse_sigma(cfg.sigma)
        classes = []
        for stream in range(cfg.n_samples):
            x = fbm.sample_fbm(cfg.fbm, stream=stream)
            try:
                zt = solver.solve_elliptic(x, sigma, cfg.cutoff, cfg.solver).z(cfg.t_eval)
            except Exception:
                classes.append("failed")
                continue
            classes.append("omega_a" if abs(zt) >= cfg.a else "screened")
        return classes

    def check(self, report, classes: list, paths: str) -> list:
        failures = []
        outcomes = self.outcomes(report)
        if report.n_total != DENSITY_CHUNK or sum(outcomes.values()) != report.n_total:
            failures.append(
                _failure(paths, f"n_total {report.n_total} != outcome counts {outcomes}",
                         DENSITY_CHUNK, wrong=True)
            )
            return failures
        if classes.count("omega_a") != report.n_omega_a:
            failures.append(
                _failure(paths, f"n_omega_a {report.n_omega_a} != {classes.count('omega_a')} "
                         "samples with |z_t| >= a", DENSITY_CHUNK, wrong=True)
            )
            return failures
        lost = report.n_total - report.n_omega_a - report.n_below_threshold
        if lost:
            failures.append(_failure(paths, f"outcomes other than omega_a/below: {outcomes}", lost))
        if report.n_omega_a:
            weak = report.n_omega_a - round(report.positive_norm_fraction * report.n_omega_a)
            if weak:
                failures.append(_failure(paths, "|H|-norm <= 1e-8 on omega_a", weak, wrong=True))
            elif not report.min_h_norm_on_omega_a > 1e-8:
                failures.append(
                    _failure(paths, f"min |H|-norm {report.min_h_norm_on_omega_a}", wrong=True)
                )
        return failures

    def finish(self):
        """Outcome counts must repeat exactly when the first unit is rerun."""
        if self.first_outcomes is None:
            return []
        cfg = self.config(0)
        try:
            again = self.outcomes(experiments.density_experiment(cfg))
        except Exception:
            again = _last_error_line()
        if again == self.first_outcomes:
            return []
        return [
            _failure(f"fbm.seed={cfg.fbm.seed}",
                     f"rerun outcomes {again} != first run {self.first_outcomes}",
                     DENSITY_CHUNK, wrong=True)
        ]


class CliWorkload(Workload):
    """One in-process ``ellipticsde.cli.main`` call per path."""

    command = ""
    cutoff_flags: tuple = ()

    def argv(self, unit: int) -> list:
        return [
            self.command,
            "--n", str(self.n),
            "--path", f"fbm:{HURST}:{self.fbm_seed(unit)}",
            "--sigma", self.sigma,
            "--kappa", str(self.kappa),
            "--tol", "1e-10",
            "--max-iters", "200",
            *self.cutoff_flags,
            "--out", str(self.out),
        ]

    @property
    def out(self) -> Path:
        return self.workdir / self.name

    def run(self, unit, quiet):
        argv = self.argv(unit)
        paths = argv[argv.index("--path") + 1]
        sink = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
            error = None if code == 0 else f"exit code {code}: {sink.getvalue().strip()[-200:]}"
        except SystemExit as exc:
            error = f"argument error, exit code {exc.code}: {sink.getvalue().strip()[-200:]}"
        except Exception:
            error = _last_error_line()
        result = UnitResult(attempted=1, program_s=perf_counter() - start)
        if error is not None:
            result.failures.append(_failure(paths, error))
            return result
        result.output_bytes = sum(p.stat().st_size for p in self.out.iterdir())
        with quiet():
            try:
                problems = self.check(unit)
            except Exception:  # outputs the gate cannot read or re-derive fail it
                problems = [f"gate could not check the outputs: {_last_error_line()}"]
        if problems:
            result.failures.append(_failure(paths, "; ".join(problems), wrong=True))
        else:
            result.latencies_s.append(result.program_s)
        return result

    def check(self, unit: int) -> list:
        raise NotImplementedError

    def driver(self, unit: int) -> np.ndarray:
        cfg = fbm.FbmConfig(hurst=HURST, n=self.n, seed=self.fbm_seed(unit))
        return fbm.sample_fbm(cfg).values


def green_residual(z: np.ndarray, x: np.ndarray, G: float, sigma_fn, block: int = 256) -> float:
    """Sup-norm defect of z_t = G * sum_j K(t, xi_j) sigma(z_j) (x_{j+1} - x_j).

    The dense Green formula is evaluated here, from ``young.green_kernel``
    only, in row blocks so the check adds little to the process's memory.
    """
    nodes = np.linspace(0.0, 1.0, len(z))
    weights = sigma_fn(z[:-1]) * np.diff(x)
    worst = 0.0
    for lo in range(0, len(z), block):
        rows = nodes[lo : lo + block, None]
        image = G * (young.green_kernel(rows, nodes[None, :-1]) @ weights)
        worst = max(worst, float(np.max(np.abs(z[lo : lo + block] - image))))
    return worst


class SolveWorkload(CliWorkload):
    """CLI ``solve`` at n=2048 with the garsia cutoff: no kernel is built."""

    name = "solve-n2048"
    command = "solve"
    n = 2048
    sigma_coeffs = (0.02, 0.01)
    sigma = f"tanh:{sigma_coeffs[0]},{sigma_coeffs[1]}"
    kappa = 0.75
    level = 2.0
    cutoff_flags = (
        "--cutoff", "garsia", "--M", "2", "--gamma", "0.3", "--p", "5", "--epsilon", "0.42"
    )

    def check(self, unit):
        summary = json.loads((self.out / "solve.json").read_text(encoding="utf-8"))
        z = np.loadtxt(self.out / "solution.csv", delimiter=",", skiprows=1)[:, 1]
        G = summary["cutoff_value"]
        problems = []
        expected_G = cutoff.smooth_cutoff(summary["norms"]["norm_power"], self.level)
        if G != expected_G:
            problems.append(f"cutoff value {G} != cutoff of reported norm power {expected_G}")
        a0, a1 = self.sigma_coeffs
        residual = green_residual(z, self.driver(unit), G, lambda y: a0 + a1 * np.tanh(y))
        if not residual < 1e-4:
            problems.append(f"Green residual {residual:.3g} >= 1e-4")
        if not summary["contraction_ratio"] < 1.0:
            problems.append(f"contraction ratio {summary['contraction_ratio']} >= 1")
        return problems


class MalliavinWorkload(CliWorkload):
    """CLI ``malliavin``, the README example: the whole kernel, the directional
    derivative, the finite-difference check and two Stratonovich traces."""

    name = "malliavin-n256"
    command = "malliavin"
    n = 256
    sigma = "tanh:0.05,0.02"
    kappa = 0.55
    t_eval = (0.25, 0.5)
    cutoff_spec = dict(level=1000.0, gamma=0.5, p=2, epsilon=0.3, flavor="sobolev")
    cutoff_flags = (
        "--cutoff", "sobolev", "--M", "1000", "--gamma", "0.5", "--p", "2", "--epsilon", "0.3",
        "--H", str(HURST), "--t", ",".join(str(t) for t in t_eval),
    )

    def check(self, unit):
        summary = json.loads((self.out / "malliavin.json").read_text(encoding="utf-8"))
        kernel = np.loadtxt(self.out / "kernel.csv", delimiter=",")
        problems = []
        if kernel.shape != (self.n + 1, self.n + 1) or not np.all(np.isfinite(kernel)):
            problems.append(f"kernel.csv has shape {kernel.shape} or non-finite entries")
        if not summary["fd_check_error"] <= 1e-3:
            problems.append(f"fd_check_error {summary['fd_check_error']:.3g} > 1e-3")
        # Acceptance criterion 11: the pathwise integral equals z_t up to the
        # solver residual. z is not written by the CLI, so solve again.
        sol = solver.solve_elliptic(
            grid.GridFunction(self.n, self.driver(unit)),
            coefficients.parse_sigma(self.sigma),
            cutoff.CutoffSpec(**self.cutoff_spec),
            solver.SolverConfig(kappa=self.kappa, tol=1e-10, max_iters=200),
        )
        for t in self.t_eval:
            pathwise = summary["per_t"][str(t)]["strato"]["pathwise"]
            gap = abs(pathwise - sol.z(t))
            if gap > summary["residual"] + 1e-14:
                problems.append(f"|pathwise - z_t| = {gap:.3g} at t={t} exceeds the residual")
        return problems


WORKLOADS = {w.name: w for w in (DensityWorkload, SolveWorkload, MalliavinWorkload)}
