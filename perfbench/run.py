"""Benchmark harness for ellipticsde.

Run from the root of a checkout:

    python3 perfbench/run.py --workload density-n256 --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``density-n256``,
``solve-n2048`` and ``malliavin-n256``. Each runs in this single process, a
closed loop of one program call after another, and starts no threads of its
own; BLAS keeps its default thread count, which is recorded.

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` runs the same
untraced loop for half the time, replays exactly the same inputs with span
recorders installed on every layer's public functions (``spans.py``), and
finally times the O(n^2) layers on one fBm path per grid size (the scaling
table).

The seed produces every fBm seed of the run. ``DEFAULT_SEED`` is the seed to
develop against; confirm a claimed gain on ``HELD_OUT_SEED`` as well.

The last line of standard output is the result object; the line before it is
a summary with the machine, seeds, sample counts and any failed paths. The
metric names and units are read from ``BENCHMARK.json``. The process exits
non-zero, without a result, when the checkout holds no ``src/ellipticsde``.
"""

import argparse
import ctypes
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = "ellipticsde"
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
SETUP_MIN_REPEATS = 5
SETUP_BUDGET_S = 1.0
SCALING_SIZES = (256, 512, 1024, 2048)
KERNEL_SCALING_MAX_N = 512  # the dense kernel is O(n^3): about 37 s at n=1024 on 2 cores


@dataclass
class Phase:
    """Aggregate of a run of units."""

    units: list = field(default_factory=list)
    attempted: int = 0
    program_s: float = 0.0
    latencies_s: list = field(default_factory=list)
    classes: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    output_bytes: int = 0

    @property
    def failed(self) -> int:
        return sum(f["count"] for f in self.failures)


def measure(workload, seconds, quiet, units=None) -> Phase:
    """Run units until ``seconds`` of program time have passed, or replay
    exactly ``units`` when given. Gates run outside the timed calls."""
    phase = Phase()
    for unit in units if units is not None else count():
        result = workload.run(unit, quiet)
        phase.units.append(unit)
        phase.attempted += result.attempted
        phase.program_s += result.program_s
        phase.latencies_s += result.latencies_s
        phase.classes += result.classes or ["path"] * len(result.latencies_s)
        phase.failures += result.failures
        phase.output_bytes += result.output_bytes
        if units is None and phase.program_s >= seconds:
            break
    return phase


def clear_caches():
    """Empty every functools cache of the package, so set-up starts cold."""
    for name in list(sys.modules):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            for value in list(vars(sys.modules[name]).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()
    gc.collect()


def timed_setup(workload) -> float:
    clear_caches()
    start = perf_counter()
    workload.setup()
    return perf_counter() - start


def mix_weights(classes, shares) -> list:
    """Per-path weights that re-mix a run's paths to the workload's long-run
    class shares; all 1 for a workload with one class of path."""
    if not shares:
        return [1.0] * len(classes)
    counts = Counter(classes)
    n = len(classes)
    return [shares.get(c, counts[c] / n) * n / counts[c] for c in classes]


def weighted_quantile(values, weights, q: float) -> float:
    """Smallest value whose cumulative weight reaches the share q."""
    order = sorted(range(len(values)), key=values.__getitem__)
    target = q * sum(weights) * (1.0 - 1e-12)
    acc = 0.0
    for i in order:
        acc += weights[i]
        if acc >= target:
            return values[i]
    return values[order[-1]]


def share_check(classes, shares) -> list:
    """The run's class shares must agree with the reference shares within five
    binomial standard deviations, or the re-mixed figures misdescribe it."""
    failures = []
    n = len(classes)
    for name, share in (shares or {}).items():
        observed = classes.count(name) / n
        if abs(observed - share) > 5.0 * (share * (1.0 - share) / n) ** 0.5:
            failures.append({"paths": "all", "count": 0, "wrong": True,
                             "reason": f"share of {name} paths {observed:.3f} != reference {share}"})
    return failures


def openblas_threads() -> dict:
    """Thread count of each OpenBLAS library bundled with numpy and scipy
    that the process has loaded (RTLD_NOLOAD leaves the others unloaded)."""
    import numpy
    import scipy

    counts = {}
    for package in (numpy, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for library in sorted(libs.glob("*openblas*.so*")):
            try:
                lib = ctypes.CDLL(str(library), mode=os.RTLD_NOLOAD)
            except OSError:
                continue
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    getter = getattr(lib, symbol)
                    getter.restype = ctypes.c_int
                    counts[library.name] = getter()
                    break
    return counts


def machine_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
    }


# --- tracing ----------------------------------------------------------------


def _norm_power_hook(tracer, args, kwargs, value):
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    if spec.level < value < spec.level + 1.0:
        tracer.counters["cutoff.band_hits"] += 1


def _holder_norm_hook(tracer, args, kwargs, report):
    if tracer.active["malliavin.malliavin_kernel"]:
        tracer.counters["malliavin.linear_iterations"] += 1


def _solve_hook(tracer, args, kwargs, sol):
    tracer.counters["solver.picard_iterations"] += sol.iterations
    tracer.counters["solver.cutoff_active"] += sol.cutoff_value > 0


def _kernel_hook(tracer, args, kwargs, kernel):
    computed = (kernel.n + 1) ** 2 * 8
    tracer.counters["malliavin.kernel_bytes"] = max(tracer.counters["malliavin.kernel_bytes"], computed)


def _density_hook(tracer, args, kwargs, report):
    tracer.counters["experiments.samples"] += report.n_total
    tracer.counters["experiments.omega_a"] += report.n_omega_a
    tracer.counters["experiments.n_diverged"] += report.n_diverged


HOOKS = {
    "cutoff.norm_power": _norm_power_hook,
    "grid.holder_norm": _holder_norm_hook,
    "solver.solve_elliptic": _solve_hook,
    "malliavin.malliavin_kernel": _kernel_hook,
    "experiments.density_experiment": _density_hook,
}


def span_metrics(tracer, spans) -> dict:
    metrics = {}
    for name, stats in tracer.stats.items():
        metrics[f"{name}.calls"] = stats.calls
        metrics[f"{name}.self_s"] = stats.self_s
        metrics[f"{name}.total_s"] = stats.total_s
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_s"] = tracer.layer_self_s(layer)
    c = tracer.counters
    metrics["cutoff.band_hits"] = c["cutoff.band_hits"]
    metrics["malliavin.linear_iterations"] = c["malliavin.linear_iterations"]
    metrics["malliavin.kernel_bytes"] = c["malliavin.kernel_bytes"]
    metrics["solver.picard_iterations"] = c["solver.picard_iterations"]
    solves = metrics.get("solver.solve_elliptic.calls", 0)
    metrics["solver.cutoff_active_ratio"] = c["solver.cutoff_active"] / solves if solves else 0.0
    samples = c["experiments.samples"]
    metrics["experiments.omega_a_ratio"] = c["experiments.omega_a"] / samples if samples else 0.0
    metrics["experiments.n_diverged"] = c["experiments.n_diverged"]
    return metrics


def scaling_table(tracer, seed: int) -> dict:
    """Self (and, for composite layers, total) time of the O(n^2) layers on
    one fBm path per grid size; the median of three calls, one for the kernel."""
    from ellipticsde import coefficients, cutoff, fbm, grid, malliavin, solver

    sigma = coefficients.parse_sigma("tanh:0.05,0.02")
    # The malliavin-n256 problem: its cutoff is 1 on fBm paths at every n, so
    # the solve and the kernel do their full work.
    spec = cutoff.CutoffSpec(level=1000.0, gamma=0.5, p=2, epsilon=0.3, flavor="sobolev")
    cfg = solver.SolverConfig(kappa=0.55, tol=1e-10, max_iters=200)
    metrics = {}

    def time_call(name, call, repeats=3, total=False):
        selfs, totals = [], []
        for _ in range(repeats):
            tracer.reset()
            result = call()
            stats = tracer.stats[name]
            selfs.append(stats.self_s)
            totals.append(stats.total_s)
        metrics[f"{name}.n{n}.self_s"] = statistics.median(selfs)
        if total:
            metrics[f"{name}.n{n}.total_s"] = statistics.median(totals)
        return result

    for n in SCALING_SIZES:
        x = fbm.sample_fbm(fbm.FbmConfig(hurst=0.75, n=n, seed=seed * 1000))
        time_call("grid.holder_norm", lambda: grid.holder_norm(x, 0.75))
        time_call("cutoff.garsia_functional", lambda: cutoff.garsia_functional(x, 0.3, 5))
        time_call("cutoff.sobolev_norm", lambda: cutoff.sobolev_norm(x, 0.5, 2))
        if hasattr(solver, "green_weights"):
            time_call("solver.green_weights", lambda: solver.green_weights(x))
        sol = time_call(
            "solver.solve_elliptic", lambda: solver.solve_elliptic(x, sigma, spec, cfg), total=True
        )
        if n <= KERNEL_SCALING_MAX_N:
            time_call(
                "malliavin.malliavin_kernel",
                lambda: malliavin.malliavin_kernel(sol, x, sigma, spec, cfg),
                repeats=1,
                total=True,
            )
    tracer.reset()
    return metrics


# --- driver -----------------------------------------------------------------


def run(args, spec, workdir: Path):
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup_runs = [timed_setup(workload)]
    while len(setup_runs) < SETUP_MIN_REPEATS or sum(setup_runs) < SETUP_BUDGET_S:
        setup_runs.append(timed_setup(workload))
    # A traced run splits its time between the untraced loop and the traced
    # replay of the same units.
    main = measure(workload, args.seconds / (2 if args.trace else 1), nullcontext)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not main.latencies_s:
        raise SystemExit(f"no path completed: {main.failures[:5]}")

    summary = {}
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    attempted, failures = main.attempted, list(main.failures)
    if args.trace:
        tracer = spans.Tracer(HOOKS)
        restore = spans.install(PACKAGE, tracer)
        try:
            clear_caches()
            start = perf_counter()
            workload.setup()
            traced_setup_s = perf_counter() - start
            traced = measure(workload, None, tracer.paused, units=main.units)
            values = span_metrics(tracer, spans)
            wall_s = traced_setup_s + traced.program_s
            values["trace.wall_s"] = wall_s
            values["trace.untraced_s"] = wall_s - tracer.total_self_s()
            values["trace.overhead_ratio"] = traced.program_s / main.program_s
            values["trace.paths"] = traced.attempted
            values["cli.output_bytes"] = traced.output_bytes / traced.attempted
            values.update(scaling_table(tracer, args.seed))
        finally:
            restore()
        attempted += traced.attempted
        failures += traced.failures
        # Reported as 0: no call reached these functions in this workload.
        summary["per_layer_without_calls"] = [n for n in names if n not in values]
    else:
        latencies, n = main.latencies_s, len(main.latencies_s)
        weights = mix_weights(main.classes, workload.class_shares)
        # The highest percentile with at least ten paths beyond it.
        tail_q = (n - 10) / n if n > 10 else 1.0
        mix = sum(latencies) / sum(w * t for w, t in zip(weights, latencies))
        completed = main.attempted - main.failed
        values = {
            "paths_per_s": completed / main.program_s * mix,
            "path_p50_ms": weighted_quantile(latencies, weights, 0.5) * 1e3,
            "path_tail_ms": weighted_quantile(latencies, weights, tail_q) * 1e3,
            "setup_s": statistics.median(setup_runs),
            "peak_rss_mb": peak_rss_mb,
        }
        summary.update(
            paths=n,
            tail_percentile=100.0 * tail_q,
            class_counts=Counter(main.classes),
            class_shares=workload.class_shares,
            unmixed_paths_per_s=completed / main.program_s,
            setup_runs_s=setup_runs,
            program_s=main.program_s,
            outcomes=getattr(workload, "totals", None),
        )
    failures += workload.finish() + share_check(main.classes, workload.class_shares)
    failed = sum(f["count"] for f in failures)
    summary.update(
        workload=args.workload,
        seed=args.seed,
        default_seed=DEFAULT_SEED,
        held_out_seed=HELD_OUT_SEED,
        seconds=args.seconds,
        trace=args.trace,
        attempted=attempted,
        failed=failed,
        failed_fraction={"value": failed / attempted, "unit": "ratio"},
        failures=failures,
        machine=machine_info(),
    )
    result = {
        "correct": not any(f["wrong"] for f in failures),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0), "unit": units[name]} for name in names},
    }
    return summary, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("density-n256", "solve-n2048", "malliavin-n256"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: {SRC / PACKAGE} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    package = importlib.import_module(PACKAGE)
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported {package.__file__}, not the checkout's copy", file=sys.stderr)
        return 2

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        summary, result = run(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"summary": summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
