"""Pathwise solver for second-order elliptic SDEs on [0,1].

Solves z'' = sigma_M(x, z) x' with Dirichlet boundary conditions for drivers x
that are merely Holder continuous, via Young integration against the Green
kernel and contraction fixed points; differentiates the solution map in the
driving path; and, for fractional Brownian drivers with H > 1/2, computes
Malliavin-derivative norms, Skorohod/trace decompositions and the Monte Carlo
density study.
"""

from .coefficients import Coefficient, constant_coefficient, parse_sigma, tanh_coefficient
from .cutoff import (
    CutoffSpec,
    cutoff_derivative_forms,
    cutoff_prime,
    cutoff_value,
    garsia_functional,
    garsia_grad_kernel,
    norm_power,
    smooth_cutoff,
    smooth_cutoff_prime,
    sobolev_grad_kernel,
    sobolev_norm,
)
from .errors import (
    ConfigError,
    DivergenceError,
    InvalidInputError,
    NumericalError,
    UnsupportedParameterError,
)
from .experiments import (
    DensityReport,
    ExperimentConfig,
    convergence_study,
    density_experiment,
    report_json,
    lacunary_path,
)
from .fbm import (
    FbmConfig,
    fbm_covariance,
    fractional_inner_product,
    kernel_cell_masses,
    sample_fbm,
)
from .grid import GridFunction, HolderReport, holder_norm, trapezoid
from .malliavin import (
    DerivativeKernel,
    StratoDecomposition,
    derivative_norm,
    directional_derivative,
    malliavin_kernel,
    sign_pattern,
    stratonovich_decomposition,
)
from .solver import Solution, SolverConfig, picard_map, solve_elliptic, solve_linear
from .young import YoungResult, green_kernel, kernel_integral, young_integral

__version__ = "0.1.0"

__all__ = [
    "Coefficient",
    "ConfigError",
    "CutoffSpec",
    "DensityReport",
    "DerivativeKernel",
    "DivergenceError",
    "ExperimentConfig",
    "FbmConfig",
    "GridFunction",
    "HolderReport",
    "InvalidInputError",
    "NumericalError",
    "Solution",
    "SolverConfig",
    "StratoDecomposition",
    "UnsupportedParameterError",
    "YoungResult",
    "constant_coefficient",
    "convergence_study",
    "cutoff_derivative_forms",
    "cutoff_prime",
    "cutoff_value",
    "density_experiment",
    "derivative_norm",
    "directional_derivative",
    "fbm_covariance",
    "fractional_inner_product",
    "garsia_functional",
    "garsia_grad_kernel",
    "green_kernel",
    "holder_norm",
    "kernel_cell_masses",
    "kernel_integral",
    "malliavin_kernel",
    "norm_power",
    "parse_sigma",
    "picard_map",
    "report_json",
    "sample_fbm",
    "sign_pattern",
    "smooth_cutoff",
    "smooth_cutoff_prime",
    "sobolev_grad_kernel",
    "sobolev_norm",
    "solve_elliptic",
    "solve_linear",
    "stratonovich_decomposition",
    "tanh_coefficient",
    "trapezoid",
    "lacunary_path",
    "young_integral",
]
