"""Rotating-wave construction and verification near Taylor-Couette flow.

Numerical machinery for time-periodic rotating solutions of the 2D Euler
equation on an annulus: mollified trapezoidal vorticity profiles, modal
annulus Poisson solves, dense band operators with adjoints, eigenpair
construction with SVD validation, nonlinear residual and branch
continuation, Sobolev-distance estimates, and a direct spectral/FD
simulator that verifies rigid rotation.
"""

# NumPy imports these submodules on first use: fft (the Poisson solves and
# the simulator), random (`linearization_check`) and ma (reached through
# np.unique in `kernel`).  Loading them with the package keeps first
# imports out of the workflows.
from numpy import fft as _fft, ma as _ma, random as _random  # noqa: F401

from .config import AnnulusConfig, RunConfig, default_run_config, parse_config
from .domain import circulation, lambda0, u_tc
from .kernel import (EigenSolution, adjoint_kernel, build_eigensolution,
                     lambda_star, solve_lambda1, transversality,
                     validate_kernel)
from .linop import BandOperator, CoefficientSet, assemble, assemble_adjoint, p_coeff
from .nonlinear import (LevelSetPerturbation, build_vorticity, continue_branch,
                        functional_F, linearization_check, sobolev_distance)
from .poisson import RadialGrid, solve_axisymmetric, solve_full, solve_mode
from .profile import TrapezoidProfile
from .quadrature import ZGrid

__all__ = [
    "AnnulusConfig", "RunConfig", "default_run_config", "parse_config",
    "circulation", "lambda0", "u_tc",
    "EigenSolution", "adjoint_kernel", "build_eigensolution", "lambda_star",
    "solve_lambda1", "transversality", "validate_kernel",
    "BandOperator", "CoefficientSet", "assemble", "assemble_adjoint", "p_coeff",
    "LevelSetPerturbation", "build_vorticity", "continue_branch",
    "functional_F", "linearization_check", "sobolev_distance",
    "RadialGrid", "solve_axisymmetric", "solve_full", "solve_mode",
    "TrapezoidProfile", "ZGrid",
]

__version__ = "0.1.0"
