"""Rotating-wave construction and verification near Taylor-Couette flow.

Numerical machinery for time-periodic rotating solutions of the 2D Euler
equation on an annulus: mollified trapezoidal vorticity profiles, modal
annulus Poisson solves, dense band operators with adjoints, eigenpair
construction with SVD validation, nonlinear residual and branch
continuation, Sobolev-distance estimates, and a direct spectral/FD
simulator that verifies rigid rotation.
"""

# NumPy imports its fft submodule on first use; the Poisson solves and the
# simulator need it, so it loads with the package and no workflow pays for
# a first import.  Nothing in the package reaches numpy.random or numpy.ma
# (np.unique and np.median would), so neither is loaded.
from numpy import fft as _fft  # noqa: F401

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
