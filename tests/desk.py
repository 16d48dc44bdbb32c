"""Desk-scale defaults shared across the suite (see default_run_config) and
a cache of their eigensolutions.

A plain module, so that test files import it by name without reaching
into a `conftest` (the benchmark's tests have a `conftest` of their own).
"""

from annulus_rotor.config import AnnulusConfig
from annulus_rotor.kernel import build_eigensolution
from annulus_rotor.profile import TrapezoidProfile
from annulus_rotor.quadrature import ZGrid

DESK_CFG = AnnulusConfig(r1=1.0, r2=2.0, R1=1.2, R2=1.5, A=0.0, B=0.15)
DESK_EPS = 1e-2
DESK_KAPPA = 0.1
DESK_M = 3
# least sigma_min / (eps sigma_max) of the weighted operator of a mode
# n != m at mode m's rate: the discrete no-kernel check, which a pass of
# `validate_kernel`'s rate-gap floor must imply
OFFMODE_SVD_FLOOR = 1e-3

_EIG_CACHE = {}


def eigensolution(eps, m=DESK_M, mode="exact", kappa=DESK_KAPPA, nz=96):
    key = (eps, m, mode, kappa, nz)
    if key not in _EIG_CACHE:
        prof = TrapezoidProfile(DESK_CFG, eps, kappa)
        _EIG_CACHE[key] = build_eigensolution(DESK_CFG, prof, m, ZGrid(nz),
                                              mode=mode)
    return _EIG_CACHE[key]
