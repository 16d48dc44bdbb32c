"""The Taylor-Couette swirl and the radial derivative of the axisymmetric
stream solution in closed form.

Only the tests read them: they recover the swirl from the derivative.  A
plain module, like `desk`, so that test files import it by name.
"""

import numpy as np

from annulus_rotor.config import AnnulusConfig
from annulus_rotor.errors import OutOfDomainError
from annulus_rotor.poisson import RadialGrid


def u_tc(cfg: AnnulusConfig, r) -> np.ndarray:
    """Azimuthal base velocity A r + B / r."""
    r = np.asarray(r, dtype=float)
    if np.any((r < cfg.r1 - 1e-12) | (r > cfg.r2 + 1e-12)):
        raise OutOfDomainError(f"radius outside [{cfg.r1}, {cfg.r2}]")
    return cfg.A * r + cfg.B / r


def axisymmetric_prime(grid: RadialGrid, w0: np.ndarray, gamma: float,
                       r1: float, r2: float) -> np.ndarray:
    """Radial derivative of `solve_axisymmetric`'s solution (closed form)."""
    w0 = np.asarray(w0, dtype=float)
    V = grid.cumulative(grid.r * w0)
    U_end = grid.integrate(V / grid.r)
    C = (gamma + U_end) / np.log(r2 / r1)
    return C / grid.r - V / grid.r
