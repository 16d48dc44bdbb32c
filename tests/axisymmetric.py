"""The radial derivative of the axisymmetric stream solution in closed form.

Only the tests read it: they recover the Taylor-Couette swirl from it.  A
plain module, like `desk`, so that test files import it by name.
"""

import numpy as np

from annulus_rotor.poisson import RadialGrid


def axisymmetric_prime(grid: RadialGrid, w0: np.ndarray, gamma: float,
                       r1: float, r2: float) -> np.ndarray:
    """Radial derivative of `solve_axisymmetric`'s solution (closed form)."""
    w0 = np.asarray(w0, dtype=float)
    V = grid.cumulative(grid.r * w0)
    U_end = grid.integrate(V / grid.r)
    C = (gamma + U_end) / np.log(r2 / r1)
    return C / grid.r - V / grid.r
