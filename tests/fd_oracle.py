"""Independent finite-difference oracle for the modal Poisson solves.

It shares no code with `annulus_rotor.poisson` or the simulator's stream
solver, and solves with SciPy's banded LAPACK routine.
"""

import numpy as np
from scipy.linalg import solve_banded


def fd_bvp_solve(n: int, g_fn, r1: float, r2: float, n_nodes: int = 1024,
                 grid_nodes: np.ndarray | None = None,
                 richardson: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Independent second-order FD oracle for the modal BVP (n >= 1).

    Three-point scheme on a (possibly nonuniform) node set; `g_fn` is a
    callable so the oracle controls its own sampling.  Optional Richardson
    pass solves again on a doubled grid and extrapolates.
    """
    if grid_nodes is None:
        grid_nodes = np.linspace(r1, r2, n_nodes)
    r = np.asarray(grid_nodes, dtype=float)
    keep = np.concatenate(([True], np.diff(r) > 1e-12 * (r[-1] - r[0])))
    r = r[keep]

    def solve_on(rv):
        N = len(rv)
        h_l = rv[1:-1] - rv[:-2]
        h_r = rv[2:] - rv[1:-1]
        mid = rv[1:-1]
        # f'' and f' by nonuniform 3-point formulas
        a = 2.0 / (h_l * (h_l + h_r)) - 1.0 / (mid * (h_l + h_r)) * (h_r / h_l)
        c = 2.0 / (h_r * (h_l + h_r)) + 1.0 / (mid * (h_l + h_r)) * (h_l / h_r)
        b = (-2.0 / (h_l * h_r)
             + (h_r / h_l - h_l / h_r) / (mid * (h_l + h_r))
             - (n / mid) ** 2)
        band = np.zeros((3, N - 2))
        band[0, 1:] = c[:-1]
        band[1, :] = b
        band[2, :-1] = a[1:]
        rhs = g_fn(mid)
        inner = solve_banded((1, 1), band, rhs)
        full = np.zeros(N)
        full[1:-1] = inner
        return full

    coarse = solve_on(r)
    if not richardson:
        return r, coarse
    fine_nodes = np.sort(np.concatenate([r, 0.5 * (r[:-1] + r[1:])]))
    fine = solve_on(fine_nodes)
    fine_on_coarse = fine[::2]
    return r, (4.0 * fine_on_coarse - coarse) / 3.0
