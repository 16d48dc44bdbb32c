"""The barycentric interpolation formula (Berrut & Trefethen, SIAM Rev. 46
(2004)), the oracle of the grids' Chebyshev reads and edge rows.  The
package read g and psi by it before both reads became Chebyshev series."""

import numpy as np

from annulus_rotor.quadrature import snap_to_nodes


def bary_interp(xn: np.ndarray, fn: np.ndarray, x: np.ndarray,
                b: np.ndarray) -> np.ndarray:
    """Interpolant on the sorted nodes xn, with barycentric weights b, of
    the nodal columns fn (n, ncol) at points x of shape (k, 1), shared by
    every column, or (k, ncol), one column each.  The sums run node by
    node, so no temporary outgrows the result; a point within 1e-15 of a
    node takes the node's value (`snap_to_nodes`)."""
    num = np.zeros(np.broadcast_shapes(x.shape, fn.shape[1:]),
                   dtype=np.result_type(fn, float))
    term = np.empty_like(num)
    den = np.zeros(x.shape)
    q = np.empty(x.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(len(xn)):
            np.subtract(x, xn[k], out=q)
            np.divide(b[k], q, out=q)
            den += q
            np.multiply(q, fn[k], out=term)
            num += term
        num /= den
    return snap_to_nodes(xn, fn, x, num)
