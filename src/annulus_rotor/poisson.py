"""Modal Poisson solves on the annulus.

The stream problem -(lap) psi = omega with psi(r1)=0, psi(r2)=gamma is split
into Fourier modes in the angle.  Mode zero integrates the radial ODE in
closed form; modes n >= 1 use the explicit annulus Green's kernel

    G_n(r, s) = - S_n(min/r1) S_n(r2/max) / (n S_n(r2/r1)),
    S_n(x) = sinh(n log x),

evaluated by `mode_sinh`, which every Green's-kernel user shares and which
refuses modes with n log(r2/r1) > 600 (`SINH_LOG_MAX`), where sinh nears
overflow.  The tests
check the Green's route against an independent second-order
finite-difference boundary-value solver, which shares no code with it.

`solve_full` reads symmetry from its input.  A field whose column
Ntheta - j equals column j exactly (F's transported vorticity is mirrored
so) has a real spectrum up to the rfft's rounding, and only the real
parts of its rfft bins, its cosine modes, are solved, in real arithmetic;
every other field takes the complex spectrum.  `solve_mode` writes its
partial integrals over the spent integrands and forms f in place, in the
same operations and order as with separate arrays, so its bits do not
move.  At 64 modes on F's 332-node grid a real `solve_mode` takes 0.7-0.8
ms and peaks at 0.92 MB of traced memory, a complex one 1.9-2.2 ms and
1.54 MB.

`RadialGrid` is the Lobatto case of the package's one panel grid
(`quadrature.PanelGrid`), which also gives the z-grid: its weights,
partial integrals, derivative and reads between the nodes come from the
shared reference panels.  F reads psi at the displaced band radii by
`RadialGrid.interpolate`, from each panel's Chebyshev series; the
barycentric formula it replaced stays in the tests as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import AnnulusConfig
from .errors import NumericsError
from .quadrature import PanelGrid


SINH_LOG_MAX = 600.0    # largest n log(r2/r1) of a Green's solve


def mode_sinh(n, logx) -> np.ndarray:
    """S_n(x) = sinh(n log x) from log x, for one mode n or an array of
    modes broadcasting against logx.  Every caller evaluates S_n(r2/r1), so
    refusing |n log x| > SINH_LOG_MAX (sinh 600 = 2e260) refuses exactly
    the modes with n log(r2/r1) > SINH_LOG_MAX."""
    y = np.multiply(n, logx)
    if np.max(np.abs(y), initial=0.0) > SINH_LOG_MAX:
        raise NumericsError(f"mode {np.max(n)} exceeds the stable range of "
                            "the Green solve; scale r2/r1 or cap modes")
    return np.sinh(y)


@dataclass(frozen=True, eq=False, init=False)
class RadialGrid(PanelGrid):
    """Panel-refined Lobatto collocation grid on [r1, r2].

    Panels split at the two band boundaries so integrands stay smooth per
    panel; every panel carries its own spectral quadrature and indefinite
    integration weights.  Band edges are nodes (Lobatto endpoints).
    """

    def __init__(self, edges: np.ndarray, nodes_per_panel: tuple):
        super().__init__(edges, nodes_per_panel, "lobatto")
        object.__setattr__(self, "r", self.nodes)

    @classmethod
    def for_profile(cls, cfg: AnnulusConfig, eps: float,
                    nodes_per_panel=(64, 128, 64, 128, 64),
                    pad: float = 0.0) -> "RadialGrid":
        e = eps + pad
        edges = [cfg.r1, cfg.R1 - e, cfg.R1 + e, cfg.R2 - e, cfg.R2 + e, cfg.r2]
        return cls(np.array(edges), tuple(nodes_per_panel))


def solve_mode(n: int | np.ndarray, g: np.ndarray, grid: RadialGrid,
               r1: float, r2: float) -> np.ndarray:
    """Solve f'' + f'/r - (n/r)^2 f = g with f(r1) = f(r2) = 0 (n >= 1).

    Writes f(r) = -[S_n(r2/r) L(r) + S_n(r/r1) R(r)] / (n S_n(r2/r1)) with
    L(r) = int_{r1}^{r} S_n(s/r1) s g ds and R(r) the mirrored tail; the
    partial integrals are re-anchored at every target node through the
    panel indefinite-integration weights, so the kernel kink at s = r never
    crosses a quadrature interval.

    n is one mode with g of shape (nr,), or an array of K modes with g of
    shape (nr, K) holding one source column per mode; g may be complex.
    """
    n = np.asarray(n)
    if np.any(n < 1):
        raise ValueError("solve_mode handles n >= 1; use solve_axisymmetric")
    gv = np.asarray(g, dtype=complex if np.iscomplexobj(g) else float)
    if gv.shape != grid.r.shape + n.shape:
        raise NumericsError("modal field shape does not match the grid")
    full = float(np.log(r2 / r1))
    sn_full = mode_sinh(n, full)
    col = (-1,) + (1,) * n.ndim             # broadcast radial data over modes
    r = grid.r.reshape(col)
    logx = np.log(r / r1)
    sn_lo = mode_sinh(n, logx)                 # S_n(r/r1)
    sn_hi = mode_sinh(n, full - logx)          # S_n(r2/r)
    A = sn_lo * r * gv                         # integrand of L
    B = sn_hi * r * gv                         # integrand of R
    # panel totals once, then per-node partials via the W matrices
    totals_A = np.array([wl[-1] @ A[idx] for idx, wl
                         in zip(grid.panel_slices, grid._panel_wleft)])
    totals_B = np.array([wl[-1] @ B[idx] for idx, wl
                         in zip(grid.panel_slices, grid._panel_wleft)])
    zero = np.zeros_like(totals_A[:1])
    pref_A = np.concatenate((zero, np.cumsum(totals_A, axis=0)))
    suff_B = np.concatenate((np.cumsum(totals_B[::-1], axis=0)[::-1], zero))
    # the partials L and R overwrite the integrands A and B.  A panel's last
    # node is the next panel's first, which that panel still reads and then
    # writes, so every panel but the last leaves its last node alone (the
    # next panel's value there is the one a separate L and R kept).
    last = len(grid.panel_slices) - 1
    for p, (idx, wl) in enumerate(zip(grid.panel_slices, grid._panel_wleft)):
        part_A = pref_A[p] + wl @ A[idx]
        part_B = suff_B[p + 1] + (totals_B[p] - wl @ B[idx])
        keep = idx if p == last else idx[:-1]
        A[keep] = part_A[:len(keep)]
        B[keep] = part_B[:len(keep)]
    L, R = A, B
    # f = -(S_hi L + S_lo R) / (n S_full), formed in L
    np.multiply(sn_hi, L, out=L)
    np.multiply(sn_lo, R, out=R)
    np.add(L, R, out=L)
    np.negative(L, out=L)
    np.divide(L, n * sn_full, out=L)
    L[0] = 0.0
    L[-1] = 0.0
    return L


def solve_axisymmetric(grid: RadialGrid, w0: np.ndarray, gamma: float,
                       r1: float, r2: float) -> np.ndarray:
    """Solve -(f'' + f'/r) = w0 with f(r1) = 0, f(r2) = gamma."""
    w0 = np.asarray(w0, dtype=float)
    V = grid.cumulative(grid.r * w0)           # int_{r1}^{r} t w0(t) dt
    U = grid.cumulative(V / grid.r)            # int_{r1}^{r} V(s)/s ds
    logr = np.log(r2 / r1)
    C = (gamma + U[-1]) / logr
    return C * np.log(grid.r / r1) - U


def solve_full(omega: np.ndarray, gamma: float, grid: RadialGrid,
               cfg: AnnulusConfig) -> np.ndarray:
    """Solve the stream problem for omega sampled on (radial x angular) grid.

    omega has shape (Nr, Ntheta) on a uniform angular grid; returns psi of
    the same shape with psi(r1, .) = 0 and psi(r2, .) = gamma.  An even
    field (column Ntheta - j equal to column j) has a real spectrum, so only
    the real parts of its rfft bins are solved, in real arithmetic.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape[0] != grid.n:
        raise NumericsError("omega radial dimension does not match the grid")
    ntheta = omega.shape[1]
    what = np.fft.rfft(omega, axis=1)
    if np.array_equal(omega[:, 1:], omega[:, :0:-1]):
        what = np.ascontiguousarray(what.real)     # the cosine modes
    psi_hat = np.empty_like(what)
    psi_hat[:, 0] = solve_axisymmetric(grid, what[:, 0].real, gamma * ntheta,
                                       cfg.r1, cfg.r2)
    # -(lap) psi = omega  =>  modal ODE source is -omega_k
    psi_hat[:, 1:] = solve_mode(np.arange(1, what.shape[1]), -what[:, 1:],
                                grid, cfg.r1, cfg.r2)
    return np.fft.irfft(psi_hat, n=ntheta, axis=1)
