"""Modal Poisson solves on the annulus.

The stream problem -(lap) psi = omega with psi(r1)=0, psi(r2)=gamma is split
into Fourier modes in the angle.  Mode zero integrates the radial ODE in
closed form (`solve_axisymmetric`); modes n >= 1 use the explicit annulus
Green's kernel (`GreenModes`)

    G_n(r, s) = - S_n(min/r1) S_n(r2/max) / (n S_n(r2/r1)),
    S_n(x) = sinh(n log x),

evaluated by `mode_sinh`, which every Green's-kernel user shares and which
refuses modes with n log(r2/r1) > 600 (`SINH_LOG_MAX`), where sinh nears
overflow.  These are the package's only stream solves: F's, on the panel
grid below, and the simulator's, on its mapped finite-difference grid
(`eulersim.SimGrid`).  A grid supplies its nodes r, its walls r1 and r2
and its partial integrals: `cumulative` from r1, and `partials`, forward
from r1 and backward from r2, in place, in the grid's own coordinate xi
with dr = `measure` dxi.  The tests check the Green's
route against an independent second-order finite-difference
boundary-value solver, which shares no code with it.

`solve_full` reads symmetry from its input.  A field whose column
Ntheta - j equals column j exactly (F's transported vorticity is mirrored
so) has a real spectrum up to the rfft's rounding, and only the real
parts of its rfft bins, its cosine modes, are solved, in real arithmetic;
every other field takes the complex spectrum.  At 64 modes on a 444-node
grid a real `solve_mode` takes about 1.0 ms and peaks at 1.16 MB of
traced memory.

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
        # the walls are the outer edges, exactly (the last node may round)
        for name, value in (("r", self.nodes), ("r1", self.edges[0]),
                            ("r2", self.edges[-1])):
            object.__setattr__(self, name, value)

    @classmethod
    def for_profile(cls, cfg: AnnulusConfig, eps: float,
                    nodes_per_panel=(64, 128, 64, 128, 64),
                    pad: float = 0.0) -> "RadialGrid":
        e = eps + pad
        edges = [cfg.r1, cfg.R1 - e, cfg.R1 + e, cfg.R2 - e, cfg.R2 + e, cfg.r2]
        return cls(np.array(edges), tuple(nodes_per_panel))


class GreenModes:
    """The Green's solve of the modes n >= 1 on one radial grid.

    For the source g of f'' + f'/r - (n/r)^2 f = g, f(r1) = f(r2) = 0,

        f(r) = -[S_n(r2/r) L(r) + S_n(r/r1) R(r)] / (n S_n(r2/r1)),
        L(r) = int_{r1}^{r} S_n(s/r1) s g ds,
        R(r) = int_{r}^{r2} S_n(r2/s) s g ds,

    with S_n = `mode_sinh` (Greengard & Rokhlin, CPAM 44 (1991), for
    two-point problems as integral equations).  The grid's `partials` turn
    the integrands into L and R; the solve never asks which grid it has.
    The sinh tables are formed once, in the given dtype: the integrand
    factors S_n(r/r1) r dr/dxi and S_n(r2/r) r dr/dxi (dr/dxi the grid's
    `measure`, 1 on a panel grid) and the output factors, in full shape,
    and the divisor -n S_n(r2/r1), which carries the sign (x / -d is
    -(x / d) exactly).  n is one mode, with sources of shape (nr,), or an
    array of K modes, with sources of shape (nr, K).
    """

    def __init__(self, grid, n, dtype=float):
        self.grid = grid
        n = np.asarray(n)
        full = float(np.log(grid.r2 / grid.r1))
        col = (-1,) + (1,) * n.ndim                # radial data over modes
        r = grid.r.reshape(col)
        logx = np.log(r / grid.r1)
        sn_lo = mode_sinh(n, logx)                 # S_n(r/r1)
        sn_hi = mode_sinh(n, full - logx)          # S_n(r2/r)
        den = -(n * mode_sinh(n, full))
        rm = r * np.reshape(grid.measure, col)     # r dr/dxi
        # NumPy divides a complex x by d + 0j as x (1/d) (Smith's
        # algorithm), so complex tables multiply by 1/d, in full shape: the
        # same bits, without a division per element
        if np.dtype(dtype).kind == "c":
            den = np.broadcast_to(1.0 / den, grid.r.shape + n.shape)
            self._scale = np.multiply
        else:
            self._scale = np.divide
        self.lo_r, self.hi_r, self.lo, self.hi, self.den = (
            np.ascontiguousarray(t, dtype=dtype)
            for t in (sn_lo * rm, sn_hi * rm, sn_lo, sn_hi, den))

    def solve(self, g: np.ndarray, A: np.ndarray | None = None,
              B: np.ndarray | None = None,
              work: np.ndarray | None = None) -> np.ndarray:
        """f of the source g, written into A.  A and B hold the integrands
        and then L and R (allocated when None; B may be g itself), and work
        is the grid's scratch for `partials`."""
        A = np.multiply(self.lo_r, g, out=A)       # integrand of L
        B = np.multiply(self.hi_r, g, out=B)       # integrand of R
        self.grid.partials(A, B, work)
        # f = (S_hi L + S_lo R) / (-n S_full), formed in L
        np.multiply(self.hi, A, out=A)
        np.multiply(self.lo, B, out=B)
        np.add(A, B, out=A)
        self._scale(A, self.den, out=A)
        A[0] = 0.0
        A[-1] = 0.0
        return A


def solve_mode(n: int | np.ndarray, g: np.ndarray, grid) -> np.ndarray:
    """Solve f'' + f'/r - (n/r)^2 f = g with f(r1) = f(r2) = 0 (n >= 1) on
    the grid's walls, by `GreenModes`.

    n is one mode with g of shape (nr,), or an array of K modes with g of
    shape (nr, K) holding one source column per mode; g may be complex.
    """
    n = np.asarray(n)
    if np.any(n < 1):
        raise ValueError("solve_mode handles n >= 1; use solve_axisymmetric")
    gv = np.asarray(g, dtype=complex if np.iscomplexobj(g) else float)
    if gv.shape != grid.r.shape + n.shape:
        raise NumericsError("modal field shape does not match the grid")
    green = GreenModes(grid, n, gv.dtype)
    # a one-off solve: the integrands overwrite their factors
    return green.solve(gv, green.lo_r, green.hi_r)


def solve_axisymmetric(grid, w0: np.ndarray, gamma) -> np.ndarray:
    """Solve -(f'' + f'/r) = w0 with f(r1) = 0, f(r2) = gamma on the grid's
    walls, by the grid's `cumulative`; a complex source stays complex."""
    w0 = np.asarray(w0)
    V = grid.cumulative(grid.r * w0)           # int_{r1}^{r} t w0(t) dt
    U = grid.cumulative(V / grid.r)            # int_{r1}^{r} V(s)/s ds
    logr = np.log(grid.r2 / grid.r1)
    C = (gamma + U[-1]) / logr
    return C * np.log(grid.r / grid.r1) - U


def solve_full(omega: np.ndarray, gamma: float,
               grid: RadialGrid) -> np.ndarray:
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
    psi_hat[:, 0] = solve_axisymmetric(grid, what[:, 0].real, gamma * ntheta)
    # -(lap) psi = omega  =>  modal ODE source is -omega_k
    psi_hat[:, 1:] = solve_mode(np.arange(1, what.shape[1]), -what[:, 1:],
                                grid)
    return np.fft.irfft(psi_hat, n=ntheta, axis=1)
