"""Nonlinear rotating-wave functional and branch continuation.

The level sets of the vorticity are written as r = rho + f(rho, theta) on
the two bands.  Prescribing the transported profile along them defines a
vorticity field; the wave condition is the vanishing of

    F[lam, f](rho, theta) = lam (rho + f)^2 / 2 + psi(rho + f, theta)
                            - angular_mean(...)(rho),

where psi solves the stream problem for the rearranged vorticity.  This
module builds the field, evaluates F, checks the linearization against the
band operators, estimates Sobolev distances to the background, and continues
the nontrivial branch in the amplitude with a bordered Newton iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np
from numpy.polynomial.chebyshev import chebder

from .config import AnnulusConfig
from .domain import circulation
from .errors import NumericsError, OutOfDomainError
from .kernel import EigenSolution
from .linop import assemble
from .poisson import RadialGrid, solve_full
from .profile import TrapezoidProfile
from .quadrature import ZGrid, _chebval_into


@dataclass
class LevelSetPerturbation:
    """Single-mode band displacement f(r, theta) = g(z(r)) cos(m theta).

    g is sampled on the shared z-grid per band (inner, outer).
    """

    m: int
    zgrid: ZGrid
    g_inner: np.ndarray
    g_outer: np.ndarray
    cfg: AnnulusConfig
    eps: float

    def __post_init__(self):
        if self.g_inner.shape != (self.zgrid.n,) or \
           self.g_outer.shape != (self.zgrid.n,):
            raise ValueError("band samples must match the z-grid")

    @classmethod
    def from_kernel(cls, eig: EigenSolution, cfg: AnnulusConfig,
                    amplitude: float = 1.0) -> "LevelSetPerturbation":
        h = normalized_kernel(eig)
        return cls(m=eig.m, zgrid=eig.zgrid,
                   g_inner=amplitude * h[0], g_outer=amplitude * h[1],
                   cfg=cfg, eps=eig.eps)

    def edge_values(self, band: int) -> tuple[float, float]:
        """g at the band's edges z = -1 and z = 1."""
        lo, hi = self.zgrid.ends @ (self.g_inner if band == 1 else self.g_outer)
        return float(lo), float(hi)

    def max_slope(self) -> float:
        slopes = self.zgrid.diff @ np.stack([self.g_inner, self.g_outer], 1)
        return float(np.max(np.abs(slopes))) / self.eps


def normalized_kernel(eig: EigenSolution) -> tuple[np.ndarray, np.ndarray]:
    """Kernel element (inner, outer) scaled to unit plain-L2 norm over z."""
    a, b = eig.a, eig.b
    nrm = np.sqrt(float(np.dot(eig.zgrid.w, a ** 2)
                        + np.dot(eig.zgrid.w, b ** 2)))
    sgn = -np.sign(b[np.argmax(np.abs(b))])
    return sgn * a / nrm, sgn * b / nrm


def _kernel_direction(eig: EigenSolution,
                      zg: ZGrid) -> tuple[np.ndarray, np.ndarray]:
    """The normalized kernel element on the collocation grid zg: interpolated
    from the eigensolution's grid and rescaled to unit plain-L2 norm there."""
    h_in, h_out = normalized_kernel(eig)
    if zg.n == eig.zgrid.n:
        return h_in, h_out
    h_in = _interp_gauss(eig.zgrid, h_in, zg.z)
    h_out = _interp_gauss(eig.zgrid, h_out, zg.z)
    nrm = np.sqrt(float(np.dot(zg.w, h_in ** 2) + np.dot(zg.w, h_out ** 2)))
    return h_in / nrm, h_out / nrm


def _interp_gauss(zgrid: ZGrid, g: np.ndarray, z) -> np.ndarray:
    """The grid interpolant of the nodal values g at the points z in
    [-1, 1], shaped as z (`ZGrid.interpolate`)."""
    return zgrid.interpolate(g, z).reshape(np.shape(z))


@dataclass
class VorticityField:
    """Vorticity samples on a (radial x uniform angular) tensor grid."""

    grid: RadialGrid
    theta: np.ndarray
    values: np.ndarray


# Lobatto nodes per panel of the transported-vorticity grid, from r1: gap,
# inner band, plateau, outer band, gap (bands padded by the displacement)
_FIELD_NODES = (48, 96, 48, 96, 48)


def vorticity_samples(f: LevelSetPerturbation, profile: TrapezoidProfile,
                      radii: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Transported vorticity sampled on an arbitrary (radii x theta) grid.

    Per theta-column the displaced band is inverted by Newton iteration on
    rho + f(rho, theta) = r; outside the bands the field is piecewise
    constant with the deformed plateau boundaries.  f must be built for the
    profile's annulus and eps.
    """
    profile.check(f.cfg, f.eps)
    cfg = f.cfg
    eps = f.eps
    n_theta = len(theta)
    background = 2.0 * cfg.A
    values = np.full((len(radii), n_theta), background)
    cosm = np.cos(f.m * theta)
    slope = f.max_slope()
    if slope >= 1.0:
        raise NumericsError(
            f"level sets fold over: max |d f/d r| = {slope:.3f} >= 1")

    edges = {band: f.edge_values(band) for band in (1, 2)}
    for band, R in ((1, cfg.R1), (2, cfg.R2)):
        g_lo, g_hi = edges[band]
        r_lo = R - eps + g_lo * cosm
        r_hi = R + eps + g_hi * cosm
        mask = (radii[:, None] >= r_lo[None, :]) &                (radii[:, None] <= r_hi[None, :])
        ii, jj = np.nonzero(mask)
        if len(ii):
            rho = _invert_map(f, band, radii[ii], cosm[jj])
            values[ii, jj] = background + profile.value(rho)

    # plateau between the deformed band edges
    lo = cfg.R1 + eps + edges[1][1] * cosm
    hi = cfg.R2 - eps + edges[2][0] * cosm
    plateau = (radii[:, None] > lo[None, :]) & (radii[:, None] < hi[None, :])
    values[plateau] = background + profile.eps
    return values


def build_vorticity(f: LevelSetPerturbation, profile: TrapezoidProfile,
                    n_theta: int = 64) -> VorticityField:
    """Transported vorticity on the panel-refined radial grid.

    f is even in theta, and so is the field: columns 0..n_theta//2 are
    sampled by `vorticity_samples` and column n_theta - j is a copy of
    column j.
    """
    pad = 1.5 * float(max(np.max(np.abs(f.g_inner)), np.max(np.abs(f.g_outer)),
                          1e-12))
    grid = RadialGrid.for_profile(f.cfg, f.eps, _FIELD_NODES, pad=pad)
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    half = n_theta // 2 + 1
    values = np.empty((grid.n, n_theta))
    values[:, :half] = vorticity_samples(f, profile, grid.r, theta[:half])
    values[:, half:] = _mirrored(values, half)
    return VorticityField(grid=grid, theta=theta, values=values)


def _mirrored(values: np.ndarray, half: int) -> np.ndarray:
    """Columns half..n-1 of an even field from its columns 1..n-half:
    column n - j is column j."""
    n = values.shape[1]
    return values[:, n - half:0:-1]


# Newton steps allowed per band inversion (the desk kernel's outer band
# takes seven at amplitude 1e-3 and eleven at 3.8e-3)
_NEWTON_STEPS = 30
# The warm start: Newton's slope comes from the band's Chebyshev series cut
# where the tail of |coefficients| falls below _SERIES_TAIL of their sum,
# and so does the residual until a step in rho is below _WARM_STEP
_SERIES_TAIL = 1e-6
_WARM_STEP = 1e-9
# The inversion stops once a full-series step in rho is at most _STEP_TOL
_STEP_TOL = 1e-14


def _truncated(c: np.ndarray) -> np.ndarray:
    """The leading terms of the Chebyshev series c whose omitted tail sums
    to at most _SERIES_TAIL of the whole in absolute value."""
    tail = np.cumsum(np.abs(c)[::-1])[::-1]    # tail[k] = sum over j >= k
    return c[:max(1, np.count_nonzero(tail > _SERIES_TAIL * tail[0]))]


def _invert_map(f: LevelSetPerturbation, band: int, r_targets: np.ndarray,
                cos_m: np.ndarray | float) -> np.ndarray:
    """Solve rho + g(rho) cos = r on the band by clipped Newton iteration.

    In z = (rho - R)/eps the map is R + eps z + G(z) cos with G the band's
    Chebyshev series (`ZGrid.to_chebyshev`); its slope eps + G'(z) cos is
    positive because the level sets do not fold (|dg/drho| < 1).  The
    slope always comes from the series truncated by `_truncated` (degree
    13 of 95 on the desk kernel's outer band), and so does the residual
    until a step in rho is at most _WARM_STEP; from then on the residual
    is the full series', so the iteration is an inexact Newton method on
    the full map (Dembo, Eisenstat & Steihaug 1982) and converges to its
    root.  At sigma 1e-3 on the 96-node grid the outer band takes four
    truncated steps and three full ones (seven and four at sigma 3.8e-3).
    Iterates stay in [-1, 1]; the loop stops once the largest step in rho
    of a full-series residual is at most _STEP_TOL.  cos_m may be a scalar
    or an array matching r_targets, so an entire band (all columns at once)
    inverts in one batched sweep.  The series are summed by
    `_chebval_into`, three array operations per term, in one set of work
    arrays; the Legendre series it replaced took five per term, and the
    inversion's share of one F at n_theta 128 fell from about 4.5 to 3 ms.

    Here g is read through its own series, not `ZGrid.interpolate`,
    because only the series truncates to a cheap warm start: on the desk
    kernel at sigma 1e-3 a barycentric Newton inversion took
    3.6-5.5x the time of the Legendre-series one (over 3x with a
    piecewise-linear warm phase).
    """
    cfg, eps = f.cfg, f.eps
    R = cfg.R1 if band == 1 else cfg.R2
    c = f.zgrid.to_chebyshev @ (f.g_inner if band == 1 else f.g_outer)
    c_warm = _truncated(c)
    dc_warm = chebder(c_warm)
    series = c_warm
    z = np.clip((np.asarray(r_targets, dtype=float) - R) / eps, -1.0, 1.0)
    work = np.empty((4,) + z.shape)
    for _ in range(_NEWTON_STEPS):
        resid = R + eps * z + _chebval_into(z, series, work) * cos_m \
            - r_targets
        z_new = np.clip(z - resid / (eps + _chebval_into(z, dc_warm, work)
                                     * cos_m), -1.0, 1.0)
        step = eps * np.max(np.abs(z_new - z), initial=0.0)
        z = z_new
        if series is c and step <= _STEP_TOL:
            return R + eps * z
        if step <= _WARM_STEP:
            series = c
    raise NumericsError(f"level-set inversion did not converge in "
                        f"{_NEWTON_STEPS} Newton steps (last step {step:.3g} "
                        f"> {_STEP_TOL:g})")


@dataclass
class ResidualField:
    """F[lam, f] sampled on (band z-nodes x theta)."""

    theta: np.ndarray
    inner: np.ndarray          # (nz, ntheta)
    outer: np.ndarray

    def sup(self) -> float:
        return float(max(np.max(np.abs(self.inner)), np.max(np.abs(self.outer))))

    def l2(self, zgrid: ZGrid) -> float:
        dtheta = self.theta[1] - self.theta[0]
        s = np.dot(zgrid.w, np.sum(self.inner ** 2, axis=1) * dtheta)
        s += np.dot(zgrid.w, np.sum(self.outer ** 2, axis=1) * dtheta)
        return float(np.sqrt(s))

    def mode(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """cos(m theta) coefficients per band radius."""
        n = len(self.theta)
        cosm = np.cos(m * self.theta)
        return (2.0 / n) * self.inner @ cosm, (2.0 / n) * self.outer @ cosm


def functional_F(lam: float, f: LevelSetPerturbation,
                 profile: TrapezoidProfile,
                 n_theta: int = 64) -> ResidualField:
    """Wave residual on the bands for rotation rate lam; psi is read at the
    displaced radii rho + g cos(m theta) column by column, from the panel
    grid's Chebyshev series (`RadialGrid.interpolate`, spectral in r).

    F is even in theta, as f is: it is read on columns 0..n_theta//2 and
    column n_theta - j is a copy of column j before the angular mean is
    subtracted.
    """
    cfg = f.cfg
    field = build_vorticity(f, profile, n_theta=n_theta)
    grid = field.grid
    theta = field.theta
    gamma = circulation(cfg)
    psi = solve_full(field.values, gamma, grid)
    half = n_theta // 2 + 1
    cosm = np.cos(f.m * theta[:half])
    zg = f.zgrid
    out = {}
    for band, R, g in ((1, cfg.R1, f.g_inner), (2, cfg.R2, f.g_outer)):
        shift = (R + f.eps * zg.z)[:, None] + np.outer(g, cosm)
        vals = np.empty((zg.n, n_theta))
        vals[:, :half] = lam * shift ** 2 / 2.0 \
            + grid.interpolate(psi[:, :half], shift)
        vals[:, half:] = _mirrored(vals, half)
        vals -= vals.mean(axis=1, keepdims=True)
        out[band] = vals
    return ResidualField(theta=theta, inner=out[1], outer=out[2])


def _band_radii(profile: TrapezoidProfile, zg: ZGrid) -> np.ndarray:
    """Radii R_i + eps z of the band nodes, inner band first."""
    coeffs = profile.coefficients
    return np.concatenate([coeffs.radii(1, zg.z), coeffs.radii(2, zg.z)])


def _mode_jacobian(eig: EigenSolution, lam: float, profile: TrapezoidProfile,
                   zg: ZGrid) -> np.ndarray:
    """Derivative of F's mode-m band coefficients in the band samples of g
    at the trivial branch: each row of the band operator divided by its
    band radius.  The profile must have the eigensolution's eps."""
    profile.check(eps=eig.eps)
    op = assemble(eig.m, lam, profile, zg)
    return op.matrix() / _band_radii(profile, zg)[:, None]


# the golden-ratio conjugate, whose multiples mod 1 spread most evenly
_WEYL = (np.sqrt(5.0) - 1.0) / 2.0


def _weyl_cubics(seed: int) -> np.ndarray:
    """Coefficients of the five cubic directions of `linearization_check`,
    shape (5, 2, 4): direction, band (inner, outer), power of z.  Entry j
    of the 40 is 2 frac((40 seed + j) phi) - 1, j = 1..40, with phi the
    golden-ratio conjugate: a quasi-random Weyl sequence in (-1, 1), so
    that seed selects the directions with no random-number module."""
    n = 40.0 * seed + np.arange(1, 41)
    return (2.0 * np.mod(n * _WEYL, 1.0) - 1.0).reshape(5, 2, 4)


def linearization_check(eig: EigenSolution, cfg: AnnulusConfig,
                        profile: TrapezoidProfile,
                        taus=(1e-4, 5e-5), seed: int = 0) -> list[dict]:
    """Compare (F[lam, tau h] - F[lam, 0])/tau against the band operator.

    The trivial branch has F[lam, 0] = 0 identically, so the quotient is
    F[lam, tau h]/tau at the kernel rate lam; the operator side is
    cos(m theta) times the row-scaled band operator that the branch Newton
    uses (`_mode_jacobian`) applied to the band samples of h.  The five
    directions h are quasi-random Weyl cubics in z, selected by `seed`
    (`_weyl_cubics`).
    """
    profile.check(cfg)
    zg = eig.zgrid
    lam = eig.lam
    n_theta = 64
    powers = zg.z[None, :] ** np.arange(4)[:, None]
    directions = _weyl_cubics(seed) @ powers
    jac = _mode_jacobian(eig, lam, profile, zg)
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    cosm = np.cos(eig.m * theta)

    def field_norm(inner, outer):
        return np.sqrt(float(np.dot(zg.w, np.mean(inner ** 2, axis=1))
                             + np.dot(zg.w, np.mean(outer ** 2, axis=1))))

    results = []
    for g_in, g_out in directions:
        lin = jac @ np.concatenate([g_in, g_out])
        lin_inner = np.outer(lin[:zg.n], cosm)
        lin_outer = np.outer(lin[zg.n:], cosm)
        ref = field_norm(lin_inner, lin_outer)
        errs = []
        for tau in taus:
            pert = LevelSetPerturbation(m=eig.m, zgrid=zg,
                                        g_inner=tau * g_in, g_outer=tau * g_out,
                                        cfg=profile.cfg, eps=eig.eps)
            res = functional_F(lam, pert, profile, n_theta=n_theta)
            err = field_norm(res.inner / tau - lin_inner,
                             res.outer / tau - lin_outer)
            errs.append(err / ref)
        results.append({"taus": list(taus), "rel_errors": errs, "ref": ref})
    return results


@cache
def _distance_grid() -> ZGrid:
    """The z-grid of `sobolev_distance`, built once per process."""
    return ZGrid(64)


def sobolev_distance(profile: TrapezoidProfile, s: float,
                     f: LevelSetPerturbation | None = None) -> dict:
    """Band-quadrature Sobolev seminorms of the vorticity deviation.

    Returns the L2 deviation, the first/second band seminorms (with the
    level-set Jacobian factors when a perturbation is given), and the
    interpolated estimate for exponent s in [0, 3/2):
    |w|_{H^s} <= |w|_{H^1}^(2-s) |w|_{H^2}^(s-1) for s in [1, 2].  f must
    be built for the profile's annulus and eps.
    """
    if not 0.0 <= s < 1.5:
        raise OutOfDomainError(f"Sobolev exponent s={s} must lie in "
                               f"[0, 3/2)")
    if f is not None:
        profile.check(f.cfg, f.eps)
    cfg = profile.cfg
    e = profile.eps
    zg = _distance_grid()
    n_theta = 64

    # L2 of the deviation from the constant background, once per profile
    def deviation_l2() -> float:
        grid = RadialGrid.for_profile(cfg, e, (24, 48, 24, 48, 24))
        varpi = profile.value(grid.r)
        return np.sqrt(2.0 * np.pi * float(np.dot(grid.w, varpi ** 2)))

    l2 = profile.coefficients.memo("deviation_l2", deviation_l2)

    # the background (f = None) is the zero displacement on one column
    if f is None:
        m, theta, ang_w = 1, np.zeros(1), np.array([2.0 * np.pi])
    else:
        m = f.m
        theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
        ang_w = np.full(n_theta, 2.0 * np.pi / n_theta)
    cosm = np.cos(m * theta)
    sinm = np.sin(m * theta)

    h1_sq = 0.0
    h2_sq = 0.0
    band_h1 = {}
    band_h2_curv = {}
    for band, R in ((1, cfg.R1), (2, cfg.R2)):
        rho = R + e * zg.z
        dp = profile.derivative(rho)[:, None]
        dpp = profile.second_derivative(rho)[:, None]
        gv = np.zeros(zg.n) if f is None else _interp_gauss(
            f.zgrid, f.g_inner if band == 1 else f.g_outer, zg.z)
        gz = zg.diff @ gv
        gzz = zg.diff @ gz
        fr = np.outer(gz / e, cosm)
        frr = np.outer(gzz / e ** 2, cosm)
        ft = -m * np.outer(gv, sinm)
        jac = 1.0 + fr
        if np.min(jac) <= 0.0:
            raise NumericsError("level sets fold over in the Sobolev estimate")
        rr = rho[:, None] + np.outer(gv, cosm)
        wr = dp / jac
        wt = -ft * dp / jac
        grad_sq = wr ** 2 + (wt / rr) ** 2
        wrr = (dpp - frr * wr) / jac ** 2
        h1_band = float(np.dot(zg.w * e, (grad_sq * jac) @ ang_w))
        curv_band = float(np.dot(zg.w * e, (wrr ** 2 * jac) @ ang_w))
        band_h1[band] = h1_band / (2.0 * np.pi)
        band_h2_curv[band] = curv_band / (2.0 * np.pi)
        h1_sq += h1_band
        h2_sq += curv_band + h1_band
    h1 = np.sqrt(h1_sq)
    h2 = np.sqrt(h2_sq)
    if s <= 1.0:
        interp = l2 ** (1.0 - s) * h1 ** s
    else:
        interp = h1 ** (2.0 - s) * h2 ** (s - 1.0)
    return {"l2": l2, "h1": h1, "h2": h2, "s": s, "estimate": interp,
            "band_h1_sq": band_h1, "band_h2_curv_sq": band_h2_curv}


def h2_band_bound(profile: TrapezoidProfile) -> float:
    """Closed-form bound for the squared band seminorm of the curvature:
    (4 / (eps kappa)) * sup(bump)^2."""
    return 4.0 / (profile.eps * profile.kappa) * profile.moll.sup ** 2


@dataclass
class BranchPoint:
    sigma: float
    lam: float
    g_inner: np.ndarray
    g_outer: np.ndarray
    residual: float
    newton_iters: int


def continue_branch(eig: EigenSolution, cfg: AnnulusConfig,
                    profile: TrapezoidProfile, sigma_target: float,
                    steps: int = 4, n_theta: int = 48,
                    tol: float = 1e-9, max_newton: int = 12,
                    zgrid: ZGrid | None = None) -> list[BranchPoint]:
    """Continue the nontrivial branch to the target amplitude.

    Unknowns are the mode-m samples of f on the collocation grid `zgrid`
    (default: the eigensolution's) plus the rate; the bordered system adds
    the amplitude constraint <f, h> = sigma against the kernel element h.
    Newton is a chord iteration on the analytic Jacobian: `_mode_jacobian`
    (assembled once per call, only when a step is needed), the amplitude
    row w h and the rate column dF_m/dlam = rho g, refreshed per iterate.
    A step is halved up to five times until the residual falls.  A point is
    accepted once its residual is at most max(tol, F's rounding floor), the
    floor being 16 eps_mach times the largest |lam shift^2 / 2| on the bands.
    steps < 1 raises OutOfDomainError.
    """
    profile.check(cfg, eig.eps)
    if steps < 1:
        raise OutOfDomainError(f"steps must be at least 1; got {steps}")
    zg = zgrid if zgrid is not None else eig.zgrid
    w2 = np.concatenate([zg.w, zg.w])
    hvec = np.concatenate(_kernel_direction(eig, zg))
    rho = _band_radii(profile, zg)
    n = zg.n

    def residual_vec(x: np.ndarray, sigma: float) -> np.ndarray:
        pert = LevelSetPerturbation(m=eig.m, zgrid=zg, g_inner=x[:n],
                                    g_outer=x[n:-1], cfg=profile.cfg,
                                    eps=eig.eps)
        res = functional_F(x[-1], pert, profile, n_theta=n_theta)
        f_in, f_out = res.mode(eig.m)
        constraint = float(np.dot(w2, hvec * x[:-1])) - sigma
        return np.concatenate([f_in, f_out, [constraint]])

    def floor(x: np.ndarray) -> float:
        return 8.0 * np.finfo(float).eps * abs(x[-1]) \
            * np.max(rho + np.abs(x[:-1])) ** 2

    points: list[BranchPoint] = []
    x = np.concatenate([np.zeros(2 * n), [eig.lam]])
    J = None
    prev = 0.0
    for sigma in sigma_target * (np.arange(1, steps + 1) / steps):
        x[:-1] += (sigma - prev) * hvec
        prev = sigma
        r = residual_vec(x, sigma)
        rn = np.linalg.norm(r, np.inf)
        taken = 0                      # Newton steps accepted at this sigma
        while rn > max(tol, floor(x)):
            if taken == max_newton:
                raise NumericsError(
                    f"branch Newton did not converge at sigma={sigma:g}: "
                    f"residual {rn:.3e} > tol {tol:g} after "
                    f"max_newton={max_newton} steps")
            if J is None:
                J = np.zeros((2 * n + 1, 2 * n + 1))
                J[:-1, :-1] = _mode_jacobian(eig, eig.lam, profile, zg)
                J[-1, :-1] = w2 * hvec
            J[:-1, -1] = rho * x[:-1]
            try:
                dx = np.linalg.solve(J, -r)
            except np.linalg.LinAlgError as exc:
                raise NumericsError(f"singular branch Jacobian: {exc}")
            step = 1.0
            for _ in range(5):
                cand = x + step * dx
                rc = residual_vec(cand, sigma)
                rcn = np.linalg.norm(rc, np.inf)
                if rcn < rn:
                    x, r, rn = cand, rc, rcn
                    taken += 1
                    break
                step /= 2.0
            else:
                raise NumericsError(
                    f"branch Newton diverged after 5 halvings at "
                    f"sigma={sigma:g}: residual {rn:.3e} > tol {tol:g} and "
                    f"rounding floor {floor(x):.3e}, last trial {rcn:.3e}")
        points.append(BranchPoint(sigma=float(sigma), lam=float(x[-1]),
                                  g_inner=x[:n].copy(), g_outer=x[n:-1].copy(),
                                  residual=float(rn), newton_iters=taken))
    return points

