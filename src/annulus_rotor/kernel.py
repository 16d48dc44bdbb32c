"""Eigenpair construction for the band operator and its validation.

The rotation rate and band profiles are expanded in the band half-width:

    lam = lam0 + eps lam1 + eps^2 lam2,
    a   = eps a1 + eps^2 a2(z),      (inner band)
    b   = b0(z) + eps b1(z),         (outer band)

lam0 comes from the geometry, lam1 is the unique root of a scalar integral
equation (found by bisection), (b0, a1) are explicit, and the order-two
corrections (a2, b1, lam2) solve a small fixed-point system whose Taylor
remainders in eps use analytic delta-derivative kernels integrated by Gauss
quadrature.  Validation is SVD-based: rank-one deficiency of the discretized
operator at the constructed rate, null-vector match, isolation at the other
modes, adjoint kernel expansion, and the transversality pairing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import AnnulusConfig
from .errors import BracketError, ContractionError, KernelValidationError, NumericsError
from .linop import CoefficientSet, assemble, assemble_adjoint, p_coeff
from .profile import TrapezoidProfile
from .quadrature import ZGrid, geometric_edges, mapped_rule


def lambda_star(coeffs: CoefficientSet) -> float:
    """Boundary value of the admissible lam1 range (sign-aware in B)."""
    cfg = coeffs.cfg
    z_edge = 1.0 if cfg.B > 0 else -1.0
    return -(2.0 * cfg.B / cfg.R2 * z_edge + float(coeffs.swirl1(2, 0.0))) \
        / cfg.R2 ** 2


def _alpha1_out(coeffs: CoefficientSet, z, lam1: float) -> np.ndarray:
    return coeffs.alpha1(2, z, lam1)


def _edge_breaks(kappa: float) -> list[float]:
    pts = [-1.0, 1.0]
    if kappa < 0.5:
        pts += [-1.0 + 2.0 * kappa, 1.0 - 2.0 * kappa]
    return sorted(pts)


def _I_panels(prof: TrapezoidProfile, n_gauss: int) -> list:
    """(nodes, weights, edge' at the nodes) of each Gauss panel of I(lam1),
    refined toward the endpoints where the integrand has boundary-layer
    structure."""
    breaks = _edge_breaks(prof.kappa)
    edges: list[float] = []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        sub_r = geometric_edges(lo, hi, "right", 18, 0.6)
        sub_l = geometric_edges(lo, hi, "left", 18, 0.6)
        edges.extend(np.unique(np.concatenate([sub_r, sub_l])))
    edges = np.unique(np.asarray(edges))
    panels = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        x, w = mapped_rule(lo, hi, n_gauss)
        panels.append((x, w, prof.edge_prime(x)))
    return panels


def _I_quadrature(coeffs: CoefficientSet, m: int, lam1: float,
                  n_gauss: int = 24) -> float:
    """I(lam1) = p2(m) * int edge'(s) / alpha1_out(s) ds; the panels and
    their edge' values are built once per (profile, n_gauss)."""
    panels = coeffs.memo(("I_panels", n_gauss),
                         lambda: _I_panels(coeffs.profile, n_gauss))
    total = 0.0
    for x, w, ep in panels:
        total += float(np.dot(w, ep / _alpha1_out(coeffs, x, lam1)))
    return p_coeff(2, m, coeffs.cfg) * total


def solve_lambda1(m: int, coeffs: CoefficientSet, tol: float = 1e-10,
                  max_iter: int = 200) -> dict:
    """Unique root of I(lam1) = 1 below lambda_star, by bisection.

    I is strictly increasing on (-inf, lambda*), tends to 0 at -inf, and its
    (finite) limit at lambda* must exceed 1 for a root to exist; otherwise
    the config/kappa pair is out of range and a BracketError is raised.
    """
    lam_star = lambda_star(coeffs)
    scale = max(abs(lam_star), 1.0)
    # shrink delta until I > 1 just below lambda*
    delta = 1e-3 * scale
    for _ in range(80):
        if _I_quadrature(coeffs, m, lam_star - delta) > 1.0:
            break
        delta /= 4.0
        if delta < 1e-15 * scale:
            val = _I_quadrature(coeffs, m, lam_star - 1e-12 * scale)
            raise BracketError(
                f"no rate-slope root below lambda*={lam_star:.6g}: "
                f"I(lambda*^-) = {val:.6g} <= 1. The config is invalid or "
                "kappa is too large for this mode.")
    # grow Delta until I < 1 far below lambda*
    big = max(4.0 * delta, scale)
    for _ in range(200):
        if _I_quadrature(coeffs, m, lam_star - big) < 1.0:
            break
        big *= 4.0
    else:
        raise BracketError("could not bracket the rate-slope root from below")
    lo, hi = lam_star - big, lam_star - delta     # I(lo) < 1 < I(hi)
    lam1 = 0.5 * (lo + hi)
    resid = np.inf
    for _ in range(max_iter):
        lam1 = 0.5 * (lo + hi)
        val = _I_quadrature(coeffs, m, lam1)
        resid = val - 1.0
        if abs(resid) <= tol:
            break
        if val > 1.0:
            hi = lam1
        else:
            lo = lam1
    if abs(resid) > tol:
        raise NumericsError(f"rate-slope bisection stalled: |I-1|={abs(resid):.3g}")
    return {"lam1": float(lam1), "residual": float(resid),
            "lambda_star": float(lam_star)}


def lambda1_closed_form(m: int, coeffs: CoefficientSet) -> float:
    """Closed form of the rate slope with the kappa-correction dropped.

    Exact for the sharp-edge limit of the profile; the gap to the bisection
    root shrinks linearly in kappa.
    """
    cfg = coeffs.cfg
    lam_star = lambda_star(coeffs)
    absB = abs(cfg.B)
    E = np.exp(4.0 * absB / (cfg.R2 * p_coeff(2, m, cfg)))
    return lam_star - (4.0 * absB / cfg.R2 ** 3) / (E - 1.0)


def b0_and_a1(m: int, lam1: float, coeffs: CoefficientSet,
              zgrid: ZGrid) -> tuple[np.ndarray, float]:
    """Leading outer profile b0 = 1/alpha1_out and the constant inner lead."""
    alpha1 = _alpha1_out(coeffs, zgrid.z, lam1)
    if np.any(alpha1 == 0.0) or np.max(alpha1) * np.min(alpha1) <= 0.0:
        raise KernelValidationError("outer coefficient changes sign on the "
                                    "band; lam1 is outside its valid range")
    b0 = 1.0 / alpha1
    prof = coeffs.profile
    contraction = float(np.dot(zgrid.w, prof.edge_prime(zgrid.z) * b0))
    a1 = p_coeff(1, m, coeffs.cfg) * contraction / coeffs.alpha0(1)
    return b0, a1


def grid_lambda1(m: int, coeffs: CoefficientSet, zgrid: ZGrid) -> float:
    """Rate slope satisfying the root equation under the *grid* quadrature.

    The bisection root uses an adaptive panel quadrature; the grid Gauss rule
    differs from it at the mollifier's approximation floor (~1e-6 at 96
    nodes), so the discrete eigenpair construction re-solves the root
    equation in the grid's own quadrature and lands at rounding level.
    """
    root = solve_lambda1(m, coeffs)
    return _polish_lambda1_on_grid(m, root["lam1"], coeffs, zgrid)


def _polish_lambda1_on_grid(m: int, lam1: float, coeffs: CoefficientSet,
                            zgrid: ZGrid, iters: int = 6) -> float:
    """Newton-polish lam1 so the grid quadrature of the root equation is
    machine-exact (keeps the discrete construction residual at rounding)."""
    cfg = coeffs.cfg
    p2 = p_coeff(2, m, cfg)
    ep = coeffs.profile.edge_prime(zgrid.z)
    for _ in range(iters):
        alpha1 = _alpha1_out(coeffs, zgrid.z, lam1)
        g = p2 * float(np.dot(zgrid.w, ep / alpha1)) - 1.0
        dg = -p2 * cfg.R2 ** 2 * float(np.dot(zgrid.w, ep / alpha1 ** 2))
        step = g / dg
        lam1 -= step
        if abs(step) < 1e-16 * max(1.0, abs(lam1)):
            break
    return lam1


def invert_q2hat(G: np.ndarray, m: int, lam1: float, coeffs: CoefficientSet,
                 b0: np.ndarray, zgrid: ZGrid) -> tuple[np.ndarray, float]:
    """Solve the reduced order-two outer equation for (g, mu).

    Returns (g, mu) with alpha1 g + (mu R2^2 + beta) b0 - p2 <edge' g> = G,
    where beta is the lam2-free quadratic part of the order-two coefficient:
    mu R2^2 = <(G - beta b0) b0 edge'> / <b0^2 edge'> makes
    F = G - (mu R2^2 + beta) b0 orthogonal to b0 edge', and g = F b0.
    """
    cfg = coeffs.cfg
    ep = coeffs.profile.edge_prime(zgrid.z)
    beta_b0 = coeffs.beta_quad(zgrid.z, lam1) * b0
    den = float(np.dot(zgrid.w, b0 ** 2 * ep))
    if abs(den) < 1e-14:
        raise KernelValidationError("degenerate outer projection weight")
    mu = float(np.dot(zgrid.w, (G - beta_b0) * b0 * ep)) / (cfg.R2 ** 2 * den)
    g = (G - mu * cfg.R2 ** 2 * b0 - beta_b0) * b0
    return g, mu


class _DeltaKernels:
    """Analytic delta-derivatives of the band coupling kernels.

    Each Phi(delta, z, s) is a product of band radii and hyperbolic factors;
    their delta-derivatives are coded directly and integrated by Gauss
    quadrature over delta in [0, eps].
    """

    def __init__(self, cfg: AnnulusConfig, m: int):
        self.cfg = cfg
        self.m = m
        self._ls = np.log(cfg.r2 / cfg.r1)
        self.S_full = np.sinh(m * self._ls)

    def _S(self, x):
        return np.sinh(self.m * np.log(x))

    def _C(self, x):
        return np.cosh(self.m * np.log(x))

    def _pair_rank(self, Rz, Rs, d, z, s):
        """d/d delta of (Rz+dz)(Rs+ds) S((Rz+dz)/r1) S(r2/(Rs+ds))."""
        m, r1, r2 = self.m, self.cfg.r1, self.cfg.r2
        xz = Rz + d * z
        xs = Rs + d * s
        t1 = z * xs * self._S(r2 / xs) * (self._S(xz / r1) + m * self._C(xz / r1))
        t2 = s * xz * self._S(xz / r1) * (self._S(r2 / xs) - m * self._C(r2 / xs))
        return t1 + t2

    def _pair_volterra(self, Rz, Rs, d, z, s):
        """d/d delta of (Rz+dz)(Rs+ds) S((Rz+dz)/(Rs+ds))."""
        m = self.m
        xz = Rz + d * z
        xs = Rs + d * s
        ratio = xz / xs
        return ((z * xs + s * xz) * self._S(ratio)
                + self._C(ratio) * m * (z * Rs - s * Rz))

    # kernels of the Taylor remainders; the order-two remainders reuse the
    # order-one kernels (R1, R2) and (R2, R2)
    def dT1(self, d, z, s):
        return self._pair_rank(self.cfg.R1, self.cfg.R2, d, z, s)

    def dQ1_rank(self, d, z, s):
        return self._pair_rank(self.cfg.R2, self.cfg.R2, d, z, s)

    def dQ1_volterra(self, d, z, s):
        return self._pair_volterra(self.cfg.R2, self.cfg.R2, d, z, s)

    def dT2_inner_rank(self, d, z, s):
        return self._pair_rank(self.cfg.R1, self.cfg.R1, d, z, s)

    def dT2_volterra(self, d, z, s):
        return self._pair_volterra(self.cfg.R1, self.cfg.R1, d, z, s)

    def dQ2_cross_rank(self, d, z, s):
        return self._pair_rank(self.cfg.R2, self.cfg.R1, d, z, s)

    def dQ2_cross_full(self, d, z, s):
        return self._pair_volterra(self.cfg.R2, self.cfg.R1, d, z, s)


@dataclass
class EigenSolution:
    """Constructed eigenpair with expansion pieces and diagnostics."""

    m: int
    eps: float
    kappa: float
    lam0: float
    lam1: float
    lam2: float
    a1: float
    b0: np.ndarray
    a2: np.ndarray
    b1: np.ndarray
    zgrid: ZGrid
    mode: str
    diagnostics: dict = field(default_factory=dict)

    @property
    def lam(self) -> float:
        return self.lam0 + self.eps * self.lam1 + self.eps ** 2 * self.lam2

    @property
    def a(self) -> np.ndarray:
        return self.eps * self.a1 + self.eps ** 2 * self.a2

    @property
    def b(self) -> np.ndarray:
        return self.b0 + self.eps * self.b1


# Gauss nodes of the delta averages in the Taylor remainders
N_DELTA = 12


class KernelBuilder:
    """Shared machinery for the order-two fixed point at one (m, eps)."""

    def __init__(self, cfg: AnnulusConfig, profile: TrapezoidProfile, m: int,
                 zgrid: ZGrid, coeffs: CoefficientSet | None = None):
        self.cfg = cfg
        self.profile = profile
        self.m = m
        self.zgrid = zgrid
        self.coeffs = coeffs if coeffs is not None else profile.coefficients
        self.kern = _DeltaKernels(cfg, m)
        self.eps = profile.eps
        z = zgrid.z
        self.ep_plus = profile.edge_prime(z)       # edge'(z)
        self.ep_minus = profile.edge_prime(-z)     # edge'(-z)
        self.p1 = p_coeff(1, m, cfg)
        self.p2 = p_coeff(2, m, cfg)
        self.dx, self.dw = mapped_rule(0.0, self.eps, N_DELTA)
        self.x1 = cfg.R1 + self.eps * z
        self.x2 = cfg.R2 + self.eps * z
        self.swirl2 = self.coeffs.swirl2_on_grid(zgrid)
        self._averages: dict[str, np.ndarray] = {}

    def _alpha2(self, band: int, lam1: float, lam2: float,
                include_swirl2: bool) -> np.ndarray:
        """coeffs.alpha2 at the grid nodes, with swirl2 from the set's
        grid terms."""
        out = self.coeffs.alpha2(band, self.zgrid.z, lam1, lam2,
                                 include_swirl2=False)
        return out + self.swirl2[band] if include_swirl2 else out

    # -- Taylor-remainder averages (1/eps) int_0^eps dPhi ------------------

    def _averaged(self, kernel) -> np.ndarray:
        """(1/eps) int_0^eps kernel(delta, z, s) d delta on the grid.

        The average depends only on (m, eps, grid), so each kernel's matrix
        is built once per builder and reused by every Picard iteration.
        """
        name = kernel.__name__
        if name not in self._averages:
            z = self.zgrid.z[:, None]
            s = self.zgrid.z[None, :]
            acc = np.zeros((self.zgrid.n, self.zgrid.n))
            for d, wd in zip(self.dx, self.dw):
                acc += wd * kernel(d, z, s)
            acc /= self.eps
            self._averages[name] = acc
        return self._averages[name]

    def _avg_rank(self, kernel, weight_vec) -> np.ndarray:
        """(1/eps) int_0^eps of a rank-one term with source weight_vec."""
        return self._averaged(kernel) @ (self.zgrid.w * weight_vec)

    def _avg_volterra(self, kernel, weight_vec) -> np.ndarray:
        """(1/eps) int_0^eps of a Volterra term (integral over s < z)."""
        return (self._averaged(kernel) * self.zgrid.w_left) @ weight_vec

    def remainder_T1(self, b0: np.ndarray) -> np.ndarray:
        pref = -1.0 / (self.m * self.kern.S_full)
        return pref * self._avg_rank(self.kern.dT1, self.ep_plus * b0)

    def remainder_Q1(self, b0: np.ndarray) -> np.ndarray:
        pref = -1.0 / (self.m * self.kern.S_full)
        rank = pref * self._avg_rank(self.kern.dQ1_rank, self.ep_plus * b0)
        volt = self._avg_volterra(self.kern.dQ1_volterra,
                                  self.ep_plus * b0) / self.m
        return rank + volt

    def remainder_T2(self, b1: np.ndarray, a1: float) -> np.ndarray:
        m, Sf = self.m, self.kern.S_full
        t_in = self._avg_rank(self.kern.dT2_inner_rank, self.ep_minus) * a1 / (m * Sf)
        t_cross = -self._avg_rank(self.kern.dT1, self.ep_plus * b1) / (m * Sf)
        t_vol = -self._avg_volterra(self.kern.dT2_volterra,
                                    self.ep_minus) * a1 / m
        return t_in + t_cross + t_vol

    def remainder_Q2(self, b1: np.ndarray, lam2: float, a1: float,
                     b0: np.ndarray, lam1: float = 0.0) -> np.ndarray:
        m, Sf = self.m, self.kern.S_full
        # delta-average of the polynomial coefficient's derivative: the
        # lam1 z^2 and lam2 tails both live at this order
        R2 = self.cfg.R2
        z = self.zgrid.z
        avg_alpha = lam1 * z ** 2 + 2.0 * z * lam2 * (R2 + 0.5 * self.eps * z)
        out = avg_alpha * b0
        out = out + self._avg_rank(self.kern.dQ2_cross_rank,
                                   self.ep_minus) * a1 / (m * Sf)
        out = out - self._avg_rank(self.kern.dQ1_rank,
                                   self.ep_plus * b1) / (m * Sf)
        out = out - self._avg_rank(self.kern.dQ2_cross_full,
                                   self.ep_minus) * a1 / m
        out = out + self._avg_volterra(self.kern.dQ1_volterra,
                                       self.ep_plus * b1) / m
        return out

    # -- full-eps order-three terms ----------------------------------------

    def _rank_full(self, Rz_band: int, w_vec: np.ndarray) -> np.ndarray:
        """x_band(z) S(x_band(z)/r1)/S_full * (1/m) int w(s) x1(s) S(r2/x1(s))."""
        cfg, m = self.cfg, self.m
        xz = self.x1 if Rz_band == 1 else self.x2
        xs = self.x1
        integral = float(np.dot(self.zgrid.w,
                                w_vec * xs * self.kern._S(cfg.r2 / xs)))
        return xz * self.kern._S(xz / cfg.r1) / self.kern.S_full * integral / m

    def T3(self, a2: np.ndarray, lam2: float, a1: float, lam1: float) -> np.ndarray:
        cfg, m = self.cfg, self.m
        z = self.zgrid.z
        out = self.coeffs.alpha1(1, z, lam1) * a2
        out = out + self._alpha2(1, lam1, lam2, include_swirl2=True) \
            * (a1 + self.eps * a2)
        out = out + self._rank_full(1, self.ep_minus * a2)
        K = self.kern._S(self.x1[:, None] / self.x1[None, :])
        volt = (self.x1[:, None] * K * self.zgrid.w_left) \
            @ (self.ep_minus * self.x1 * a2) / m
        return out - volt

    def Q3(self, a2: np.ndarray, b1: np.ndarray, lam2: float, lam1: float,
           include_swirl2: bool) -> np.ndarray:
        m = self.m
        out = self._alpha2(2, lam1, lam2, include_swirl2) * b1
        out = out + self._rank_full(2, self.ep_minus * a2)
        K = self.kern._S(self.x2[:, None] / self.x1[None, :])
        full = (self.x2[:, None] * K * self.zgrid.w[None, :]) \
            @ (self.ep_minus * self.x1 * a2) / m
        return out - full

    # -- known order-two sources -------------------------------------------

    def known_T2(self, a1: float, lam1: float) -> np.ndarray:
        """z-dependent part of the order-two inner source fixed by (a1, b0)."""
        cfg, m = self.cfg, self.m
        z = self.zgrid.z
        S = self.kern._S
        edge_sum = float(np.dot(self.zgrid.w, self.ep_minus))
        const = (cfg.R1 ** 2 * S(cfg.R1 / cfg.r1) * S(cfg.r2 / cfg.R1)
                 / self.kern.S_full / m * edge_sum * a1)
        return self.coeffs.alpha1(1, z, lam1) * a1 + const

    def known_Q2(self, a1: float) -> float:
        cfg, m = self.cfg, self.m
        S = self.kern._S
        edge_sum = float(np.dot(self.zgrid.w, self.ep_minus))
        factor = cfg.R1 * cfg.R2 * (S(cfg.R2 / cfg.r1) * S(cfg.r2 / cfg.R1)
                                    - S(cfg.R2 / cfg.R1) * self.kern.S_full) \
            / self.kern.S_full
        return factor / m * edge_sum * a1


def fixed_point_corrections(builder: KernelBuilder, lam1: float,
                            a1: float, b0: np.ndarray,
                            mode: str = "exact", tol: float = 1e-11,
                            max_iter: int = 200) -> dict:
    """Picard-iterate the order-two system for (a2, b1, lam2).

    Distances are measured in the slope-weighted L2 norms; three consecutive
    growths abort with a ContractionError carrying the measured ratio.
    """
    if mode not in ("exact", "asymptotic"):
        raise ValueError("mode must be 'exact' or 'asymptotic'")
    zg = builder.zgrid
    cfg = builder.cfg
    eps = builder.eps
    sig = builder.coeffs.slope_weights(zg)
    w_in = zg.w * sig[1]
    w_out = zg.w * sig[2]
    ep = builder.ep_plus
    beta_b0 = builder.coeffs.beta_quad(zg.z, lam1) * b0
    alpha0_in = builder.coeffs.alpha0(1)
    den = float(np.dot(zg.w, b0 ** 2 * ep))

    A0 = -builder.known_T2(a1, lam1) - builder.remainder_T1(b0)
    B0 = (-builder.known_Q2(a1) - builder.swirl2[2] * b0
          - builder.remainder_Q1(b0))

    a2 = np.zeros(zg.n)
    b1 = np.zeros(zg.n)
    lam2 = 0.0
    dists: list[float] = []
    grow = 0
    for it in range(max_iter):
        A1 = -builder.remainder_T2(b1, a1) - builder.T3(a2, lam2, a1, lam1)
        B1 = -builder.remainder_Q2(b1, lam2, a1, b0, lam1) \
            - builder.Q3(a2, b1, lam2, lam1,
                         include_swirl2=(mode == "exact"))
        num = float(np.dot(zg.w, (B0 + eps * B1 - beta_b0) * b0 * ep))
        lam2_new = num / (cfg.R2 ** 2 * den)
        b1_new = (B0 + eps * B1 - lam2_new * cfg.R2 ** 2 * b0 - beta_b0) * b0
        contract = float(np.dot(zg.w, ep * b1_new))
        a2_new = (A0 + eps * A1 + builder.p1 * contract) / alpha0_in
        d = max(np.sqrt(float(np.dot(w_in, (a2_new - a2) ** 2))),
                np.sqrt(float(np.dot(w_out, (b1_new - b1) ** 2))),
                abs(lam2_new - lam2))
        a2, b1, lam2 = a2_new, b1_new, lam2_new
        dists.append(d)
        if d <= tol:
            break
        if len(dists) >= 2 and dists[-1] > dists[-2]:
            grow += 1
            if grow >= 3:
                ratio = dists[-1] / dists[-4] if len(dists) >= 4 else np.inf
                raise ContractionError(
                    "order-two fixed point stopped contracting "
                    f"(eps={eps:g} too large; growth factor ~{ratio:.3g})")
        else:
            grow = 0
    else:
        raise ContractionError("order-two fixed point did not reach tolerance")
    ratios = [b / a for a, b in zip(dists[:-1], dists[1:]) if a > 0]
    return {"a2": a2, "b1": b1, "lam2": lam2, "iterations": len(dists),
            "distances": dists, "ratio": float(np.median(ratios[1:-1]))
            if len(ratios) > 3 else float("nan")}


def build_eigensolution(cfg: AnnulusConfig, profile: TrapezoidProfile, m: int,
                        zgrid: ZGrid, mode: str = "exact",
                        tol: float = 1e-11) -> EigenSolution:
    coeffs = profile.coefficients
    root = solve_lambda1(m, coeffs)
    lam1 = _polish_lambda1_on_grid(m, root["lam1"], coeffs, zgrid)
    b0, a1 = b0_and_a1(m, lam1, coeffs, zgrid)
    builder = KernelBuilder(cfg, profile, m, zgrid, coeffs)
    fp = fixed_point_corrections(builder, lam1, a1, b0, mode=mode, tol=tol)
    diag = {"lambda1_bisection": root, "lam1_grid": lam1,
            "fixed_point": {k: fp[k] for k in ("iterations", "ratio")},
            "distances": fp["distances"]}
    return EigenSolution(m=m, eps=profile.eps, kappa=profile.kappa,
                         lam0=coeffs.lam0, lam1=lam1, lam2=fp["lam2"],
                         a1=a1, b0=b0, a2=fp["a2"], b1=fp["b1"],
                         zgrid=zgrid, mode=mode, diagnostics=diag)


def operator_residual(eig: EigenSolution, cfg: AnnulusConfig,
                      profile: TrapezoidProfile) -> float:
    """Weighted norm of the assembled operator applied to the eigenpair,
    relative to the pair's weighted norm."""
    op = assemble(eig.m, eig.eps, eig.lam, cfg, profile, eig.zgrid)
    out = op.apply(eig.a, eig.b)
    denom = op.norm((eig.a, eig.b))
    return op.norm(out) / denom


def validate_kernel(eig: EigenSolution, cfg: AnnulusConfig,
                    profile: TrapezoidProfile, M: int = 8,
                    svd_gap_tol: float = 1e-6,
                    offmode_floor: float = 1e-3) -> dict:
    """SVD-based kernel checks at the constructed rotation rate.

    (i) rank-one deficiency of the discretized operator at mode m,
    (ii) null-vector match against the constructed pair,
    (iii) no kernel at the other modes n <= M,
    plus an isolation scan in the rate.
    """
    zg = eig.zgrid
    op = assemble(eig.m, eig.eps, eig.lam, cfg, profile, zg)
    Mw = op.weighted_matrix()
    _, svals, Vt = np.linalg.svd(Mw)
    sigma_min, sigma_second = svals[-1], svals[-2]
    null_vec = Vt[-1]
    constructed = op.weighted_vector(eig.a, eig.b)
    cosine = abs(float(np.dot(null_vec, constructed))) \
        / (np.linalg.norm(null_vec) * np.linalg.norm(constructed))
    out = op.apply(eig.a, eig.b)
    residual = op.norm(out) / op.norm((eig.a, eig.b))

    off = {}
    for n in range(1, M + 1):
        if n == eig.m:
            continue
        opn = assemble(n, eig.eps, eig.lam, cfg, profile, zg)
        svn = np.linalg.svd(opn.weighted_matrix(), compute_uv=False)
        off[n] = {"sigma_min": float(svn[-1]),
                  "norm": float(svn[0]),
                  "ok": bool(svn[-1] >= offmode_floor * eig.eps * svn[0])}

    op_shift = assemble(eig.m, eig.eps, eig.lam + 0.1, cfg, profile, zg)
    sv_shift = np.linalg.svd(op_shift.weighted_matrix(), compute_uv=False)

    diag = {
        "sigma_min": float(sigma_min),
        "sigma_second": float(sigma_second),
        "gap_ratio": float(sigma_min / sigma_second),
        "gap_ok": bool(sigma_min / sigma_second <= svd_gap_tol),
        "cosine": float(cosine),
        "residual": float(residual),
        "off_modes": off,
        "shift_jump": float(sv_shift[-1] / max(sigma_min, 1e-300)),
    }
    if not diag["gap_ok"]:
        raise KernelValidationError(
            f"no clear rank-one deficiency: sigma_min/sigma_second = "
            f"{diag['gap_ratio']:.3g}")
    if any(not v["ok"] for v in off.values()):
        bad = [n for n, v in off.items() if not v["ok"]]
        raise KernelValidationError(f"spurious near-kernel at modes {bad}")
    return diag


def adjoint_kernel(eig: EigenSolution, cfg: AnnulusConfig,
                   profile: TrapezoidProfile) -> dict:
    """Null vector of the adjoint operator at the constructed rate.

    Returns band samples (a*, b*) scaled so the outer part matches b0 at
    leading order, together with expansion diagnostics.
    """
    zg = eig.zgrid
    adj = assemble_adjoint(eig.m, eig.eps, eig.lam, cfg, profile, zg)
    Mw = adj.weighted_matrix()
    U, svals, Vt = np.linalg.svd(Mw)
    if svals[-1] / svals[-2] > 1e-3:
        raise KernelValidationError("adjoint kernel dimension is not one")
    null_w = Vt[-1]
    # back to nodal values; a sqrt-weight at rounding level relative to the
    # largest one carries no information, so it counts as a zero weight
    S = np.concatenate(adj.sqrt_weights)
    live = S > np.finfo(float).eps * np.max(S)
    star = np.where(live, null_w / np.where(live, S, 1.0), 0.0)
    astar, bstar = star[:zg.n], star[zg.n:]
    # unit weighted norm, then align the outer part with b0
    nrm = np.sqrt(adj.inner((astar, bstar), (astar, bstar)))
    astar, bstar = astar / nrm, bstar / nrm
    sig_out = profile.weight_outer(zg.z)
    C = float(np.dot(zg.w * sig_out, bstar * eig.b0)) \
        / float(np.dot(zg.w * sig_out, eig.b0 ** 2))
    if C == 0.0:
        raise KernelValidationError("adjoint outer profile orthogonal to b0")
    astar, bstar = astar / C, bstar / C
    a_norm = np.sqrt(float(np.dot(zg.w * profile.weight_inner(zg.z), astar ** 2)))
    mismatch = bstar - eig.b0
    b_gap = np.sqrt(float(np.dot(zg.w * sig_out, mismatch ** 2)))
    return {"astar": astar, "bstar": bstar, "a_norm_weighted": a_norm,
            "b_gap_weighted": b_gap, "sigma_min": float(svals[-1]),
            "sigma_second": float(svals[-2]), "scale": C, "operator": adj}


def transversality(eig: EigenSolution, adjoint: dict, cfg: AnnulusConfig,
                   profile: TrapezoidProfile, floor: float = 0.5) -> dict:
    """Pairing that licenses the bifurcation: must stay away from zero.

    T = int (R1+eps z) a a* sigma_- dz + int (R2+eps z) b b* sigma_+ dz; the
    outer term carries the O(1) leading part int (R2+eps z) |b0|^2 sigma_+.
    """
    zg = eig.zgrid
    z = zg.z
    sig_in = profile.weight_inner(z)
    sig_out = profile.weight_outer(z)
    r_in = cfg.R1 + eig.eps * z
    r_out = cfg.R2 + eig.eps * z
    term_in = float(np.dot(zg.w, r_in * eig.a * adjoint["astar"] * sig_in))
    term_out = float(np.dot(zg.w, r_out * eig.b * adjoint["bstar"] * sig_out))
    leading = float(np.dot(zg.w, r_out * eig.b0 ** 2 * sig_out))
    T = term_in + term_out
    ok = abs(T) >= floor * abs(leading)
    if not ok:
        raise KernelValidationError(
            f"transversality pairing too small: |T|={abs(T):.3g} < "
            f"{floor} * {abs(leading):.3g}")
    return {"T": T, "term_inner": term_in, "term_outer": term_out,
            "leading": leading, "sign_matches_leading": bool(T * leading > 0)}
