"""Eigenpair construction for the band operator and its validation.

The rotation rate and band profiles are expanded in the band half-width:

    lam = lam0 + eps lam1 + eps^2 lam2,
    a   = eps a1 + eps^2 a2(z),      (inner band)
    b   = b0(z) + eps b1(z),         (outer band)

lam0 comes from the geometry, and lam1 is the root of the scalar equation
p2(m) J(lam1) = 1, where J = int edge'/alpha1_out does not depend on the
mode.  One monotone inversion of J, a Newton iteration on its analytic
slope vectorised over the modes, gives the rate slope lam1(n) of every mode
with a root at once (`solve_lambda1`, the rate ladder); the modes past the
last one, n*, have no rate below the continuum edge lam0 + eps lambda*.
The eigensolution takes its own rung, polished on the grid, and carries the
whole ladder.  (b0, a1) are explicit, and the order-two corrections
(a2, b1, lam2) solve a small fixed-point system.  Its Taylor remainders in
eps are delta-averages of the two band coupling kernels, taken as their
exact difference quotients (Phi(eps) - Phi(0))/eps.

Validation at mode m is SVD-based: rank-one deficiency of the discretized
operator at the constructed rate, null-vector match, adjoint kernel
expansion, and the transversality pairing.  These checks share one
assembled operator, its singular values (one values-only Hermitian SVD)
and its null vector (one inverse-iteration solve) per eigensolution and
profile, held by the `EigenSolution` and freed with it.  The other modes
are checked on the ladder instead: mode m is isolated when its rung
lam1(m) keeps a distance from every other rung and from lambda*.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import AnnulusConfig
from .errors import BracketError, ContractionError, KernelValidationError, NumericsError
from .linop import CoefficientSet, assemble, p_coeff
from .poisson import mode_sinh
from .profile import TrapezoidProfile
from .quadrature import ZGrid, geometric_edges, mapped_rule


def lambda_star(coeffs: CoefficientSet) -> float:
    """Boundary value of the admissible lam1 range (sign-aware in B)."""
    cfg = coeffs.cfg
    z_edge = 1.0 if cfg.B > 0 else -1.0
    return -(2.0 * cfg.B / cfg.R2 * z_edge + float(coeffs.swirl1(2, 0.0))) \
        / cfg.R2 ** 2


def _edge_breaks(kappa: float) -> list[float]:
    pts = [-1.0, 1.0]
    if kappa < 0.5:
        pts += [-1.0 + 2.0 * kappa, 1.0 - 2.0 * kappa]
    return sorted(pts)


# Gauss order of each I(lam1) panel
_I_GAUSS = 24
LAMBDA1_MAX_ITER = 200        # lam1 Newton (or bisection fallback) steps
POLISH_MAX_ITER = 6           # grid-polish Newton steps (3 taken in practice)
PICARD_TOL = 1e-11            # largest weighted Picard step at the stop
PICARD_MAX_ITER = 200
SVD_GAP_TOL = 1e-6            # most sigma_min / sigma_second at mode m
RATE_GAP_FLOOR = 0.25         # least |lam1(n) - lam1(m)| / eps, n != m
LADDER_TOL = 1e-13            # largest |p2(n) J(lam1) - 1| on the ladder
TRANSVERSALITY_FLOOR = 0.5    # least |T| / |its leading part|


def _sorted_distinct(x: np.ndarray) -> np.ndarray:
    """The sorted entries of x with exact repeats dropped: np.unique, which
    would load numpy.ma."""
    s = np.sort(x)
    keep = np.ones(s.size, dtype=bool)
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


def _median(x) -> float:
    """np.median of a sequence, which would load numpy.ma: the middle entry
    of the sorted values, or the mean of the middle two."""
    s = np.sort(x)
    k = s.size // 2
    return float(s[k] if s.size % 2 else (s[k - 1] + s[k]) / 2)


def _I_panels(prof: TrapezoidProfile) -> tuple:
    """Nodes, weights and edge' values of the Gauss panels of I(lam1), one
    row per panel, refined toward the endpoints where the integrand has
    boundary-layer structure.  One `mapped_rule` call on the edge columns
    builds every panel's rule in one broadcast."""
    breaks = _edge_breaks(prof.kappa)
    edges = _sorted_distinct(np.concatenate([
        geometric_edges(lo, hi, side, 18, 0.6)
        for lo, hi in zip(breaks[:-1], breaks[1:])
        for side in ("right", "left")]))
    x, w = mapped_rule(edges[:-1, None], edges[1:, None], _I_GAUSS)
    return x, w, prof.edge_prime(x)


def _I_terms(coeffs: CoefficientSet) -> tuple:
    """The lam1-free terms of J's integrand on the panels of `_I_panels`:
    the weights w edge', and alpha1's lam0 2 R2 x and swirl1(2, x)."""
    x, w, ep = _I_panels(coeffs.profile)
    return w * ep, coeffs.lam0 * 2.0 * coeffs.cfg.R2 * x, coeffs.swirl1(2, x)


def _I_quadrature(coeffs: CoefficientSet,
                  lam1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J(lam1) = int edge'(s) / alpha1_out(s) ds and its slope
    dJ/dlam1 = -R2^2 int edge' / alpha1_out^2 at every entry of lam1, from
    one evaluation of alpha1 on all panel nodes.  Mode n's I(lam1) is
    p2(n) J(lam1).  The panels and the lam1-free terms (`_I_terms`) are
    built once per profile, so an evaluation forms only alpha1 =
    lin + lam1 R2^2 + swirl1, in `CoefficientSet.alpha1`'s order, and the
    two sums."""
    wep, lin, swirl1 = coeffs.memo("I_terms", lambda: _I_terms(coeffs))
    R2 = coeffs.cfg.R2
    alpha1 = lin + lam1[:, None, None] * R2 ** 2
    alpha1 += swirl1
    q = wep / alpha1
    J = np.sum(q, axis=(1, 2))
    q /= alpha1
    return J, -R2 ** 2 * np.sum(q, axis=(1, 2))


def solve_lambda1(coeffs: CoefficientSet) -> dict:
    """Rate slopes lam1(n) of the modes n = 1..n* at once: the roots of
    p2(n) J(lam1) = 1 below lambda_star.

    J is strictly increasing on (-inf, lambda*), tends to 0 at -inf and has
    a finite limit at lambda*, and does not depend on n.  p2(n) falls
    strictly in n, so the modes with a root are n = 1..n*, the last with
    p2(n) J(lambda*^-) > 1, and lam1(n) rises with n; n* = 0 when the
    config/kappa pair leaves no mode a root.  All rungs are found together
    by Newton's method on the analytic slope: each starts at lambda*^-, where
    I > 1, a step that leaves its bracket is replaced by bisection, and a
    converged rung stays put.

    Returns the rungs `lam1` (row n - 1 for mode n), their residuals
    p2 J - 1, `n_star`, `lambda_star` and `J_edge` = J(lambda*^-).
    """
    cfg = coeffs.cfg
    lam_star = lambda_star(coeffs)
    scale = max(abs(lam_star), 1.0)
    edge = lam_star - 1e-12 * scale
    J_edge = float(_I_quadrature(coeffs, np.array([edge]))[0][0])
    p2: list[float] = []
    while (p := p_coeff(2, len(p2) + 1, cfg)) * J_edge > 1.0:
        p2.append(p)
    n_star = len(p2)
    root = {"lam1": np.empty(0), "residual": np.empty(0), "n_star": n_star,
            "lambda_star": lam_star, "J_edge": J_edge}
    if not n_star:
        return root
    p2 = np.array(p2)
    # mode 1 has the largest p2: once I_1 < 1, every I_n < 1
    big = scale
    for _ in range(200):
        if p2[0] * _I_quadrature(coeffs, np.array([lam_star - big]))[0][0] \
                < 1.0:
            break
        big *= 4.0
    else:
        raise BracketError("could not bracket the rate ladder from below")
    lo = np.full(n_star, lam_star - big)
    hi = np.full(n_star, edge)
    lam1 = hi.copy()
    for _ in range(LAMBDA1_MAX_ITER):
        J, dJ = _I_quadrature(coeffs, lam1)
        resid = p2 * J - 1.0
        move = np.abs(resid) > LADDER_TOL      # converged rungs stay put
        if not move.any():
            break
        above = resid > 0.0
        hi = np.where(above, lam1, hi)
        lo = np.where(above, lo, lam1)
        step = lam1 - resid / (p2 * dJ)
        step = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
        lam1 = np.where(move, step, lam1)
    else:
        raise NumericsError(f"rate ladder stalled: largest |I-1| = "
                            f"{np.max(np.abs(resid)):.3g}")
    return root | {"lam1": lam1, "residual": resid}


def lambda1_closed_form(m: int, coeffs: CoefficientSet) -> float:
    """Closed form of the rate slope with the kappa-correction dropped.

    Exact for the sharp-edge limit of the profile; the gap to the root of
    I(lam1) = 1 shrinks linearly in kappa.
    """
    cfg = coeffs.cfg
    lam_star = lambda_star(coeffs)
    absB = abs(cfg.B)
    E = np.exp(4.0 * absB / (cfg.R2 * p_coeff(2, m, cfg)))
    return lam_star - (4.0 * absB / cfg.R2 ** 3) / (E - 1.0)


def b0_and_a1(m: int, lam1: float, coeffs: CoefficientSet,
              zgrid: ZGrid) -> tuple[np.ndarray, float]:
    """Leading outer profile b0 = 1/alpha1_out and the constant inner lead."""
    alpha1 = coeffs.alpha1(2, zgrid.z, lam1)
    if np.any(alpha1 == 0.0) or np.max(alpha1) * np.min(alpha1) <= 0.0:
        raise KernelValidationError("outer coefficient changes sign on the "
                                    "band; lam1 is outside its valid range")
    b0 = 1.0 / alpha1
    ep = -coeffs.slope_weights(zgrid)[2]   # edge' = -sigma_+, kept per grid
    contraction = float(np.dot(zgrid.w, ep * b0))
    a1 = p_coeff(1, m, coeffs.cfg) * contraction / coeffs.alpha0(1)
    return b0, a1


def _polish_lambda1_on_grid(m: int, lam1: float, coeffs: CoefficientSet,
                            zgrid: ZGrid) -> float:
    """Newton-polish lam1 so the grid quadrature of the root equation is
    machine-exact (keeps the discrete construction residual at rounding).

    The panel quadrature of `solve_lambda1` and the grid Gauss rule differ
    at the mollifier's approximation floor (~1e-6 at 96 nodes), so the
    discrete eigenpair construction re-solves the root equation in the
    grid's own quadrature.  A polish whose step has not fallen below
    1e-16 max(1, |lam1|) after `POLISH_MAX_ITER` steps raises
    `NumericsError` naming the mode, the last step and the residual g."""
    cfg = coeffs.cfg
    p2 = p_coeff(2, m, cfg)
    ep = -coeffs.slope_weights(zgrid)[2]   # edge' = -sigma_+, kept per grid
    for _ in range(POLISH_MAX_ITER):
        alpha1 = coeffs.alpha1(2, zgrid.z, lam1)
        g = p2 * float(np.dot(zgrid.w, ep / alpha1)) - 1.0
        dg = -p2 * cfg.R2 ** 2 * float(np.dot(zgrid.w, ep / alpha1 ** 2))
        step = g / dg
        lam1 -= step
        if abs(step) < 1e-16 * max(1.0, abs(lam1)):
            return lam1
    raise NumericsError(
        f"grid polish of lam1 at mode m={m} did not converge in "
        f"{POLISH_MAX_ITER} Newton steps: last step {step:.3g}, residual "
        f"g={g:.3g}")


def invert_q2hat(G: np.ndarray, lam1: float, coeffs: CoefficientSet,
                 b0: np.ndarray, zgrid: ZGrid) -> tuple[np.ndarray, float]:
    """Solve the reduced order-two outer equation for (g, mu).

    Returns (g, mu) with alpha1 g + (mu R2^2 + beta) b0 - p2 <edge' g> = G,
    where beta is the lam2-free quadratic part of the order-two coefficient:
    mu R2^2 = <(G - beta b0) b0 edge'> / <b0^2 edge'> makes
    F = G - (mu R2^2 + beta) b0 orthogonal to b0 edge', and g = F b0.
    """
    cfg = coeffs.cfg
    ep = -coeffs.slope_weights(zgrid)[2]   # edge' = -sigma_+, kept per grid
    beta_b0 = coeffs.beta_quad(zgrid.z, lam1) * b0
    den = float(np.dot(zgrid.w, b0 ** 2 * ep))
    if abs(den) < 1e-14:
        raise KernelValidationError("degenerate outer projection weight")
    mu = float(np.dot(zgrid.w, (G - beta_b0) * b0 * ep)) / (cfg.R2 ** 2 * den)
    g = (G - mu * cfg.R2 ** 2 * b0 - beta_b0) * b0
    return g, mu


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
    _mode_op: tuple | None = field(default=None, init=False, compare=False,
                                   repr=False)      # see `_mode_operator`

    @property
    def lam(self) -> float:
        return self.lam0 + self.eps * self.lam1 + self.eps ** 2 * self.lam2

    @property
    def a(self) -> np.ndarray:
        return self.eps * self.a1 + self.eps ** 2 * self.a2

    @property
    def b(self) -> np.ndarray:
        return self.b0 + self.eps * self.b1


class KernelBuilder:
    """Shared machinery for the order-two fixed point at one (m, eps).

    The Taylor remainders in eps are delta-averages (1/eps) int_0^eps of the
    delta-derivatives of two coupling kernels of the band radii
    x = R + delta z (S(x) = sinh(m log x)):

        Phi_rank(delta)     = x_z x_s S(x_z/r1) S(r2/x_s),
        Phi_volterra(delta) = x_z x_s S(x_z/x_s),

    so each average is the exact difference quotient
    (Phi(eps) - Phi(0))/eps.  The rank kernel is an outer product, and its
    average applies as two dot products.  The Volterra kernels at delta =
    eps, quadrature weights included, are built once per band pair and
    also give the order-three terms.
    """

    def __init__(self, profile: TrapezoidProfile, m: int, zgrid: ZGrid):
        self.cfg = cfg = profile.cfg
        self.profile = profile
        self.m = m
        self.zgrid = zgrid
        self.coeffs = profile.coefficients
        self.eps = profile.eps
        sig = self.coeffs.slope_weights(zgrid)
        self.ep_plus = -sig[2]                     # edge'(z)
        self.ep_minus = -sig[1]                    # edge'(-z)
        self.p1 = p_coeff(1, m, cfg)
        self.p2 = p_coeff(2, m, cfg)
        self.S_full = self._S(cfg.r2 / cfg.r1)
        self.R = {1: cfg.R1, 2: cfg.R2}
        self.x = {band: R + self.eps * zgrid.z for band, R in self.R.items()}
        # factors of the rank kernel per band, at delta = eps and delta = 0:
        # x S(x/r1) on the target side, x S(r2/x) on the source side
        self._target = {band: (x * self._S(x / cfg.r1),
                               self.R[band] * self._S(self.R[band] / cfg.r1))
                        for band, x in self.x.items()}
        self._source = {band: (x * self._S(cfg.r2 / x),
                               self.R[band] * self._S(cfg.r2 / self.R[band]))
                        for band, x in self.x.items()}
        self._volterra: dict[tuple[int, int], np.ndarray] = {}
        self.swirl2 = self.coeffs.swirl2_on_grid(zgrid)

    def _S(self, x):
        return mode_sinh(self.m, np.log(x))

    def _alpha2(self, band: int, lam1: float, lam2: float,
                include_swirl2: bool) -> np.ndarray:
        """coeffs.alpha2 at the grid nodes, plus swirl2 from the set's grid
        terms when include_swirl2."""
        out = self.coeffs.alpha2(band, self.zgrid.z, lam1, lam2)
        return out + self.swirl2[band] if include_swirl2 else out

    # -- the coupling kernels and their delta-averages ---------------------

    def _phi_volterra(self, i: int, j: int) -> np.ndarray:
        """Phi_volterra(eps) of the band pair (R_i, R_j) times its quadrature
        weights: w_left (s < z) within a band, w from the outer band to the
        inner one.  It depends only on (m, eps, grid), so each pair is built
        once per builder and reused by every Picard iteration."""
        if (i, j) not in self._volterra:
            xz, xs = self.x[i][:, None], self.x[j][None, :]
            weights = self.zgrid.w_left if i == j else self.zgrid.w[None, :]
            self._volterra[i, j] = xz * xs * self._S(xz / xs) * weights
        return self._volterra[i, j]

    def _avg_rank(self, i: int, j: int, weight_vec: np.ndarray) -> np.ndarray:
        """(1/eps) int_0^eps of the (R_i, R_j) rank term with source
        weight_vec."""
        (t, t0), (u, u0) = self._target[i], self._source[j]
        src = self.zgrid.w * weight_vec
        return (t * float(np.dot(u, src)) - t0 * u0 * float(np.sum(src))) \
            / self.eps

    def _avg_volterra(self, i: int, j: int,
                      weight_vec: np.ndarray) -> np.ndarray:
        """(1/eps) int_0^eps of the (R_i, R_j) Volterra term with source
        weight_vec; Phi_volterra(0) = R_i R_j S(R_i/R_j) is 0 within a band."""
        out = self._phi_volterra(i, j) @ weight_vec
        if i != j:
            Ri, Rj = self.R[i], self.R[j]
            out = out - Ri * Rj * self._S(Ri / Rj) \
                * float(np.dot(self.zgrid.w, weight_vec))
        return out / self.eps

    def remainder_T1(self, b0: np.ndarray) -> np.ndarray:
        pref = -1.0 / (self.m * self.S_full)
        return pref * self._avg_rank(1, 2, self.ep_plus * b0)

    def remainder_Q1(self, b0: np.ndarray) -> np.ndarray:
        pref = -1.0 / (self.m * self.S_full)
        rank = pref * self._avg_rank(2, 2, self.ep_plus * b0)
        volt = self._avg_volterra(2, 2, self.ep_plus * b0) / self.m
        return rank + volt

    def remainder_T2(self, b1: np.ndarray, a1: float) -> np.ndarray:
        m, Sf = self.m, self.S_full
        t_in = self._avg_rank(1, 1, self.ep_minus) * a1 / (m * Sf)
        t_cross = -self._avg_rank(1, 2, self.ep_plus * b1) / (m * Sf)
        t_vol = -self._avg_volterra(1, 1, self.ep_minus) * a1 / m
        return t_in + t_cross + t_vol

    def remainder_Q2(self, b1: np.ndarray, lam2: float, a1: float,
                     b0: np.ndarray, lam1: float) -> np.ndarray:
        m, Sf = self.m, self.S_full
        # delta-average of the polynomial coefficient's derivative: the
        # lam1 z^2 and lam2 tails both live at this order
        R2 = self.cfg.R2
        z = self.zgrid.z
        avg_alpha = lam1 * z ** 2 + 2.0 * z * lam2 * (R2 + 0.5 * self.eps * z)
        out = avg_alpha * b0
        out = out + self._avg_rank(2, 1, self.ep_minus) * a1 / (m * Sf)
        out = out - self._avg_rank(2, 2, self.ep_plus * b1) / (m * Sf)
        out = out - self._avg_volterra(2, 1, self.ep_minus) * a1 / m
        out = out + self._avg_volterra(2, 2, self.ep_plus * b1) / m
        return out

    # -- full-eps order-three terms ----------------------------------------

    def _rank_full(self, band: int, w_vec: np.ndarray) -> np.ndarray:
        """x_band(z) S(x_band(z)/r1)/S_full * (1/m) int w(s) x1(s) S(r2/x1(s))."""
        integral = float(np.dot(self.zgrid.w, w_vec * self._source[1][0]))
        return self._target[band][0] / self.S_full * integral / self.m

    def T3(self, a2: np.ndarray, lam2: float, a1: float, lam1: float) -> np.ndarray:
        z = self.zgrid.z
        out = self.coeffs.alpha1(1, z, lam1) * a2
        out = out + self._alpha2(1, lam1, lam2, include_swirl2=True) \
            * (a1 + self.eps * a2)
        out = out + self._rank_full(1, self.ep_minus * a2)
        volt = self._phi_volterra(1, 1) @ (self.ep_minus * a2) / self.m
        return out - volt

    def Q3(self, a2: np.ndarray, b1: np.ndarray, lam2: float, lam1: float,
           include_swirl2: bool) -> np.ndarray:
        out = self._alpha2(2, lam1, lam2, include_swirl2) * b1
        out = out + self._rank_full(2, self.ep_minus * a2)
        full = self._phi_volterra(2, 1) @ (self.ep_minus * a2) / self.m
        return out - full

    # -- known order-two sources -------------------------------------------

    def known_T2(self, a1: float, lam1: float) -> np.ndarray:
        """z-dependent part of the order-two inner source fixed by (a1, b0)."""
        cfg, m = self.cfg, self.m
        z = self.zgrid.z
        S = self._S
        edge_sum = float(np.dot(self.zgrid.w, self.ep_minus))
        const = (cfg.R1 ** 2 * S(cfg.R1 / cfg.r1) * S(cfg.r2 / cfg.R1)
                 / self.S_full / m * edge_sum * a1)
        return self.coeffs.alpha1(1, z, lam1) * a1 + const

    def known_Q2(self, a1: float) -> float:
        cfg, m = self.cfg, self.m
        S = self._S
        edge_sum = float(np.dot(self.zgrid.w, self.ep_minus))
        factor = cfg.R1 * cfg.R2 * (S(cfg.R2 / cfg.r1) * S(cfg.r2 / cfg.R1)
                                    - S(cfg.R2 / cfg.R1) * self.S_full) \
            / self.S_full
        return factor / m * edge_sum * a1


def fixed_point_corrections(builder: KernelBuilder, lam1: float,
                            a1: float, b0: np.ndarray,
                            mode: str = "exact") -> dict:
    """Picard-iterate the order-two system for (a2, b1, lam2).

    Distances are measured in the slope-weighted L2 norms; three consecutive
    growths abort with a ContractionError carrying the measured ratio.
    """
    if mode not in ("exact", "asymptotic"):
        raise ValueError("mode must be 'exact' or 'asymptotic'")
    zg = builder.zgrid
    eps = builder.eps
    sig = builder.coeffs.slope_weights(zg)
    w_in = zg.w * sig[1]
    w_out = zg.w * sig[2]
    alpha0_in = builder.coeffs.alpha0(1)

    A0 = -builder.known_T2(a1, lam1) - builder.remainder_T1(b0)
    B0 = (-builder.known_Q2(a1) - builder.swirl2[2] * b0
          - builder.remainder_Q1(b0))

    a2 = np.zeros(zg.n)
    b1 = np.zeros(zg.n)
    lam2 = 0.0
    dists: list[float] = []
    grow = 0
    for _ in range(PICARD_MAX_ITER):
        A1 = -builder.remainder_T2(b1, a1) - builder.T3(a2, lam2, a1, lam1)
        B1 = -builder.remainder_Q2(b1, lam2, a1, b0, lam1) \
            - builder.Q3(a2, b1, lam2, lam1,
                         include_swirl2=(mode == "exact"))
        b1_new, lam2_new = invert_q2hat(B0 + eps * B1, lam1, builder.coeffs,
                                        b0, zg)
        contract = float(np.dot(zg.w, builder.ep_plus * b1_new))
        a2_new = (A0 + eps * A1 + builder.p1 * contract) / alpha0_in
        d = max(np.sqrt(float(np.dot(w_in, (a2_new - a2) ** 2))),
                np.sqrt(float(np.dot(w_out, (b1_new - b1) ** 2))),
                abs(lam2_new - lam2))
        a2, b1, lam2 = a2_new, b1_new, lam2_new
        dists.append(d)
        if d <= PICARD_TOL:
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
            "distances": dists, "ratio": _median(ratios[1:-1])
            if len(ratios) > 3 else float("nan")}


def build_eigensolution(cfg: AnnulusConfig, profile: TrapezoidProfile, m: int,
                        zgrid: ZGrid, mode: str = "exact") -> EigenSolution:
    """The mode-m eigenpair on the profile; cfg must be the profile's."""
    profile.check(cfg)
    coeffs = profile.coefficients
    root = solve_lambda1(coeffs)
    if m > root["n_star"]:
        raise BracketError(
            f"mode {m} has no rate-slope root below "
            f"lambda*={root['lambda_star']:.6g}: I(lambda*^-) = "
            f"{p_coeff(2, m, cfg) * root['J_edge']:.6g} <= 1 (last mode "
            f"with a root n* = {root['n_star']}). The config is invalid or "
            "kappa is too large for this mode.")
    lam1 = _polish_lambda1_on_grid(m, root["lam1"][m - 1], coeffs, zgrid)
    b0, a1 = b0_and_a1(m, lam1, coeffs, zgrid)
    builder = KernelBuilder(profile, m, zgrid)
    fp = fixed_point_corrections(builder, lam1, a1, b0, mode=mode)
    diag = {"lambda1_root": root, "lam1_grid": lam1,
            "fixed_point": {k: fp[k] for k in ("iterations", "ratio")},
            "distances": fp["distances"]}
    return EigenSolution(m=m, eps=profile.eps, kappa=profile.kappa,
                         lam0=coeffs.lam0, lam1=lam1, lam2=fp["lam2"],
                         a1=a1, b0=b0, a2=fp["a2"], b1=fp["b1"],
                         zgrid=zgrid, mode=mode, diagnostics=diag)


def _mode_operator(eig: EigenSolution, profile: TrapezoidProfile) -> tuple:
    """(operator, singular values, last left and last right singular vector)
    of mode m at eig.lam, built once per (eigensolution, profile) and kept
    on the eigensolution; the profile must have the eigensolution's eps.
    The weighted matrix is J times a symmetric one, S: its singular values
    are the eigenvalue moduli of S, its last right vector is the null
    vector of S (one inverse-iteration solve; when sigma_min <=
    SVD_GAP_TOL sigma_second, its residual |S x| must be too, so that the
    sine of its angle to the null vector is at most SVD_GAP_TOL) and its
    last left one is J times that."""
    profile.check(eps=eig.eps)
    if eig._mode_op is None or eig._mode_op[0] is not profile:
        op = assemble(eig.m, eig.lam, profile, eig.zgrid)
        S = op.symmetric_matrix()
        svals = np.linalg.svd(S, compute_uv=False, hermitian=True)
        try:
            right = np.linalg.solve(S, np.ones(len(S)))
        except np.linalg.LinAlgError as exc:
            raise NumericsError(f"mode {eig.m}'s operator is singular "
                                f"({exc}): sigma_min = {svals[-1]:.3g}"
                                ) from exc
        right /= np.linalg.norm(right)
        # S is symmetric, so the sine of the angle between the unit vector
        # and the null vector is at most |S x| / sigma_second.  An operator
        # without a rank-one deficiency (an asymptotic eigenpair, another
        # profile) has no null vector to resolve; `validate_kernel` refuses
        # it, and `operator_residual` reads only the operator.
        bound = SVD_GAP_TOL * svals[-2]
        residual = np.linalg.norm(S @ right)
        if svals[-1] <= bound < residual:
            raise NumericsError(
                f"mode {eig.m}'s null vector is unresolved after one "
                f"inverse-iteration solve: |S x| = {residual:.3g} exceeds "
                f"SVD_GAP_TOL sigma_second = {SVD_GAP_TOL:g} * "
                f"{svals[-2]:.3g}")
        left = right.copy()
        left[eig.zgrid.n:] *= -1.0
        eig._mode_op = (profile, op, svals, left, right)
    return eig._mode_op[1:]


def singular_values(n: int, lam: float, profile: TrapezoidProfile,
                    zgrid: ZGrid) -> np.ndarray:
    """Singular values (descending) of the weighted mode-n operator at lam,
    the eigenvalue moduli of its symmetric form."""
    op = assemble(n, lam, profile, zgrid)
    return np.linalg.svd(op.symmetric_matrix(), compute_uv=False,
                         hermitian=True)


def operator_residual(eig: EigenSolution, cfg: AnnulusConfig,
                      profile: TrapezoidProfile) -> float:
    """Weighted norm of the assembled operator applied to the eigenpair,
    relative to the pair's weighted norm."""
    profile.check(cfg)
    op = _mode_operator(eig, profile)[0]
    return op.norm(op.apply(eig.a, eig.b)) / op.norm((eig.a, eig.b))


def validate_kernel(eig: EigenSolution, cfg: AnnulusConfig,
                    profile: TrapezoidProfile, M: int = 8) -> dict:
    """Kernel checks at the constructed rotation rate.

    At mode m, on the shared operator, its singular values and its null
    vector (`_mode_operator`):
    (i) rank-one deficiency of the discretized operator, (ii) null-vector
    match against the constructed pair, and the operator residual.
    (iii) No other mode has a kernel at the rate: on the rate ladder the
    eigensolution carries (`solve_lambda1`), every rung lam1(n), n != m, and the continuum edge
    lambda*, where the rates of the modes past n* start, keep a distance of
    at least RATE_GAP_FLOOR eps from lam1(m).  A rung lam0 + eps lam1(n)
    misses mode n's least discrete rate by eps^2 lam2(n), so a gap errs from
    |rate_n - lam|/eps by eps |lam2(n) - lam2(m)|, at most 0.165 eps on
    desk.  The floor lies above that error.  On desk sigma_min / sigma_max
    of mode n's weighted operator at lam is 41 |rate_n - lam|, so a pass
    implies the discrete check sigma_min >= 1e-3 eps sigma_max for
    eps >= 3e-4.

    `off_modes` lists the modes n != m up to max(M, n* + 1).
    """
    profile.check(cfg)
    op, svals, _, null_vec = _mode_operator(eig, profile)
    sigma_min, sigma_second = svals[-1], svals[-2]
    constructed = op.weighted_vector(eig.a, eig.b)
    cosine = abs(float(np.dot(null_vec, constructed))) \
        / (np.linalg.norm(null_vec) * np.linalg.norm(constructed))

    coeffs = profile.coefficients
    ladder = eig.diagnostics["lambda1_root"]
    lam1, n_star = ladder["lam1"], ladder["n_star"]
    m = eig.m
    edge_gap = ladder["lambda_star"] - lam1[m - 1]
    # the modes past n* start at the continuum edge
    rungs = np.append(lam1, ladder["lambda_star"])
    gaps = np.append(np.abs(lam1 - lam1[m - 1]), edge_gap)
    floor = RATE_GAP_FLOOR * eig.eps
    off = {}
    for n in range(1, max(M, n_star + 1) + 1):
        if n != m:
            k = min(n, n_star + 1) - 1
            off[n] = {"rung": float(coeffs.lam0 + eig.eps * rungs[k]),
                      "gap": float(gaps[k]), "ok": bool(gaps[k] >= floor)}
    km = np.arange(2 * m, n_star + 1, m)

    diag = {
        "sigma_min": float(sigma_min),
        "sigma_second": float(sigma_second),
        "gap_ratio": float(sigma_min / sigma_second),
        "gap_ok": bool(sigma_min / sigma_second <= SVD_GAP_TOL),
        "cosine": float(cosine),
        "residual": float(operator_residual(eig, cfg, profile)),
        "n_star": n_star,
        "least_gap": float(min(v["gap"] for v in off.values())),
        "least_gap_km": float(np.min(gaps[km - 1], initial=edge_gap)),
        "edge_gap": float(edge_gap),
        "off_modes": off,
    }
    if not diag["gap_ok"]:
        raise KernelValidationError(
            f"no clear rank-one deficiency: sigma_min/sigma_second = "
            f"{diag['gap_ratio']:.3g}")
    bad = [n for n, v in off.items() if not v["ok"]]
    if bad:
        raise KernelValidationError(
            f"modes {bad} have a rate within {floor:.3g} of mode {m}'s in "
            f"lam1 (least gap {diag['least_gap']:.3g})")
    return diag


def adjoint_kernel(eig: EigenSolution, cfg: AnnulusConfig,
                   profile: TrapezoidProfile) -> dict:
    """Null vector of the adjoint operator at the constructed rate: the last
    left singular vector of the weighted operator, whose transpose is the
    weighted adjoint (acceptance 3).

    Returns band samples (a*, b*) scaled so the outer part matches b0 at
    leading order, together with expansion diagnostics.
    """
    profile.check(cfg)
    zg = eig.zgrid
    op, svals, null_w, _ = _mode_operator(eig, profile)
    if svals[-1] / svals[-2] > SVD_GAP_TOL:
        raise KernelValidationError(
            f"adjoint kernel dimension is not one: sigma_min/sigma_second = "
            f"{svals[-1] / svals[-2]:.3g} > SVD_GAP_TOL = {SVD_GAP_TOL:g}")
    # back to nodal values; a sqrt-weight at rounding level relative to the
    # largest one carries no information, so it counts as a zero weight
    S = np.concatenate(op.sqrt_weights)
    live = S > np.finfo(float).eps * np.max(S)
    star = np.where(live, null_w / np.where(live, S, 1.0), 0.0)
    astar, bstar = star[:zg.n], star[zg.n:]
    # unit weighted norm, then align the outer part with b0
    nrm = np.sqrt(op.inner((astar, bstar), (astar, bstar)))
    astar, bstar = astar / nrm, bstar / nrm
    sig = profile.coefficients.slope_weights(zg)
    sig_out = sig[2]
    C = float(np.dot(zg.w * sig_out, bstar * eig.b0)) \
        / float(np.dot(zg.w * sig_out, eig.b0 ** 2))
    if C == 0.0:
        raise KernelValidationError("adjoint outer profile orthogonal to b0")
    astar, bstar = astar / C, bstar / C
    a_norm = np.sqrt(float(np.dot(zg.w * sig[1], astar ** 2)))
    mismatch = bstar - eig.b0
    b_gap = np.sqrt(float(np.dot(zg.w * sig_out, mismatch ** 2)))
    return {"astar": astar, "bstar": bstar, "a_norm_weighted": a_norm,
            "b_gap_weighted": b_gap, "sigma_min": float(svals[-1]),
            "sigma_second": float(svals[-2]), "scale": C}


def transversality(eig: EigenSolution, adjoint: dict, cfg: AnnulusConfig,
                   profile: TrapezoidProfile) -> dict:
    """Pairing that licenses the bifurcation: must stay away from zero.

    T = int (R1+eps z) a a* sigma_- dz + int (R2+eps z) b b* sigma_+ dz; the
    outer term carries the O(1) leading part int (R2+eps z) |b0|^2 sigma_+.
    That is y diag(r) x, with x = (a, b) and y = w sigma (a*, b*); beside
    it, `pencil` is the pairing y (dA/dlam) x = y diag(r^2) x.
    """
    profile.check(cfg, eig.eps)
    zg = eig.zgrid
    coeffs = profile.coefficients
    sig = coeffs.slope_weights(zg)
    sig_in, sig_out = sig[1], sig[2]
    r_in, r_out = coeffs.radii(1, zg.z), coeffs.radii(2, zg.z)
    term_in = float(np.dot(zg.w, r_in * eig.a * adjoint["astar"] * sig_in))
    term_out = float(np.dot(zg.w, r_out * eig.b * adjoint["bstar"] * sig_out))
    leading = float(np.dot(zg.w, r_out * eig.b0 ** 2 * sig_out))
    T = term_in + term_out
    pencil = float(
        np.dot(zg.w, r_in ** 2 * eig.a * adjoint["astar"] * sig_in)
        + np.dot(zg.w, r_out ** 2 * eig.b * adjoint["bstar"] * sig_out))
    if not abs(T) >= TRANSVERSALITY_FLOOR * abs(leading):
        raise KernelValidationError(
            f"transversality pairing too small: |T|={abs(T):.3g} < "
            f"{TRANSVERSALITY_FLOOR} * {abs(leading):.3g}")
    return {"T": T, "term_inner": term_in, "term_outer": term_out,
            "leading": leading, "sign_matches_leading": bool(T * leading > 0),
            "pencil": pencil}
