"""Linearized operator at the trivial branch, rescaled to the two bands.

On each band the radial variable is z = (r - R_i)/eps in [-1, 1].  The
operator acting on the pair of band profiles (a, b) is

    (L u)_i(z) = Lam_i(z) u_i(z)
                 + eps (R_i + eps z) int G_n(x_i(z), x_j(s)) d_j(s) u_j(s) ds,

with Lam_i(z) = lam (R_i+eps z)^2 + (R_i+eps z) phi'(R_i+eps z), the annulus
Green kernel G_n, and source densities d_j carrying the profile slope on the
band (positive weight on the inner band, negative on the outer one).  The
operator is assembled as dense blocks on a shared Gauss grid, with the
within-band kernel kink handled by per-target indefinite integration weights.
The adjoint in the slope-weighted L2 pair is built from the operator's own
kernel blocks: the Gauss weights and their indefinite weights W satisfy the
summation-by-parts identity w_j W[j, i] + w_i W[i, j] = w_i w_j, so its
weighted matrix is the transpose of the operator's.  The same identity makes
the weighted matrix Mw J-symmetric: with J = +1 on the inner band and -1 on
the outer one, J Mw is symmetric, so the singular values of Mw are the
moduli of the eigenvalues of J Mw, and its SVD is a symmetric eigensolve
(`BandOperator.symmetric_matrix`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import AnnulusConfig
from .domain import N_GAUSS, BaseStream, band_moment, lambda0
from .errors import NumericsError
from .poisson import mode_sinh
from .profile import TrapezoidProfile
from .quadrature import ZGrid, mapped_rule


def p_coeff(i: int, m: int, cfg: AnnulusConfig) -> float:
    """Rank-one coupling scalar of the eps -> 0 band system (i in {1, 2})."""
    if m < 1:
        raise ValueError("mode must satisfy m >= 1")
    Ri = cfg.R1 if i == 1 else cfg.R2
    return -Ri * cfg.R2 * _green(m, Ri, cfg.R2, cfg.r1, cfg.r2)


def _green(n: int, x: np.ndarray, y: np.ndarray, r1: float, r2: float
           ) -> np.ndarray:
    """Annulus Green kernel of mode n with x the inner argument and y the
    outer one (the kernel is symmetric, so swapping them gives the other
    branch)."""
    return -(mode_sinh(n, np.log(x / r1)) * mode_sinh(n, np.log(r2 / y))
             / (n * mode_sinh(n, np.log(r2 / r1))))


@dataclass
class CoefficientSet:
    """Expansion of the swirl moment (R_i + eps z) phi'(R_i + eps z).

    The moment splits exactly into order-0/1/2 pieces in eps: swirl0 is
    the Taylor-Couette constant of `BaseStream`, swirl1 is closed-form,
    and swirl2 is evaluated by quadrature on the profile edge function.
    The operator's swirl is their sum on the grid, so it reads the same
    swirl2 as the construction.  Also carries the alpha coefficients of
    the eigenvalue expansion built on top of it.  The annulus and eps are
    the profile's.

    A profile has one shared set (`TrapezoidProfile.coefficients`).  The
    grid terms that no iterate, mode or rate changes (slope weights,
    swirl2, the swirl) are computed once per (profile, grid) and kept in
    the set's `memo`; the evaluators stay usable at any z.
    """

    profile: TrapezoidProfile

    def __post_init__(self):
        self.cfg = self.profile.cfg
        self.lam0 = lambda0(self.cfg)
        self._memo: dict = {}

    def memo(self, key, build):
        """build(), computed once per key and kept as long as the set."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def _on_grid(self, name: str, zgrid: ZGrid, f) -> dict:
        """f(band, z) at the grid nodes per band, once per grid size; the
        arrays are read-only because every caller shares them."""
        def build():
            out = {band: f(band, zgrid.z) for band in (1, 2)}
            for values in out.values():
                values.flags.writeable = False
            return out
        return self.memo((name, zgrid.n), build)

    def slope_weights(self, zgrid: ZGrid) -> dict:
        """sigma_- (band 1) and sigma_+ (band 2) at the grid nodes."""
        return self._on_grid("sigma", zgrid, lambda band, z: (
            self.profile.weight_inner(z) if band == 1
            else self.profile.weight_outer(z)))

    def swirl_on_grid(self, zgrid: ZGrid) -> dict:
        """The swirl moment swirl0 + eps swirl1 + eps^2 swirl2 at the grid
        nodes, per band, from `swirl2_on_grid`'s arrays."""
        e = self.profile.eps
        swirl2 = self.swirl2_on_grid(zgrid)
        return self._on_grid("swirl", zgrid, lambda band, z: (
            self.swirl0[band] + e * self.swirl1(band, z)
            + e * e * swirl2[band]))

    def swirl2_on_grid(self, zgrid: ZGrid) -> dict:
        """swirl2 at the grid nodes, per band."""
        return self._on_grid("swirl2", zgrid, self.swirl2)

    def band_radius(self, band: int) -> float:
        return self.cfg.R1 if band == 1 else self.cfg.R2

    def radii(self, band: int, z) -> np.ndarray:
        return self.band_radius(band) + self.profile.eps * np.asarray(z, float)

    # -- exact eps-expansion ----------------------------------------------

    @cached_property
    def swirl0(self) -> dict:
        # the log-term constant of the Taylor-Couette stream function
        c0 = BaseStream(self.cfg, None).C
        return {band: c0 - self.cfg.A * (self.band_radius(band) ** 2
                                         - self.cfg.r1 ** 2)
                for band in (1, 2)}

    @cached_property
    def _swirl1_const(self) -> float:
        cfg = self.cfg
        logr = np.log(cfg.r2 / cfg.r1)
        return ((cfg.R2 ** 2 - cfg.R1 ** 2) / 2.0 * (np.log(cfg.r2) + 0.5)
                + cfg.R1 ** 2 / 2.0 * np.log(cfg.R1)
                - cfg.R2 ** 2 / 2.0 * np.log(cfg.R2)) / logr

    def swirl1(self, band: int, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        cfg = self.cfg
        out = self._swirl1_const - 2.0 * cfg.A * self.band_radius(band) * z
        if band == 2:
            out = out - (cfg.R2 ** 2 - cfg.R1 ** 2) / 2.0
        return out

    @cached_property
    def _band_full(self) -> dict:
        """`band_moment` over each whole band."""
        return {band: float(band_moment(self.profile, band, 1.0))
                for band in (1, 2)}

    @cached_property
    def remainder_const(self) -> float:
        cfg, e = self.cfg, self.profile.eps
        x, w = mapped_rule(-1.0, 1.0, N_GAUSS)
        k1 = float(np.dot(w, (cfg.R1 + e * x) * self.profile.edge(-x)
                          * np.log(cfg.R1 + e * x)))
        k2 = float(np.dot(w, (cfg.R2 + e * x) * self.profile.edge(x)
                          * np.log(cfg.R2 + e * x)))
        xi, wi = mapped_rule(0.0, e, N_GAUSS)
        tail = float(np.dot(wi, (cfg.R2 - xi) * np.log(cfg.R2 - xi)
                            + (cfg.R1 + xi) * np.log(cfg.R1 + xi))) / e
        return (np.log(cfg.r2) * (self._band_full[1] + self._band_full[2]
                                  - (cfg.R1 + cfg.R2))
                - (k1 + k2) + tail)

    def swirl2(self, band: int, z) -> np.ndarray:
        z = np.atleast_1d(np.asarray(z, dtype=float))
        cfg = self.cfg
        logr = np.log(cfg.r2 / cfg.r1)
        if band == 1:
            return (self.remainder_const / logr - cfg.A * z ** 2
                    - band_moment(self.profile, 1, z))
        base = self.remainder_const / logr - cfg.A - self._band_full[1]
        return (base + cfg.A * (1.0 - z ** 2)
                - (band_moment(self.profile, 2, z) - (cfg.R1 + cfg.R2)))

    # -- alpha coefficients of the eigenvalue expansion --------------------

    def alpha0(self, band: int) -> float:
        return self.lam0 * self.band_radius(band) ** 2 + self.swirl0[band]

    def alpha1(self, band: int, z, lam1: float) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        R = self.band_radius(band)
        return self.lam0 * 2.0 * R * z + lam1 * R ** 2 + self.swirl1(band, z)

    def beta_quad(self, z, lam1: float) -> np.ndarray:
        """Quadratic part of the order-2 outer coefficient (no lam2 term)."""
        z = np.asarray(z, dtype=float)
        return self.lam0 * z ** 2 + 2.0 * lam1 * self.cfg.R2 * z

    def alpha2(self, band: int, z, lam1: float, lam2: float) -> np.ndarray:
        """Order-two coefficient without its swirl2 term; carries every
        eps-dependent polynomial tail so that alpha0 + eps alpha1 +
        eps^2 (alpha2 + swirl2) reproduces lam (R + eps z)^2 + swirl exactly
        (including the lam1 z^2 eps term)."""
        z = np.asarray(z, dtype=float)
        R = self.band_radius(band)
        e = self.profile.eps
        return (self.lam0 * z ** 2 + lam1 * 2.0 * z * R + lam1 * z ** 2 * e
                + lam2 * R ** 2 + lam2 * 2.0 * z * R * e
                + lam2 * z ** 2 * e ** 2)


SYMMETRY_TOL = 1e-13     # most |J Mw - (J Mw)^T| / max |J Mw|


@dataclass
class BandOperator:
    """Dense two-band operator blocks on a shared Gauss grid."""

    n: int
    lam: float
    zgrid: ZGrid
    blocks: list                       # 2x2 nested list of (N, N) arrays
    sqrt_weights: tuple                # sqrt(w * sigma) per band

    def apply(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        out1 = self.blocks[0][0] @ a + self.blocks[0][1] @ b
        out2 = self.blocks[1][0] @ a + self.blocks[1][1] @ b
        return out1, out2

    def matrix(self) -> np.ndarray:
        return np.block(self.blocks)

    def weighted_matrix(self) -> np.ndarray:
        """Similarity transform into the weighted-L2 frame (no divisions by
        vanishing weights: the kernel columns carry the weight factor)."""
        # scale rows by S and columns by 1/S where S > 0, block by block into
        # the result: (S_i / S_j) M_ij, and S_i / S_i is exactly 1, so the
        # diagonal passes unchanged where S > 0; zero-weight columns have
        # analytically zero kernel entries in the weighted frame
        N = self.zgrid.n
        S = np.concatenate(self.sqrt_weights)
        safe = np.where(S > 0.0, S, 1.0)
        Mw = np.empty((2 * N, 2 * N))
        for i, rows in enumerate((slice(0, N), slice(N, 2 * N))):
            for j, cols in enumerate((slice(0, N), slice(N, 2 * N))):
                out = Mw[rows, cols]
                np.divide(S[rows, None], safe[None, cols], out=out)
                out *= self.blocks[i][j]
        dead = np.flatnonzero(S == 0.0)
        Mw[:, dead] = 0.0
        Mw[dead, dead] = np.concatenate([self.blocks[0][0].diagonal(),
                                         self.blocks[1][1].diagonal()])[dead]
        return Mw

    def symmetric_matrix(self) -> np.ndarray:
        """J times the weighted matrix: its outer-band rows negated.

        Symmetric by summation by parts, so `np.linalg.svd(...,
        hermitian=True)` gives the weighted matrix's singular values and
        right singular vectors, and J times its left ones.  The Hermitian
        path reads one triangle only, so an asymmetry above SYMMETRY_TOL of
        the largest entry raises a NumericsError carrying it.
        """
        A = self.weighted_matrix()
        A[self.zgrid.n:] *= -1.0
        asym = np.max(np.abs(A - A.T)) / np.max(np.abs(A))
        if not asym <= SYMMETRY_TOL:
            raise NumericsError(f"J times the weighted operator is not "
                                f"symmetric: asymmetry {asym:.3g} of its "
                                f"largest entry > {SYMMETRY_TOL:g}")
        return A

    def weighted_vector(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        s1, s2 = self.sqrt_weights
        return np.concatenate([s1 * a, s2 * b])

    def inner(self, u: tuple, v: tuple) -> float:
        """Weighted inner product of band pairs."""
        s1, s2 = self.sqrt_weights
        return float(np.dot(s1 ** 2 * u[0], v[0]) + np.dot(s2 ** 2 * u[1], v[1]))

    def norm(self, u: tuple) -> float:
        return float(np.sqrt(max(self.inner(u, u), 0.0)))


def _operator_parts(n: int, lam: float, profile: TrapezoidProfile,
                    zgrid: ZGrid):
    """Slope weights, band radii, diagonal multipliers and the Green's-kernel
    blocks core[i, j] = eps r_i(z) K_ij(z, s) of mode n, quadrature weights
    included; the source factor r_j sigma_j(s) is left to the callers.
    The annulus, eps and the profile terms are the profile's."""
    if n < 1:
        raise ValueError("band operator is defined for modes n >= 1")
    cfg, eps, coeffs = profile.cfg, profile.eps, profile.coefficients
    sig = coeffs.slope_weights(zgrid)
    swirl = coeffs.swirl_on_grid(zgrid)
    radii = {band: coeffs.radii(band, zgrid.z) for band in (1, 2)}
    lam_diag = {band: lam * radii[band] ** 2 + swirl[band] for band in (1, 2)}
    # right[i, j] is the branch with the target inside the source; the
    # kernel is symmetric, so a band's other branch (source inside) is its
    # transpose, and block (2, 1) is block (1, 2) transposed
    right = {(i, j): _green(n, radii[i][:, None], radii[j][None, :],
                            cfg.r1, cfg.r2)
             for i, j in ((1, 1), (2, 2), (1, 2))}
    K = {(1, 2): right[1, 2] * zgrid.w[None, :],
         (2, 1): right[1, 2].T * zgrid.w[None, :]}
    for band in (1, 2):
        K[band, band] = right[band, band].T * zgrid.w_left \
            + right[band, band] * zgrid.w_right
    core = {(i, j): (eps * radii[i])[:, None] * K[i, j]
            for i in (1, 2) for j in (1, 2)}
    return sig, radii, lam_diag, core


def _band_operator(n, lam, zgrid, sig, lam_diag, blocks) -> BandOperator:
    """Add the diagonal multiplier to the 2x2 kernel blocks and wrap them."""
    diag = np.arange(zgrid.n)
    for band in (1, 2):
        blocks[band - 1][band - 1][diag, diag] += lam_diag[band]
    sqrtw = (np.sqrt(zgrid.w * sig[1]), np.sqrt(zgrid.w * sig[2]))
    return BandOperator(n=n, lam=lam, zgrid=zgrid, blocks=blocks,
                        sqrt_weights=sqrtw)


def assemble(n: int, lam: float, profile: TrapezoidProfile,
             zgrid: ZGrid) -> BandOperator:
    """Dense band operator for mode n at rotation rate lam."""
    sig, radii, lam_diag, core = _operator_parts(n, lam, profile, zgrid)
    slope = {1: sig[1], 2: -sig[2]}        # profile derivative on each band
    blocks = [[core[i, j] * (radii[j] * slope[j])[None, :] for j in (1, 2)]
              for i in (1, 2)]
    return _band_operator(n, lam, zgrid, sig, lam_diag, blocks)


def assemble_adjoint(n: int, lam: float, profile: TrapezoidProfile,
                     zgrid: ZGrid) -> BandOperator:
    """Adjoint of `assemble` in the slope-weighted L2 pair.

    Block (j, i) is sign_j r_j K^T (w sigma_i) / w, with K = eps r_i K_ij the
    kernel block of `assemble` and sign +1 on the inner band, -1 on the outer
    one.  Only the positive Gauss weights are divided by, never the slope
    weights, which vanish at some nodes.
    """
    sig, radii, lam_diag, core = _operator_parts(n, lam, profile, zgrid)
    w = zgrid.w
    sign = {1: 1.0, 2: -1.0}
    blocks = [[(sign[j] * radii[j] / w)[:, None] * core[i, j].T
               * (w * sig[i])[None, :] for i in (1, 2)]
              for j in (1, 2)]
    return _band_operator(n, lam, zgrid, sig, lam_diag, blocks)
