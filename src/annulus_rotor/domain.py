"""Base flow on the annulus: swirl profile, circulation, stream function."""

from __future__ import annotations

import numpy as np

from .config import AnnulusConfig
from .errors import OutOfDomainError
from .profile import TrapezoidProfile
from .quadrature import gauss_rule, mapped_rule

# Gauss order of every band-moment and base-stream panel
N_GAUSS = 48


def circulation(cfg: AnnulusConfig) -> float:
    """Boundary stream-function datum matching the base flow."""
    return -(cfg.A / 2.0 * (cfg.r2 ** 2 - cfg.r1 ** 2)
             + cfg.B * np.log(cfg.r2 / cfg.r1))


def lambda0(cfg: AnnulusConfig) -> float:
    """Leading rotation rate of the constructed waves.

    Computed from the circulation form; algebraically equal to the base
    swirl's angular velocity at R2, A + B / R2^2 (asserted by tests to
    1e-13 relative).
    """
    gam = circulation(cfg)
    logr = np.log(cfg.r2 / cfg.r1)
    return (cfg.A * (1.0 - (cfg.r2 ** 2 - cfg.r1 ** 2) / (2.0 * cfg.R2 ** 2 * logr))
            - gam / (cfg.R2 ** 2 * logr))


def band_moment(profile: TrapezoidProfile, band: int, z) -> np.ndarray:
    """int_{-1}^{z} (R_band + eps t) edge(-+t) dt at every z of an array.

    The edge enters mirrored, edge(-t), on the inner band.  One Gauss rule
    mapped to every [-1, z] at once and one `edge` call cover the array.
    """
    z = np.asarray(z, dtype=float)
    R, sign = (profile.cfg.R1, -1.0) if band == 1 else (profile.cfg.R2, 1.0)
    x, w = gauss_rule(N_GAUSS)
    half = 0.5 * (z[..., None] + 1.0)
    t = -1.0 + half * (x + 1.0)
    return np.vecdot(half * w, (R + profile.eps * t) * profile.edge(sign * t))


class BaseStream:
    """Stream function of the axisymmetric flow with vorticity 2A + profile.

    Solves -(phi'' + phi'/r) = 2A + profile(r), phi(r1) = 0, phi(r2) = gamma,
    by the explicit log-kernel representation; piecewise band moments keep
    every quadrature panel on a smooth integrand.
    """

    def __init__(self, cfg: AnnulusConfig, profile: TrapezoidProfile | None):
        if profile is not None:
            profile.check(cfg)
        self.cfg = cfg
        self.profile = profile
        self.gamma = circulation(cfg)
        R1, R2 = cfg.R1, cfg.R2
        if profile is None:
            self._edges = [cfg.r1, cfg.r2]
            self._v_band1_full = self._v_band2_full = 0.0
        else:
            e = profile.eps
            self._edges = [cfg.r1, R1 - e, R1 + e, R2 - e, R2 + e, cfg.r2]
            # V over each whole band
            self._v_band1_full = e * e * float(band_moment(profile, 1, 1.0))
            self._v_band2_full = e * e * float(band_moment(profile, 2, 1.0))
        # circulation-matching constant of the log term
        logr = np.log(cfg.r2 / cfg.r1)
        base = cfg.A * ((cfg.r2 ** 2 - cfg.r1 ** 2) / 2.0
                        - cfg.r1 ** 2 * logr)
        self.C = (self.gamma + base + self._outer_integral()) / logr

    def moment(self, r) -> np.ndarray:
        """V(r) = int_{r1}^{r} t * profile(t) dt, piecewise over the five
        regions r1 | inner band | plateau | outer band | r2."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if self.profile is None:
            return np.zeros_like(r)
        e = self.profile.eps
        R1, R2 = self.cfg.R1, self.cfg.R2
        out = np.zeros_like(r)
        plateau_at = lambda rr: (self._v_band1_full
                                 + e * (rr ** 2 - (R1 + e) ** 2) / 2.0)
        band1 = (r > R1 - e) & (r <= R1 + e)
        plateau = (r > R1 + e) & (r <= R2 - e)
        band2 = (r > R2 - e) & (r <= R2 + e)
        outside = r > R2 + e
        # a band that holds none of the radii costs no edge evaluation
        if band1.any():
            out[band1] = e * e * band_moment(self.profile, 1,
                                             (r[band1] - R1) / e)
        out[plateau] = plateau_at(r[plateau])
        if band2.any():
            out[band2] = plateau_at(R2 - e) + e * e * band_moment(
                self.profile, 2, (r[band2] - R2) / e)
        out[outside] = plateau_at(R2 - e) + self._v_band2_full
        return out

    def _outer_integral(self) -> float:
        """int_{r1}^{r2} V(s)/s ds over smooth panels."""
        total = 0.0
        for lo, hi in zip(self._edges[:-1], self._edges[1:]):
            x, w = mapped_rule(lo, hi, N_GAUSS)
            total += float(np.dot(w, self.moment(x) / x))
        return total

    def phi_prime(self, r) -> np.ndarray:
        r = np.atleast_1d(np.asarray(r, dtype=float))
        cfg = self.cfg
        return (self.C / r - cfg.A * (r - cfg.r1 ** 2 / r)
                - self.moment(r) / r)

    def phi(self, r) -> np.ndarray:
        r = np.atleast_1d(np.asarray(r, dtype=float))
        cfg = self.cfg
        out = np.empty_like(r)
        for i, ri in enumerate(r):
            if not cfg.r1 - 1e-12 <= ri <= cfg.r2 + 1e-12:
                raise OutOfDomainError("radius outside annulus")
            acc = 0.0
            edges = [p for p in self._edges if p < ri] + [min(ri, cfg.r2)]
            for lo, hi in zip(edges[:-1], edges[1:]):
                x, w = mapped_rule(lo, hi, N_GAUSS)
                acc += float(np.dot(w, self.moment(x) / x))
            out[i] = (self.C * np.log(ri / cfg.r1)
                      - cfg.A * ((ri ** 2 - cfg.r1 ** 2) / 2.0
                                 - cfg.r1 ** 2 * np.log(ri / cfg.r1))
                      - acc)
        return out
