"""Base flow on the annulus: swirl profile, circulation, stream function."""

from __future__ import annotations

import numpy as np

from .config import AnnulusConfig
from .errors import OutOfDomainError
from .profile import TrapezoidProfile
from .quadrature import mapped_rule


def u_tc(cfg: AnnulusConfig, r) -> np.ndarray:
    """Azimuthal base velocity A r + B / r."""
    r = np.asarray(r, dtype=float)
    if np.any((r < cfg.r1 - 1e-12) | (r > cfg.r2 + 1e-12)):
        raise OutOfDomainError(f"radius outside [{cfg.r1}, {cfg.r2}]")
    return cfg.A * r + cfg.B / r


def circulation(cfg: AnnulusConfig) -> float:
    """Boundary stream-function datum matching the base flow."""
    return -(cfg.A / 2.0 * (cfg.r2 ** 2 - cfg.r1 ** 2)
             + cfg.B * np.log(cfg.r2 / cfg.r1))


def lambda0(cfg: AnnulusConfig) -> float:
    """Leading rotation rate of the constructed waves.

    Computed from the circulation form; algebraically equal to
    u_tc(R2) / R2 (asserted by tests to 1e-13 relative).
    """
    gam = circulation(cfg)
    logr = np.log(cfg.r2 / cfg.r1)
    return (cfg.A * (1.0 - (cfg.r2 ** 2 - cfg.r1 ** 2) / (2.0 * cfg.R2 ** 2 * logr))
            - gam / (cfg.R2 ** 2 * logr))


class BaseStream:
    """Stream function of the axisymmetric flow with vorticity 2A + profile.

    Solves -(phi'' + phi'/r) = 2A + profile(r), phi(r1) = 0, phi(r2) = gamma,
    by the explicit log-kernel representation; piecewise band moments keep
    every quadrature panel on a smooth integrand.
    """

    def __init__(self, cfg: AnnulusConfig, profile: TrapezoidProfile | None,
                 n_gauss: int = 32):
        if profile is not None and profile.cfg is not cfg and profile.cfg != cfg:
            raise ValueError("profile was built for a different config")
        self.cfg = cfg
        self.profile = profile
        self.gamma = circulation(cfg)
        self.n_gauss = n_gauss
        R1, R2 = cfg.R1, cfg.R2
        if profile is None:
            self._edges = [cfg.r1, cfg.r2]
            self._v_band1_full = self._v_band2_full = 0.0
        else:
            e = profile.eps
            self._edges = [cfg.r1, R1 - e, R1 + e, R2 - e, R2 + e, cfg.r2]
            self._v_band1_full = self._band_mass(R1, -1)  # int over inner band
            self._v_band2_full = self._band_mass(R2, +1)
        # circulation-matching constant of the log term
        logr = np.log(cfg.r2 / cfg.r1)
        base = cfg.A * ((cfg.r2 ** 2 - cfg.r1 ** 2) / 2.0
                        - cfg.r1 ** 2 * logr)
        self.C = (self.gamma + base + self._outer_integral()) / logr

    # V(r) = int_{r1}^{r} t * profile(t) dt, evaluated piecewise
    def _band_mass(self, center: float, sign: int, z_to: float = 1.0) -> float:
        e = self.profile.eps
        x, w = mapped_rule(-1.0, z_to, self.n_gauss)
        vals = (center + e * x) * self.profile.edge(sign * x)
        return e * e * float(np.dot(w, vals))

    def moment(self, r) -> np.ndarray:
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if self.profile is None:
            return np.zeros_like(r)
        cfg, e = self.cfg, self.profile.eps
        R1, R2 = cfg.R1, cfg.R2
        out = np.zeros_like(r)
        plateau_at = lambda rr: (self._v_band1_full
                                 + e * (rr ** 2 - (R1 + e) ** 2) / 2.0)
        for i, ri in enumerate(r):
            if ri <= R1 - e:
                out[i] = 0.0
            elif ri <= R1 + e:
                out[i] = self._band_mass(R1, -1, (ri - R1) / e)
            elif ri <= R2 - e:
                out[i] = plateau_at(ri)
            elif ri <= R2 + e:
                out[i] = plateau_at(R2 - e) + self._band_mass(R2, +1, (ri - R2) / e)
            else:
                out[i] = plateau_at(R2 - e) + self._v_band2_full
        return out

    def _outer_integral(self) -> float:
        """int_{r1}^{r2} V(s)/s ds over smooth panels."""
        total = 0.0
        for lo, hi in zip(self._edges[:-1], self._edges[1:]):
            x, w = mapped_rule(lo, hi, self.n_gauss)
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
                x, w = mapped_rule(lo, hi, self.n_gauss)
                acc += float(np.dot(w, self.moment(x) / x))
            out[i] = (self.C * np.log(ri / cfg.r1)
                      - cfg.A * ((ri ** 2 - cfg.r1 ** 2) / 2.0
                                 - cfg.r1 ** 2 * np.log(ri / cfg.r1))
                      - acc)
        return out
