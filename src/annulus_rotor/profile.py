"""Mollified trapezoidal vorticity profile on the annulus.

The profile rises from 0 to eps across the inner band (R1 - eps, R1 + eps),
stays flat at eps on the middle plateau, and descends back to 0 across the
outer band (R2 - eps, R2 + eps).  Both ramps are built from a single smooth
edge function (1 at the left edge, 0 at the right) obtained by a
kappa-regularization of the linear descent (1 - z)/2.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .config import AnnulusConfig, RunConfig
from .errors import ConfigError, OutOfDomainError
from .mollifier import default_mollifier


def _not_finite(x: np.ndarray) -> str:
    """'; k of n arguments are not finite' when k > 0, else ''."""
    k = int(np.count_nonzero(~np.isfinite(x)))
    return f"; {k} of {x.size} arguments are not finite" if k else ""


class TrapezoidProfile:
    """Band half-width eps, edge regularization kappa, edge function tools.

    The edge function ``edge(z)`` on [-1, 1] satisfies edge(-1)=1, edge(1)=0,
    vanishing derivatives at both endpoints, edge' < 0 inside, and
    ||edge' + 1/2||_L1 = O(kappa).
    """

    def __init__(self, cfg: AnnulusConfig, eps: float, kappa: float):
        if not 0.0 < eps < cfg.eps_max:
            raise OutOfDomainError(
                f"eps must lie in (0, {cfg.eps_max}); got {eps}")
        if not 0.0 < kappa < 1.0:
            raise OutOfDomainError(f"kappa must lie in (0, 1); got {kappa}")
        self.cfg = cfg
        self.eps = float(eps)
        self.kappa = float(kappa)
        self.moll = default_mollifier()
        # int_{-1}^{1} of the inner convolution kernel; exact: 2*kappa*(1-kappa)
        self._norm = 2.0 * self.kappa * (1.0 - self.kappa)

    @classmethod
    def from_run(cls, run: RunConfig) -> "TrapezoidProfile":
        return cls(run.annulus, run.eps, run.kappa)

    @cached_property
    def coefficients(self):
        """The profile's one `linop.CoefficientSet`, shared by every
        assembly and eigenpair build on it.

        Kept on the profile so that it lives exactly as long as the
        profile; a cache keyed by profile would keep its key alive, since
        the set refers to the profile.
        """
        from .linop import CoefficientSet   # linop imports this module
        return CoefficientSet(self)

    def check(self, cfg: AnnulusConfig | None = None,
              eps: float | None = None) -> None:
        """Raise ConfigError unless cfg and eps, where given, are the
        profile's: the profile fixes the annulus and the band half-width of
        every operator, eigenpair and field built on it."""
        for name, given, own in (("config", cfg, self.cfg),
                                 ("eps", eps, self.eps)):
            if given is not None and given != own:
                raise ConfigError(f"{name} {given!r} is not the profile's "
                                  f"{name} {own!r}")

    # -- edge function -------------------------------------------------------

    def _check_z(self, z):
        z = np.asarray(z, dtype=float)
        if not np.all(np.abs(z) <= 1.0 + 1e-14):     # NaN fails it too
            raise OutOfDomainError("edge function argument must lie in "
                                   f"[-1, 1]{_not_finite(z)}")
        return np.clip(z, -1.0, 1.0)

    def edge(self, z) -> np.ndarray:
        """Regularized descent from 1 (z=-1) to 0 (z=+1)."""
        z = self._check_z(z)
        k = self.kappa
        vp = (z + 1.0 - k) / k
        vm = (z - 1.0 + k) / k
        mass = k * k * (self.moll.cdf2(vp) - self.moll.cdf2(vm))
        return 1.0 - mass / self._norm

    def edge_prime(self, z) -> np.ndarray:
        z = self._check_z(z)
        k = self.kappa
        up = (z + 1.0 - k) / k
        um = (z - 1.0 + k) / k
        return -k * (self.moll.cdf(up) - self.moll.cdf(um)) / self._norm

    def edge_second(self, z) -> np.ndarray:
        z = self._check_z(z)
        k = self.kappa
        up = (z + 1.0 - k) / k
        um = (z - 1.0 + k) / k
        return -(self.moll.value(up) - self.moll.value(um)) / self._norm

    # -- weighted inner-product weights (nonnegative by edge' <= 0) ----------

    def weight_inner(self, z) -> np.ndarray:
        """sigma_-(z) = -edge'(-z); weight for the inner band."""
        return -self.edge_prime(-np.asarray(z, dtype=float))

    def weight_outer(self, z) -> np.ndarray:
        """sigma_+(z) = -edge'(z); weight for the outer band."""
        return -self.edge_prime(np.asarray(z, dtype=float))

    # -- radial profile ------------------------------------------------------

    def _on_bands(self, r, inner, outer) -> tuple[np.ndarray, np.ndarray]:
        """r checked against the annulus, and the array that is inner(z) on
        the inner band, z = (R1 - r)/eps, outer(z) on the outer band,
        z = (r - R2)/eps, and zero elsewhere."""
        r = np.asarray(r, dtype=float)
        cfg = self.cfg
        if not np.all((r >= cfg.r1 - 1e-12) & (r <= cfg.r2 + 1e-12)):
            raise OutOfDomainError(
                f"radius outside the annulus{_not_finite(r)}")
        e = self.eps
        out = np.zeros_like(r)
        for R, sign, f in ((cfg.R1, -1.0, inner), (cfg.R2, 1.0, outer)):
            band = (r >= R - e) & (r <= R + e)
            # a band that holds none of the radii costs no edge evaluation
            if band.any():
                out[band] = f(sign * (r[band] - R) / e)
        return r, out

    def value(self, r) -> np.ndarray:
        """Vorticity increment above the constant background."""
        e = self.eps
        r, out = self._on_bands(r, *(lambda z: e * self.edge(z),) * 2)
        out[(r > self.cfg.R1 + e) & (r < self.cfg.R2 - e)] = e
        return out

    def derivative(self, r) -> np.ndarray:
        """d/dr of the profile; exactly zero outside the two bands."""
        return self._on_bands(r, lambda z: -self.edge_prime(z),
                              self.edge_prime)[1]

    def second_derivative(self, r) -> np.ndarray:
        return self._on_bands(
            r, *(lambda z: self.edge_second(z) / self.eps,) * 2)[1]

    def tabulate(self, n: int = 4096) -> np.ndarray:
        """(z, edge, edge') table for CSV export."""
        z = np.linspace(-1.0, 1.0, n)
        return np.column_stack([z, self.edge(z), self.edge_prime(z)])
