"""Smooth compactly supported bump and its (doubly) integrated forms."""

from __future__ import annotations

import numpy as np

from .quadrature import gauss_rule


def _bump_raw(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ui * ui))
    return out


class Mollifier:
    """Normalized smooth bump on (-1, 1): value, CDF, and integrated CDF.

    The CDF and its antiderivative are evaluated through cumulative panel
    Gauss quadrature (machine accurate for the smooth bump), with the
    saturated extensions CDF(x>=1)=1, CDF(x<=-1)=0 and the linear
    continuation of the antiderivative beyond x=1.
    """

    def __init__(self, n_panels: int = 256, n_gauss: int = 16):
        self.edges = np.linspace(-1.0, 1.0, n_panels + 1)
        gx, gw = gauss_rule(n_gauss)
        self._gx, self._gw = gx, gw
        raw_cum = self._cumulative(lambda u: _bump_raw(u))
        self.norm = raw_cum[-1]
        self._cdf_at_edges = raw_cum / self.norm
        cdf2_cum = self._cumulative(lambda u: self._cdf_core(u))
        self._cdf2_at_edges = cdf2_cum

    def _cumulative(self, f) -> np.ndarray:
        a, b = self.edges[:-1], self.edges[1:]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        pts = mid[:, None] + half[:, None] * self._gx[None, :]
        vals = f(pts.ravel()).reshape(pts.shape)
        per_panel = half * (vals @ self._gw)
        return np.concatenate(([0.0], np.cumsum(per_panel)))

    def _partial(self, table: np.ndarray, f, x: np.ndarray) -> np.ndarray:
        """table[k] + integral of f over [edge_k, x] for x in panel k."""
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self.edges, x, side="right") - 1,
                      0, len(self.edges) - 2)
        lo = self.edges[idx]
        half = 0.5 * (x - lo)
        pts = (lo + half)[..., None] + half[..., None] * self._gx
        vals = f(pts.ravel()).reshape(pts.shape)
        return table[idx] + half * (vals @ self._gw)

    def _cdf_core(self, x):
        """CDF for x clipped to [-1, 1] (no saturation handling)."""
        return self._partial(self._cdf_at_edges,
                             lambda u: _bump_raw(u) / self.norm, x)

    def value(self, u) -> np.ndarray:
        """Normalized bump."""
        return _bump_raw(u) / self.norm

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        xc = np.clip(x, -1.0, 1.0)
        return self._cdf_core(xc)

    def cdf2(self, x) -> np.ndarray:
        """Antiderivative of the CDF with cdf2(-1)=0, linear for x > 1."""
        x = np.asarray(x, dtype=float)
        xc = np.clip(x, -1.0, 1.0)
        core = self._partial(self._cdf2_at_edges, self._cdf_core, xc)
        return core + np.where(x > 1.0, x - 1.0, 0.0)

    @property
    def sup(self) -> float:
        """Maximum of the normalized bump (attained at 0)."""
        return float(np.exp(-1.0) / self.norm)


_DEFAULT = None


def default_mollifier() -> Mollifier:
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = Mollifier()
    return _DEFAULT
