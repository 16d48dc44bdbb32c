"""Smooth compactly supported bump and its (doubly) integrated forms."""

from __future__ import annotations

import numpy as np

from .quadrature import gauss_rule


N_PANELS = 256          # panels of the cumulative quadrature on (-1, 1)
N_GAUSS = 16            # Gauss nodes per panel


def _bump_raw(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ui * ui))
    return out


class Mollifier:
    """Normalized smooth bump on (-1, 1): value, CDF, and integrated CDF.

    Both are evaluated through cumulative panel Gauss quadrature (machine
    accurate for the smooth bump): a table at the panel edges plus one
    Gauss rule over [edge_k, x] on the panel k holding x.  The integrated
    CDF uses the exact identity

        cdf2(x) = cdf2(e_k) + (x - e_k) cdf(e_k) + int_{e_k}^x (x - t) phi(t) dt,

    whose terms are all non-negative, so nothing cancels.  Saturated
    arguments take closed forms without quadrature: cdf(x<=-1)=0,
    cdf(x>=1)=1, cdf2(x<=-1)=0 and cdf2(x>=1) = cdf2(1) + (x - 1).

    The Gauss nodes of [edge_k, x] lie in [-1, 1), so the CDFs evaluate the
    bump there with `_interior`, `value`'s operations in its order on one
    array, without its mask; `value` keeps the mask for any argument.
    """

    def __init__(self):
        self.edges = np.linspace(-1.0, 1.0, N_PANELS + 1)
        gx, gw = gauss_rule(N_GAUSS)
        self._gx, self._gw = gx, gw
        a, b = self.edges[:-1], self.edges[1:]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        pts = mid[:, None] + half[:, None] * gx[None, :]
        raw = _bump_raw(pts)
        raw_cum = np.concatenate(([0.0], np.cumsum(half * (raw @ gw))))
        self.norm = raw_cum[-1]
        self._cdf_at_edges = raw_cum / self.norm
        per_panel = (b - a) * self._cdf_at_edges[:-1] \
            + half * (((b[:, None] - pts) * raw / self.norm) @ gw)
        self._cdf2_at_edges = np.concatenate(([0.0], np.cumsum(per_panel)))

    def _panel(self, x: np.ndarray):
        """Panel index, left edge, half-width and Gauss nodes of [edge, x]
        for x in (-1, 1), which keeps the index in 0..N_PANELS-1."""
        idx = np.searchsorted(self.edges, x, side="right") - 1
        lo = self.edges[idx]
        half = 0.5 * (x - lo)
        pts = half[..., None] * self._gx
        pts += (lo + half)[..., None]
        return idx, lo, half, pts

    def value(self, u) -> np.ndarray:
        """Normalized bump."""
        return _bump_raw(u) / self.norm

    def _interior(self, u: np.ndarray, out=None) -> np.ndarray:
        """`value` at nodes u in [-1, 1], into out (a new array if None).

        `value`'s operations in its order, so every value keeps its bits.
        A node that rounds onto -1 (x within about 2e-14 of -1) gives
        exp(-1/0) = exp(-inf) = 0, as the masked form does, and no warning.
        """
        phi = np.multiply(u, u, out=out)
        np.subtract(1.0, phi, out=phi)
        with np.errstate(divide="ignore"):
            np.divide(-1.0, phi, out=phi)
        np.exp(phi, out=phi)
        phi /= self.norm
        return phi

    def cdf(self, x) -> np.ndarray:
        """CDF of the bump: 0 for x <= -1, 1 for x >= 1."""
        x = np.asarray(x, dtype=float)
        out = np.where(x >= 1.0, 1.0, 0.0)
        inside = (x > -1.0) & (x < 1.0)
        idx, _, half, pts = self._panel(x[inside])
        out[inside] = self._cdf_at_edges[idx] \
            + half * (self._interior(pts, out=pts) @ self._gw)
        return out

    def cdf2(self, x) -> np.ndarray:
        """Antiderivative of the CDF with cdf2(-1)=0, linear for x > 1."""
        x = np.asarray(x, dtype=float)
        out = np.where(x >= 1.0, self._cdf2_at_edges[-1] + (x - 1.0), 0.0)
        inside = (x > -1.0) & (x < 1.0)
        xi = x[inside]
        idx, lo, half, pts = self._panel(xi)
        phi = self._interior(pts)
        tail = np.subtract(xi[:, None], pts, out=pts)
        tail *= phi
        out[inside] = self._cdf2_at_edges[idx] \
            + (xi - lo) * self._cdf_at_edges[idx] + half * (tail @ self._gw)
        return out

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
