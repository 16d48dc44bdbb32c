"""Gauss-Legendre panel quadrature, indefinite integration weights, z-grids."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import (Legendre, legder, leggauss, legval,
                                      legvander)


@lru_cache(maxsize=64)
def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    x, w = leggauss(n)
    return x, w


def mapped_rule(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule mapped to [a, b]."""
    x, w = gauss_rule(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def geometric_edges(a: float, b: float, toward: str = "right",
                    n_panels: int = 30, ratio: float = 0.65) -> np.ndarray:
    """Panel edges on [a, b] geometrically refined toward one endpoint.

    Panel widths shrink by `ratio` toward the chosen endpoint; used for
    integrands with boundary-layer structure.
    """
    widths = ratio ** np.arange(n_panels)
    widths = widths / widths.sum() * (b - a)
    if toward == "right":
        cuts = a + np.concatenate(([0.0], np.cumsum(widths)))
    elif toward == "left":
        cuts = a + np.concatenate(([0.0], np.cumsum(widths[::-1])))
    else:
        raise ValueError("toward must be 'left' or 'right'")
    cuts[0], cuts[-1] = a, b
    return cuts


def _legendre_analysis(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Matrix A with (A f)[k] the k-th Legendre coefficient of the degree
    N-1 interpolant of f at the nodes z, by the discrete orthogonality of
    the rule (z, w) (exact for a Gauss rule)."""
    n = len(z)
    coeff = legvander(z, n - 1).T * w            # before (2k+1)/2 scaling
    coeff *= ((2 * np.arange(n) + 1) / 2.0)[:, None]   # coeff[k, i]
    return coeff


def _legendre_integrals(z: np.ndarray) -> np.ndarray:
    """I[j, k] = int_{-1}^{z_j} P_k for k < len(z)."""
    # I_0 = x+1, I_k = (P_{k+1} - P_{k-1})/(2k+1)
    n = len(z)
    Pz = legvander(z, n)                         # up to degree n
    I = np.empty((n, n))
    I[:, 0] = z + 1.0
    ks = np.arange(1, n)
    I[:, 1:] = (Pz[:, 2:n + 1] - Pz[:, 0:n - 1]) / (2 * ks + 1)
    return I


def indefinite_weights(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Matrix W with W[j, i] = integral of the i-th Lagrange cardinal on [-1, z_j].

    Built through the Legendre expansion of the cardinal functions, so that
    sum_i W[j, i] f(z_i) is the exact integral of the degree N-1 interpolant
    of f from -1 to z_j.
    """
    return _legendre_integrals(z) @ _legendre_analysis(z, w)


@lru_cache(maxsize=64)
def gauss_edges_and_slopes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """For the n-point Gauss grid: the rows E with E @ f the degree n-1
    interpolant of f at z = -1 and z = 1 (P_k(+-1) = (+-1)^k, so they are
    the signed sums of the analysis matrix's rows), and the matrix D with
    D @ f its derivative at the nodes.  Built once per n and shared, so
    both are read-only."""
    z, w = gauss_rule(n)
    to_legendre = _legendre_analysis(z, w)
    ends = np.stack([(-1.0) ** np.arange(n) @ to_legendre,
                     np.ones(n) @ to_legendre])
    slopes = legval(z, legder(to_legendre)).T
    for a in (ends, slopes):
        a.flags.writeable = False
    return ends, slopes


@dataclass(frozen=True)
class ZGrid:
    """Gauss-Legendre collocation grid on [-1, 1] for the band operators."""

    n: int = 96
    z: np.ndarray = field(init=False, repr=False)
    w: np.ndarray = field(init=False, repr=False)
    w_left: np.ndarray = field(init=False, repr=False)   # int_{-1}^{z_j}
    w_right: np.ndarray = field(init=False, repr=False)  # int_{z_j}^{1}
    to_legendre: np.ndarray = field(init=False, repr=False)  # f -> Legendre coeffs

    def __post_init__(self):
        z, w = gauss_rule(self.n)
        to_legendre = _legendre_analysis(z, w)
        wl = _legendre_integrals(z) @ to_legendre
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "w_left", wl)
        object.__setattr__(self, "w_right", w[None, :] - wl)
        object.__setattr__(self, "to_legendre", to_legendre)

    def integrate(self, fvals: np.ndarray) -> float:
        return float(np.dot(self.w, fvals))


@lru_cache(maxsize=64)
def lobatto_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Lobatto-Legendre rule on [-1, 1] (includes both endpoints)."""
    if n < 2:
        raise ValueError("Lobatto rule needs n >= 2")
    inner = Legendre.basis(n - 1).deriv().roots()
    x = np.concatenate(([-1.0], np.real(inner), [1.0]))
    Pnm1 = legvander(x, n - 1)[:, n - 1]
    w = 2.0 / (n * (n - 1) * Pnm1 ** 2)
    return x, w


@lru_cache(maxsize=64)
def lobatto_indefinite_weights(n: int) -> np.ndarray:
    """`indefinite_weights` of the n-point Lobatto rule, built once per n.

    Shared by every caller, so the matrix is read-only.
    """
    W = indefinite_weights(*lobatto_rule(n))
    W.flags.writeable = False
    return W
