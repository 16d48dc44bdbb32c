"""Gauss-Legendre panel quadrature, indefinite integration weights, z-grids,
the barycentric formulas (Berrut & Trefethen, SIAM Rev. 46 (2004)) by which
the Gauss z-grid interpolates and both node sets differentiate, and the
Chebyshev series (Clenshaw, MTAC 9 (1955)) by which F reads the band
displacement and the radial panels' stream function."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.chebyshev import chebvander
from numpy.polynomial.legendre import Legendre, leggauss, legvander


@lru_cache(maxsize=64)
def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    x, w = leggauss(n)
    return x, w


def mapped_rule(a, b, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule mapped to [a, b]; column arrays a and b give one
    rule per row."""
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


@dataclass(frozen=True, eq=False)
class ZGrid:
    """Gauss-Legendre collocation grid on [-1, 1] for the band operators.

    Grids hash and compare by identity, so a grid can key a memo."""

    n: int = 96
    z: np.ndarray = field(init=False, repr=False)
    w: np.ndarray = field(init=False, repr=False)
    w_left: np.ndarray = field(init=False, repr=False)   # int_{-1}^{z_j}
    w_right: np.ndarray = field(init=False, repr=False)  # int_{z_j}^{1}
    diff: np.ndarray = field(init=False, repr=False)     # f -> f' at the nodes
    ends: np.ndarray = field(init=False, repr=False)     # f -> f(-1), f(1)

    def __post_init__(self):
        z, w = gauss_rule(self.n)
        wl = _legendre_integrals(z) @ _legendre_analysis(z, w)
        b = gauss_bary_weights(self.n)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "w_left", wl)
        object.__setattr__(self, "w_right", w[None, :] - wl)
        object.__setattr__(self, "diff", bary_diff_matrix(z, b))
        # barycentric rows at z = -1, 1, where no Gauss node lies; summed
        # node by node, as `bary_interp` sums, so the rows are its rows
        rows = b / (np.array([[-1.0], [1.0]]) - z)
        object.__setattr__(self, "ends",
                           rows / np.cumsum(rows, axis=1)[:, -1:])

    @property
    def to_chebyshev(self) -> np.ndarray:
        """Matrix taking f at the nodes to the Chebyshev coefficients of its
        interpolant, shared by every n-node grid (`gauss_to_chebyshev`)."""
        return gauss_to_chebyshev(self.n)

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


def _signed_roots(v: np.ndarray) -> np.ndarray:
    b = (-1.0) ** np.arange(len(v)) * np.sqrt(v)
    b.flags.writeable = False
    return b


@lru_cache(maxsize=64)
def lobatto_bary_weights(n: int) -> np.ndarray:
    """Barycentric weights (-1)^j sqrt(w_j) of the n-point Lobatto rule.

    An affine map scales all weights by one factor, which the barycentric
    formulas cancel, so one read-only array serves every n-node panel.
    """
    return _signed_roots(lobatto_rule(n)[1])


@lru_cache(maxsize=64)
def gauss_bary_weights(n: int) -> np.ndarray:
    """Barycentric weights (-1)^j sqrt((1 - z_j^2) w_j) of the n-point
    Gauss rule, read-only and shared like `lobatto_bary_weights`."""
    z, w = gauss_rule(n)
    return _signed_roots((1.0 - z ** 2) * w)


def bary_diff_matrix(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix D with D @ f the derivative at the nodes x of the interpolant
    of f, from the nodes' barycentric weights b; each diagonal entry is
    minus its row's off-diagonal sum, so D differentiates constants to 0."""
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    D = (b[None, :] / b[:, None]) / dx
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -np.sum(D, axis=1))
    return D


def bary_interp(xn: np.ndarray, fn: np.ndarray, x: np.ndarray,
                b: np.ndarray) -> np.ndarray:
    """Interpolant on the sorted nodes xn, with barycentric weights b, of
    the nodal columns fn (n, ncol) at points x of shape (k, 1), shared by
    every column, or (k, ncol), one column each.  The sums run node by
    node, so no temporary outgrows the result; a point within 1e-15 of a
    node takes the node's value (`snap_to_nodes`)."""
    num = np.zeros(np.broadcast_shapes(x.shape, fn.shape[1:]),
                   dtype=np.result_type(fn, float))
    term = np.empty_like(num)
    den = np.zeros(x.shape)
    q = np.empty(x.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(len(xn)):
            np.subtract(x, xn[k], out=q)
            np.divide(b[k], q, out=q)
            den += q
            np.multiply(q, fn[k], out=term)
            num += term
        num /= den
    return snap_to_nodes(xn, fn, x, num)


def snap_to_nodes(xn: np.ndarray, fn: np.ndarray, x: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """out, an interpolant of the nodal columns fn on the sorted nodes xn
    at the points x (shaped as in `bary_interp`), with every point within
    1e-15 of a node given the node's value."""
    j = np.clip(np.searchsorted(xn, x), 1, len(xn) - 1)
    near = np.where(x - xn[j - 1] <= xn[j] - x, j - 1, j)
    hit = np.abs(x - xn[near]) <= 1e-15
    if np.any(hit):
        np.copyto(out, np.take_along_axis(fn, near, axis=0),
                  where=np.broadcast_to(hit, out.shape))
    return out


def _chebyshev_analysis(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix C with (C f)[k] the k-th Chebyshev coefficient of the degree
    n-1 interpolant of f at the n nodes x in [-1, 1] with barycentric
    weights b, read-only.

    The barycentric rows at the n Chebyshev points of the first kind, summed
    by their discrete cosine orthogonality, give C's first guess; one
    Newton-Schulz step C + C (I - V C) on the Chebyshev-Vandermonde matrix
    V of the nodes takes the interpolant's error from about n eps to eps,
    as V's LAPACK inverse has it, by matrix products alone: a first LAPACK
    call maps about 0.45 MB of library pages into the branch pass, which
    makes none otherwise."""
    n = len(x)
    theta = np.pi * (np.arange(n) + 0.5) / n
    t = np.cos(theta)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = b / (t - x)
        rows /= np.sum(rows, axis=1, keepdims=True)
    rows = snap_to_nodes(x, np.eye(n), t, rows)
    C = (2.0 / n) * np.cos(np.outer(np.arange(n), theta)) @ rows
    C[0] /= 2.0
    C += C @ (np.eye(n) - chebvander(x, n - 1) @ C)
    C.flags.writeable = False
    return C


@lru_cache(maxsize=64)
def lobatto_to_chebyshev(n: int) -> np.ndarray:
    """`_chebyshev_analysis` of the n-point Lobatto rule, read-only and
    shared by every n-node panel like `lobatto_bary_weights`."""
    return _chebyshev_analysis(lobatto_rule(n)[0],
                               lobatto_bary_weights(n))


@lru_cache(maxsize=64)
def gauss_to_chebyshev(n: int) -> np.ndarray:
    """`_chebyshev_analysis` of the n-point Gauss rule, read-only and
    shared by every `ZGrid(n)`."""
    return _chebyshev_analysis(gauss_rule(n)[0], gauss_bary_weights(n))


def _chebval_into(x: np.ndarray, c: np.ndarray,
                  work: np.ndarray) -> np.ndarray:
    """The Chebyshev series c at the points x by Clenshaw's recurrence, in
    the operations and order of numpy's `chebval`, so its bits are
    chebval's: three array operations per term and no division.  c of
    shape (n,) is one series; c of shape (n, ncol) holds one series per
    column of the result, chebval's `tensor=False`, with x of shape
    (k, ncol) or (k, 1).  The recurrence runs in the four rows of work
    (shape (4, k, ncol), or (4,) + x.shape for one series) and allocates
    nothing; the returned sum is one of those rows, valid until work is
    reused."""
    c0, c1, nxt, x2 = work
    if len(c) > 2:
        np.multiply(x, 2, out=x2)
        c0[...], c1[...] = c[-2], c[-1]
        for i in range(3, len(c) + 1):
            np.subtract(c[-i], c1, out=nxt)            # the next c0
            np.multiply(c1, x2, out=c1)
            np.add(c0, c1, out=c1)                     # the next c1
            c0, nxt = nxt, c0
    else:
        c0[...], c1[...] = (c[0], c[1]) if len(c) == 2 else (c[0], 0.0)
    np.multiply(c1, x, out=c1)
    return np.add(c0, c1, out=c1)
