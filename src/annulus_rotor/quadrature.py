"""Gauss and Lobatto panel rules and the one panel grid the package
collocates on: the band variable z (`ZGrid`, one Gauss panel on [-1, 1])
and the radius r (`poisson.RadialGrid`, Lobatto panels).  Every matrix of
an n-node panel comes from one reference panel on [-1, 1], built once per
(rule, n) (`_reference_panel`): the indefinite integration weights, through
Legendre series; the barycentric weights (Berrut & Trefethen, SIAM Rev. 46
(2004)) and the differentiation matrix built from them; and the Chebyshev
analysis by which a grid reads its nodal data between the nodes, summed by
Clenshaw's recurrence (MTAC 9 (1955)), as F reads the band displacement
and the stream function."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial.chebyshev import chebvander
from numpy.polynomial.legendre import Legendre, leggauss, legvander

from .errors import NumericsError


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


def snap_to_nodes(xn: np.ndarray, fn: np.ndarray, x: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """out, an interpolant of the nodal columns fn (n, ncol) on the sorted
    nodes xn at the points x of shape (k, 1), shared by every column, or
    (k, ncol), one column each, with every point within 1e-15 of a node
    given the node's value."""
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


class _ReferencePanel:
    """The n-point Gauss or Lobatto rule on [-1, 1] and the matrices that
    every n-node panel maps from.  One per (rule, n) serves every grid
    (`_reference_panel`), so all are read-only; the indefinite weights are
    built at once, the rest when first read."""

    def __init__(self, rule: str, n: int):
        if rule not in ("gauss", "lobatto"):
            raise ValueError(f"rule must be gauss or lobatto; got {rule!r}")
        self.rule = rule
        self.x, self.w = (gauss_rule if rule == "gauss" else lobatto_rule)(n)
        # w_left[j, i] = integral of the i-th Lagrange cardinal on [-1, x_j],
        # through the cardinals' Legendre series, so w_left @ f is the exact
        # integral of f's degree n-1 interpolant from -1 to x_j
        self.w_left = _legendre_integrals(self.x) \
            @ _legendre_analysis(self.x, self.w)
        self.w_left.flags.writeable = False

    @cached_property
    def bary(self) -> np.ndarray:
        """Barycentric weights (-1)^j sqrt(v_j), with v_j = w_j at Lobatto
        and (1 - x_j^2) w_j at Gauss nodes.  An affine map scales all
        weights by one factor, which the barycentric formulas cancel."""
        v = self.w if self.rule == "lobatto" else (1.0 - self.x ** 2) * self.w
        b = (-1.0) ** np.arange(len(v)) * np.sqrt(v)
        b.flags.writeable = False
        return b

    @cached_property
    def diff(self) -> np.ndarray:
        """f -> f' at the nodes."""
        D = bary_diff_matrix(self.x, self.bary)
        D.flags.writeable = False
        return D

    @cached_property
    def to_chebyshev(self) -> np.ndarray:
        """f at the nodes -> the Chebyshev coefficients of its interpolant."""
        return _chebyshev_analysis(self.x, self.bary)


_reference_panel = lru_cache(maxsize=64)(_ReferencePanel)


@dataclass(frozen=True, eq=False)
class PanelGrid:
    """Collocation grid of panels on [edges[0], edges[-1]]: panel p carries
    the nodes_per_panel[p]-point rule ('gauss' or 'lobatto') mapped from
    its reference panel.  Adjacent Lobatto panels share their common edge
    node; a Gauss grid, whose nodes miss the panel edges, is one panel.
    `ZGrid` and `poisson.RadialGrid` construct the two cases.

    Grids hash and compare by identity, so a grid can key a memo."""

    edges: np.ndarray
    nodes_per_panel: tuple
    rule: str
    nodes: np.ndarray = field(init=False, repr=False)
    w: np.ndarray = field(init=False, repr=False)
    panel_slices: list = field(init=False, repr=False)
    _panel_wleft: list = field(init=False, repr=False)  # int_{a}^{x_j}

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        if len(self.nodes_per_panel) != len(edges) - 1:
            raise ValueError("need one node count per panel")
        if self.rule == "gauss" and len(edges) != 2:
            raise ValueError("a Gauss grid is one panel")
        counts = [int(n) for n in self.nodes_per_panel]
        total = sum(counts) - (len(counts) - 1)      # shared panel endpoints
        nodes, w = np.empty(total), np.zeros(total)
        slices, wleft = [], []
        start = 0
        for a, b, n in zip(edges[:-1], edges[1:], counts):
            ref = _reference_panel(self.rule, n)
            half = 0.5 * (b - a)
            idx = np.arange(start, start + n)
            slices.append(idx)
            # a panel on the reference interval takes the reference panel's
            # own arrays (x + 1 - 1 would round the nodes)
            same = (a, b) == (-1.0, 1.0)
            nodes[idx] = ref.x if same else a + half * (ref.x + 1.0)
            wleft.append(ref.w_left if same else ref.w_left * half)
            w[idx] += half * ref.w                   # shared node accumulates
            start += n - 1
        if not np.all(np.diff(nodes) > 0):
            raise NumericsError("grid nodes are not strictly increasing")
        for name, value in (("edges", edges), ("nodes", nodes), ("w", w),
                            ("panel_slices", slices), ("_panel_wleft", wleft)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return len(self.nodes)

    def integrate(self, fvals: np.ndarray) -> float:
        return float(np.dot(self.w, fvals))

    def cumulative(self, fvals: np.ndarray) -> np.ndarray:
        """Values of int_{edges[0]}^{x_j} f at the nodes (spectral)."""
        out = np.empty_like(fvals, dtype=np.result_type(fvals, float))
        offset = 0.0
        for idx, wl in zip(self.panel_slices, self._panel_wleft):
            out[idx] = offset + wl @ fvals[idx]
            offset = out[idx][-1]      # wl[-1] integrates to the panel edge
        return out

    measure = 1.0      # dx/dxi of the coordinate `partials` integrates in

    def partials(self, A: np.ndarray, B: np.ndarray, work=None) -> None:
        """Overwrite A with its partial integrals int_{edges[0]}^{x_j} and B
        with int_{x_j}^{edges[-1]}, along axis 0, each node re-anchored
        through its panel's indefinite weights, so an integrand's kink at a
        node never crosses a quadrature interval.  The sums run in A and B
        themselves; work, the scratch another grid's sums take, is
        unused."""
        # panel totals once, then per-node partials via the W matrices
        totals_A = np.array([wl[-1] @ A[idx] for idx, wl
                             in zip(self.panel_slices, self._panel_wleft)])
        totals_B = np.array([wl[-1] @ B[idx] for idx, wl
                             in zip(self.panel_slices, self._panel_wleft)])
        zero = np.zeros_like(totals_A[:1])
        pref_A = np.concatenate((zero, np.cumsum(totals_A, axis=0)))
        suff_B = np.concatenate((np.cumsum(totals_B[::-1], axis=0)[::-1],
                                 zero))
        # a panel's last node is the next panel's first, which that panel
        # still reads and then writes, so every panel but the last leaves
        # its last node alone (the value separate output arrays would keep)
        last = len(self.panel_slices) - 1
        for p, (idx, wl) in enumerate(zip(self.panel_slices,
                                          self._panel_wleft)):
            part_A = pref_A[p] + wl @ A[idx]
            part_B = suff_B[p + 1] + (totals_B[p] - wl @ B[idx])
            keep = idx if p == last else idx[:-1]
            A[keep] = part_A[:len(keep)]
            B[keep] = part_B[:len(keep)]

    def derivative(self, fvals: np.ndarray) -> np.ndarray:
        """Spectral derivative at the nodes: per panel, the reference
        panel's matrix scaled by 1/half; averaged at shared nodes."""
        fvals = np.asarray(fvals, dtype=float)
        out = np.zeros(fvals.shape)
        for a, b, idx in zip(self.edges[:-1], self.edges[1:],
                             self.panel_slices):
            D = _reference_panel(self.rule, len(idx)).diff
            out[idx] += (D @ fvals[idx]) / (0.5 * (b - a))
        out[[idx[0] for idx in self.panel_slices[1:]]] /= 2.0
        return out

    def interpolate(self, fvals: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Interpolation of nodal data at points x (spectral per panel).

        With fvals of shape (n, ncol) and x of shape (k, ncol), column j is
        read at its own points x[:, j]; otherwise every column of fvals is
        read at the points x, giving shape x.shape + fvals.shape[1:].  Both
        take one path: a panel's nodal values become Chebyshev coefficients
        (its reference panel's `to_chebyshev`), which `_chebval_into` sums
        at t = (x - mid) / half, clipped to [-1, 1] (a point clipped there
        lies in another panel, whose read it takes); a point within 1e-15
        of a node takes the node's value.  On F's two bands at n_theta 128
        the read takes 2.7-3.0 ms and errs by 2.0e-15 on sin(7 r)
        cos(3 theta) + log r.
        """
        fvals = np.asarray(fvals)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        per_column = x.ndim == 2 and fvals.ndim == 2
        if per_column and x.shape[1] != fvals.shape[1]:
            raise ValueError(f"per-column points of shape {x.shape} do not "
                             f"match nodal data of shape {fvals.shape}")
        cols = fvals.reshape(self.n, -1)
        pts = x if per_column else x.reshape(-1, 1)
        out = np.empty((len(pts), cols.shape[1]),
                       dtype=np.result_type(cols, float))
        panel_of = np.clip(np.searchsorted(self.edges, pts, side="right") - 1,
                           0, len(self.panel_slices) - 1)
        for p, idx in enumerate(self.panel_slices):
            sel = panel_of == p
            rows = np.flatnonzero(sel.any(axis=1))
            if not len(rows):
                continue
            a, b = self.edges[p], self.edges[p + 1]
            nodal, at = cols[idx], pts[rows]
            t = np.subtract(at, 0.5 * (a + b))
            np.divide(t, 0.5 * (b - a), out=t)
            np.clip(t, -1.0, 1.0, out=t)
            coef = _reference_panel(self.rule, len(idx)).to_chebyshev @ nodal
            work = np.empty((4, len(rows), cols.shape[1]), dtype=out.dtype)
            vals = snap_to_nodes(self.nodes[idx], nodal, at,
                                 _chebval_into(t, coef, work))
            out[rows] = np.where(sel[rows], vals, out[rows])
        return out if per_column else out.reshape(x.shape + fvals.shape[1:])


@dataclass(frozen=True, eq=False, init=False)
class ZGrid(PanelGrid):
    """Gauss-Legendre collocation grid on [-1, 1] for the band operators:
    one n-node Gauss panel on the reference interval, whose matrices are
    its reference panel's."""

    def __init__(self, n: int = 96):
        super().__init__(np.array([-1.0, 1.0]), (n,), "gauss")
        ref, wl = _reference_panel("gauss", n), self._panel_wleft[0]
        # barycentric rows at z = -1, 1, where no Gauss node lies, each
        # summed node by node (the barycentric formula's order)
        rows = ref.bary / (np.array([[-1.0], [1.0]]) - ref.x)
        rows /= np.cumsum(rows, axis=1)[:, -1:]
        for name, value in (("z", self.nodes),
                            ("w_left", wl),                 # int_{-1}^{z_j}
                            ("w_right", self.w[None, :] - wl),  # int_{z_j}^1
                            ("diff", ref.diff),        # f -> f' at the nodes
                            ("ends", rows)):           # f -> f(-1), f(1)
            object.__setattr__(self, name, value)

    @property
    def to_chebyshev(self) -> np.ndarray:
        """Matrix taking f at the nodes to the Chebyshev coefficients of its
        interpolant, shared by every n-node grid."""
        return _reference_panel("gauss", self.n).to_chebyshev
