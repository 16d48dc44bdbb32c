import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss, legvander
from hypothesis import given, settings, strategies as st

from annulus_rotor import quadrature
from annulus_rotor.poisson import RadialGrid
from annulus_rotor.quadrature import (ZGrid, _reference_panel, gauss_rule,
                                      geometric_edges, lobatto_rule,
                                      mapped_rule)
from barycentric import bary_interp
from desk import DESK_CFG, DESK_EPS


def test_gauss_rule_exactness():
    x, w = gauss_rule(8)
    for k in range(0, 16):            # exact through degree 2n-1
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.dot(w, x ** k) - exact) < 1e-13


def test_lobatto_includes_endpoints_positive_weights():
    x, w = lobatto_rule(12)
    assert x[0] == -1.0 and x[-1] == 1.0
    assert np.all(w > 0)
    assert abs(np.sum(w) - 2.0) < 1e-13
    for k in range(0, 22):            # exact through degree 2n-3
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.dot(w, x ** k) - exact) < 1e-12


def test_indefinite_weights_exact_for_polynomials():
    ref = _reference_panel("gauss", 12)
    x, W = ref.x, ref.w_left
    for k in range(12):
        vals = W @ (x ** k)
        exact = (x ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
        assert np.max(np.abs(vals - exact)) < 1e-13


def test_zgrid_hashes_and_compares_by_identity():
    a, b = ZGrid(8), ZGrid(8)
    assert hash(a) == hash(a)
    assert a == a and a != b
    memo = {a: "a", b: "b"}
    assert memo[a] == "a" and memo[b] == "b"


def test_zgrid_ends_are_the_interpolants_edge_rows():
    for n in (8, 48, 96, 128):
        zg = ZGrid(n)
        rows = bary_interp(zg.z, np.eye(n), np.array([[-1.0], [1.0]]),
                           _reference_panel("gauss", n).bary)
        assert np.max(np.abs(zg.ends - rows)) <= 1e-15


def test_zgrid_left_right_split():
    zg = ZGrid(24)
    np.testing.assert_allclose(zg.w_left + zg.w_right,
                               np.tile(zg.w, (zg.n, 1)), atol=1e-14)
    assert abs(np.sum(zg.w) - 2.0) < 1e-13


@settings(max_examples=20, deadline=None)
@given(a=st.floats(-3, 1), width=st.floats(0.1, 4), n=st.integers(4, 40))
def test_geometric_edges_cover_interval(a, width, n):
    b = a + width
    for toward in ("left", "right"):
        e = geometric_edges(a, b, toward, n)
        assert e[0] == a and e[-1] == b
        assert np.all(np.diff(e) > 0)


def test_mapped_rule_integrates():
    x, w = mapped_rule(0.0, 3.0, 20)
    assert abs(np.dot(w, np.exp(-x)) - (1.0 - np.exp(-3.0))) < 1e-14


def test_lobatto_indefinite_weights_cached_read_only():
    W = _reference_panel("lobatto", 12).w_left
    assert _reference_panel("lobatto", 12).w_left is W
    assert np.array_equal(W, _legendre_w_left(*lobatto_rule(12)))
    assert not W.flags.writeable


def test_chebyshev_analysis_cached_read_only_and_exact():
    # each matrix inverts the nodes' Chebyshev-Vandermonde matrix to
    # rounding (measured: 1.3e-15 or less for n <= 128), and a ZGrid reads
    # the shared Gauss one
    from numpy.polynomial.chebyshev import chebvander
    for rule in ("lobatto", "gauss"):
        for n in (2, 7, 48, 96, 128):
            C = _reference_panel(rule, n).to_chebyshev
            assert _reference_panel(rule, n).to_chebyshev is C
            assert not C.flags.writeable
            V = chebvander(_reference_panel(rule, n).x, n - 1)
            assert np.max(np.abs(V @ C - np.eye(n))) <= 4e-15
    assert ZGrid(96).to_chebyshev is _reference_panel("gauss", 96).to_chebyshev


def test_panel_grid_refuses_an_unknown_rule_and_gauss_panels():
    with pytest.raises(ValueError, match="rule must be gauss or lobatto"):
        _reference_panel("radau", 8)
    with pytest.raises(ValueError, match="one panel"):
        quadrature.PanelGrid(np.array([-1.0, 0.0, 1.0]), (4, 4), "gauss")


# The grids' matrices as they were built before the one panel grid, kept as
# oracles: Legendre-built indefinite weights, barycentric weights, the
# barycentric derivative and edge rows on the Gauss z-grid, and the
# Lobatto panels mapped one by one.

def _legendre_w_left(z, w):
    n = len(z)
    coeff = legvander(z, n - 1).T * w
    coeff *= ((2 * np.arange(n) + 1) / 2.0)[:, None]
    Pz = legvander(z, n)
    I = np.empty((n, n))
    I[:, 0] = z + 1.0
    ks = np.arange(1, n)
    I[:, 1:] = (Pz[:, 2:n + 1] - Pz[:, 0:n - 1]) / (2 * ks + 1)
    return I @ coeff


def _gauss_bary_weights(z, w):
    return (-1.0) ** np.arange(len(z)) * np.sqrt((1.0 - z ** 2) * w)


def _bary_diff_matrix(x, b):
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    D = (b[None, :] / b[:, None]) / dx
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -np.sum(D, axis=1))
    return D


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [8, 24, 48, 64, 96, 128])
def test_zgrid_keeps_its_bits(n):
    z, w = leggauss(n)
    wl = _legendre_w_left(z, w)
    b = _gauss_bary_weights(z, w)
    rows = b / (np.array([[-1.0], [1.0]]) - z)
    zg = ZGrid(n)
    assert zg.n == n
    for got, want in ((zg.z, z), (zg.w, w), (zg.w_left, wl),
                      (zg.w_right, w[None, :] - wl),
                      (zg.diff, _bary_diff_matrix(z, b)),
                      (zg.ends, rows / np.cumsum(rows, axis=1)[:, -1:])):
        assert _same_bits(got, want)


@pytest.mark.parametrize("nodes", [(48, 96, 48, 96, 48),
                                   (64, 128, 64, 128, 64)])
def test_radial_grid_keeps_its_bits(nodes):
    grid = RadialGrid.for_profile(DESK_CFG, DESK_EPS, nodes)
    c, e = DESK_CFG, DESK_EPS
    edges = [c.r1, c.R1 - e, c.R1 + e, c.R2 - e, c.R2 + e, c.r2]
    r = np.empty(sum(nodes) - (len(nodes) - 1))
    w = np.zeros_like(r)
    start = 0
    for p, (a, b, npan) in enumerate(zip(edges[:-1], edges[1:], nodes)):
        x, wx = lobatto_rule(npan)
        half = 0.5 * (b - a)
        idx = np.arange(start, start + npan)
        r[idx] = a + half * (x + 1.0)
        w[idx] += half * wx
        assert _same_bits(grid.panel_slices[p], idx)
        assert _same_bits(grid._panel_wleft[p], _legendre_w_left(x, wx) * half)
        start += npan - 1
    assert _same_bits(grid.r, r) and _same_bits(grid.w, w)


def test_second_grid_builds_no_matrix(monkeypatch):
    # the grids' matrices are their reference panels', built once per
    # (rule, node count): a second grid with the same counts, read every
    # way, builds none
    def grids(eps):
        return ZGrid(17), RadialGrid.for_profile(DESK_CFG, eps,
                                                 (17, 33, 17, 33, 17))

    def read(grid):
        f = np.sin(3.0 * grid.nodes)
        grid.interpolate(f, np.linspace(grid.edges[0], grid.edges[-1], 7))
        return grid.derivative(f), grid.cumulative(f)

    for grid in grids(DESK_EPS):
        read(grid)
    zg = grids(DESK_EPS)[0]
    zg.diff, zg.ends, zg.to_chebyshev, zg.w_right
    built = []
    for name in ("_legendre_integrals", "_legendre_analysis",
                 "bary_diff_matrix", "_chebyshev_analysis"):
        fn = getattr(quadrature, name)
        monkeypatch.setattr(quadrature, name, lambda *a, fn=fn, name=name:
                            built.append(name) or fn(*a))
    misses = _reference_panel.cache_info().misses
    for grid in grids(2 * DESK_EPS):
        d, c = read(grid)
        np.testing.assert_allclose(d, 3.0 * np.cos(3.0 * grid.nodes),
                                   rtol=0, atol=1e-8)
        np.testing.assert_allclose(
            c, (np.cos(3.0 * grid.edges[0]) - np.cos(3.0 * grid.nodes)) / 3.0,
            rtol=0, atol=1e-12)
    assert _reference_panel.cache_info().misses == misses
    assert not built
