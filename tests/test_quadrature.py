import numpy as np
from hypothesis import given, settings, strategies as st

from annulus_rotor.quadrature import (ZGrid, bary_interp,
                                      gauss_bary_weights, gauss_rule,
                                      geometric_edges, indefinite_weights,
                                      lobatto_indefinite_weights,
                                      lobatto_rule, mapped_rule)


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
    x, w = gauss_rule(12)
    W = indefinite_weights(x, w)
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
                           gauss_bary_weights(n))
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
    W = lobatto_indefinite_weights(12)
    assert lobatto_indefinite_weights(12) is W
    assert np.array_equal(W, indefinite_weights(*lobatto_rule(12)))
    assert not W.flags.writeable


def test_chebyshev_analysis_cached_read_only_and_exact():
    # each matrix inverts the nodes' Chebyshev-Vandermonde matrix to
    # rounding (measured: 1.3e-15 or less for n <= 128), and a ZGrid reads
    # the shared Gauss one
    from numpy.polynomial.chebyshev import chebvander
    from annulus_rotor.quadrature import (gauss_to_chebyshev,
                                          lobatto_to_chebyshev)
    for build, rule in ((lobatto_to_chebyshev, lobatto_rule),
                        (gauss_to_chebyshev, gauss_rule)):
        for n in (2, 7, 48, 96, 128):
            C = build(n)
            assert build(n) is C
            assert not C.flags.writeable
            V = chebvander(rule(n)[0], n - 1)
            assert np.max(np.abs(V @ C - np.eye(n))) <= 4e-15
    assert ZGrid(96).to_chebyshev is gauss_to_chebyshev(96)
