import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from annulus_rotor.config import AnnulusConfig, RunConfig
from annulus_rotor.errors import ConfigError, OutOfDomainError
from annulus_rotor.mollifier import Mollifier, default_mollifier
from annulus_rotor.profile import TrapezoidProfile
from annulus_rotor.quadrature import mapped_rule

from desk import DESK_CFG as CFG


def make_profile(eps=1e-2, kappa=0.1):
    return TrapezoidProfile(CFG, eps, kappa)


def test_mollifier_normalized_and_supported():
    moll = default_mollifier()
    x, w = mapped_rule(-1.0, 1.0, 200)
    assert abs(np.dot(w, moll.value(x)) - 1.0) < 1e-12
    assert np.all(moll.value(np.array([-1.0, 1.0, -1.5, 2.0])) == 0.0)
    assert np.all(moll.value(x) >= 0.0)


def test_mollifier_cdf_matches_brute_force():
    moll = default_mollifier()
    for xq in (-0.73, -0.2, 0.11, 0.64, 0.999):
        x, w = mapped_rule(-1.0, xq, 400)
        brute = np.dot(w, moll.value(x))
        assert abs(moll.cdf(xq) - brute) < 1e-13
    # saturated arguments take the closed forms exactly
    sat = moll.cdf(np.array([-3.0, -1.0, 1.0, 3.0]))
    assert sat.tolist() == [0.0, 0.0, 1.0, 1.0]
    # ... with no bump evaluation: one Gauss rule, for the inner point only
    spy = Mollifier()
    sizes = []
    spy.value = lambda u: sizes.append(np.size(u)) or Mollifier.value(spy, u)
    spy.cdf(np.array([-3.0, -1.0, 0.2, 1.0, 3.0]))
    assert sizes == [len(spy._gw)]


def nested_cdf2(moll, x):
    """Reference: cdf2 as first written, a panel Gauss rule over the Gauss
    rule of the CDF (16 x 16 evaluations per point), plus the linear
    continuation beyond 1."""
    edges, gx, gw = moll.edges, moll._gx, moll._gw
    a, b = edges[:-1], edges[1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    pts = mid[:, None] + half[:, None] * gx
    table = np.concatenate(([0.0], np.cumsum(half * (moll.cdf(pts) @ gw))))
    xc = np.clip(x, -1.0, 1.0)
    idx = np.clip(np.searchsorted(edges, xc, side="right") - 1,
                  0, len(edges) - 2)
    lo = edges[idx]
    h = 0.5 * (xc - lo)
    pts = (lo + h)[:, None] + h[:, None] * gx
    return table[idx] + h * (moll.cdf(pts) @ gw) + np.where(x > 1.0, x - 1.0,
                                                            0.0)


def test_mollifier_cdf2_matches_nested_quadrature():
    moll = default_mollifier()
    x = np.concatenate([np.linspace(-1.5, 3.0, 4501),
                        [-1.0, 1.0, np.nextafter(-1.0, 0.0),
                         np.nextafter(1.0, 0.0)], moll.edges])
    assert np.max(np.abs(moll.cdf2(x) - nested_cdf2(moll, x))) <= 1e-15
    # closed forms at saturated arguments
    assert np.all(moll.cdf2(np.array([-3.0, -1.0])) == 0.0)
    assert moll.cdf2(2.5) == moll.cdf2(1.0) + 1.5


def test_edge_boundary_values():
    p = make_profile()
    assert abs(p.edge(-1.0) - 1.0) < 1e-13
    assert abs(p.edge(1.0)) < 1e-13
    assert abs(p.edge_prime(-1.0)) < 1e-15
    assert abs(p.edge_prime(1.0)) < 1e-15


def test_edge_strictly_decreasing_inside():
    p = make_profile()
    # strict negativity away from the endpoints (the tail underflows to -0.0
    # within ~kappa/50 of the endpoints, where it is analytically ~1e-22)
    z = np.linspace(-0.985, 0.985, 401)
    assert np.all(p.edge_prime(z) < 0.0)
    zfull = np.linspace(-1.0, 1.0, 801)
    assert np.all(p.edge_prime(zfull) <= 0.0)
    mid = p.edge(0.0)
    assert 0.0 < mid < 1.0


def test_edge_prime_l1_distance_linear_in_kappa():
    # brute-force quadrature of ||edge' + 1/2||_L1 over a kappa sweep
    x, w = mapped_rule(-1.0, 1.0, 600)
    l1 = []
    for kappa in (0.2, 0.1, 0.05):
        p = make_profile(kappa=kappa)
        l1.append(np.dot(w, np.abs(p.edge_prime(x) + 0.5)))
    assert l1[0] > l1[1] > l1[2]
    for a, b in zip(l1[:-1], l1[1:]):
        assert 1.4 < a / b < 2.9   # halving kappa roughly halves the L1 gap


def test_edge_prime_matches_fd_of_edge():
    p = make_profile()
    z = np.linspace(-0.95, 0.95, 41)
    h = 1e-6
    fd = (p.edge(z + h) - p.edge(z - h)) / (2 * h)
    assert np.max(np.abs(fd - p.edge_prime(z))) < 1e-8


def test_edge_second_matches_fd_of_edge_prime():
    p = make_profile()
    z = np.linspace(-0.95, 0.95, 41)
    h = 1e-6
    fd = (p.edge_prime(z + h) - p.edge_prime(z - h)) / (2 * h)
    assert np.max(np.abs(fd - p.edge_second(z))) < 1e-7


def test_value_piecewise():
    p = make_profile()
    e, R1, R2 = p.eps, CFG.R1, CFG.R2
    assert p.value((R1 + R2) / 2.0) == e
    assert p.value(CFG.r1) == 0.0
    assert p.value(CFG.r2) == 0.0
    assert abs(p.value(R1) - e * p.edge(0.0)) < 1e-15
    assert abs(p.value(R2) - e * p.edge(0.0)) < 1e-15


def test_derivative_supported_exactly_on_bands():
    p = make_profile()
    e, R1, R2 = p.eps, CFG.R1, CFG.R2
    r_out = np.array([CFG.r1, R1 - 2 * e, (R1 + R2) / 2, R2 + 2 * e, CFG.r2])
    assert np.all(p.derivative(r_out) == 0.0)
    z = np.linspace(-0.99, 0.99, 101)
    assert np.all(p.derivative(R1 + e * z) >= 0.0)
    assert np.all(p.derivative(R2 + e * z) <= 0.0)


def test_derivative_matches_centered_fd():
    # O(h^2) oracle at h=1e-5; run on a wide band (eps=0.1) so the third
    # derivative ~ 1/(eps^2 kappa) does not drown the FD truncation budget
    p = make_profile(eps=0.1)
    h = 1e-5
    z = np.linspace(-0.9, 0.9, 37)
    for rs in (CFG.R1 + p.eps * z, CFG.R2 + p.eps * z):
        fd = (p.value(rs + h) - p.value(rs - h)) / (2 * h)
        d = p.derivative(rs)
        rel = np.max(np.abs(fd - d)) / np.max(np.abs(d))
        assert rel < 1e-6


def test_rescaling_identities():
    # derivative(R1 + eps z) = -edge'(-z); derivative(R2 + eps z) = +edge'(z)
    p = make_profile()
    z = np.linspace(-1.0, 1.0, 101)
    np.testing.assert_allclose(p.derivative(CFG.R1 + p.eps * z),
                               -p.edge_prime(-z), atol=1e-14)
    np.testing.assert_allclose(p.derivative(CFG.R2 + p.eps * z),
                               p.edge_prime(z), atol=1e-14)


def test_weights_nonnegative():
    p = make_profile()
    z = np.linspace(-1.0, 1.0, 301)
    assert np.all(p.weight_inner(z) >= 0.0)
    assert np.all(p.weight_outer(z) >= 0.0)


@settings(max_examples=25, deadline=None)
@given(z=st.floats(min_value=-1.0, max_value=1.0),
       kappa=st.floats(min_value=0.03, max_value=0.45))
def test_edge_in_unit_range(z, kappa):
    p = make_profile(kappa=kappa)
    val = float(p.edge(z))
    assert -1e-12 <= val <= 1.0 + 1e-12


def test_out_of_domain_raises():
    p = make_profile()
    with pytest.raises(OutOfDomainError):
        p.edge(1.5)
    with pytest.raises(OutOfDomainError):
        p.value(0.5)


def test_profile_and_run_config_share_the_annulus_eps_bound():
    cfg = AnnulusConfig(r1=1.0, r2=2.0, R1=1.3, R2=1.9, A=0.0, B=0.15)
    assert cfg.eps_max == min(1.3 - 1.0, (1.9 - 1.3) / 2.0, 2.0 - 1.9)
    below = 0.999 * cfg.eps_max
    assert TrapezoidProfile(cfg, below, 0.1).eps == below
    assert RunConfig(annulus=cfg, eps=below).eps == below
    with pytest.raises(OutOfDomainError):
        TrapezoidProfile(cfg, cfg.eps_max, 0.1)
    with pytest.raises(ConfigError):
        RunConfig(annulus=cfg, eps=cfg.eps_max)


def test_tabulate_shape():
    p = make_profile()
    table = p.tabulate(512)
    assert table.shape == (512, 3)
    assert abs(table[0, 1] - 1.0) < 1e-12 and abs(table[-1, 1]) < 1e-12
