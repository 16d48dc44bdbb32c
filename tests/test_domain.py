import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from annulus_rotor.config import AnnulusConfig
from annulus_rotor.domain import N_GAUSS, BaseStream, circulation, lambda0
from annulus_rotor.errors import ConfigError, OutOfDomainError
from annulus_rotor.profile import TrapezoidProfile
from annulus_rotor.quadrature import mapped_rule

from axisymmetric import u_tc
from desk import DESK_CFG as CFG


def test_u_tc_values():
    cfg = AnnulusConfig(r1=0.5, r2=3.0, R1=1.0, R2=2.0, A=2.0, B=1e-12)
    assert abs(u_tc(cfg, 1.0) - (2.0 + 1e-12)) < 1e-14
    cfg = AnnulusConfig(r1=0.5, r2=3.0, R1=1.0, R2=2.0, A=0.0, B=1.0)
    assert abs(u_tc(cfg, 2.0) - 0.5) < 1e-15
    cfg = AnnulusConfig(r1=0.5, r2=3.0, R1=0.9, R2=2.0, A=1.0, B=1.0)
    assert abs(u_tc(cfg, 1.0) - 2.0) < 1e-15


def test_u_tc_domain_error():
    with pytest.raises(OutOfDomainError):
        u_tc(CFG, 0.5)


def test_circulation_values():
    cfg = AnnulusConfig(r1=1.0, r2=2.0, R1=1.2, R2=1.5, A=0.0, B=1.0)
    assert abs(circulation(cfg) + np.log(2.0)) < 1e-12
    cfg = AnnulusConfig(r1=1.0, r2=2.0, R1=1.2, R2=1.5, A=1.0, B=1e-14)
    assert abs(circulation(cfg) + 1.5) < 1e-12


def test_circulation_odd_in_AB():
    rng = np.random.default_rng(3)
    for _ in range(20):
        A = rng.uniform(-2, 2)
        B = rng.uniform(0.1, 2) * rng.choice([-1.0, 1.0])
        try:
            cfg = AnnulusConfig(1.0, 2.0, 1.2, 1.5, A, B)
            neg = AnnulusConfig(1.0, 2.0, 1.2, 1.5, -A, -B)
        except ConfigError:
            continue
        assert abs(circulation(cfg) + circulation(neg)) < 1e-13


def _random_config(rng):
    while True:
        r1 = rng.uniform(0.3, 1.5)
        r2 = r1 + rng.uniform(0.5, 2.5)
        R1 = rng.uniform(r1 + 0.05, r1 + 0.6 * (r2 - r1))
        R2 = rng.uniform(R1 + 0.05, r2 - 0.05)
        A = rng.uniform(-2.0, 2.0)
        B = rng.uniform(0.05, 2.0) * rng.choice([-1.0, 1.0])
        try:
            return AnnulusConfig(r1, r2, R1, R2, A, B)
        except ConfigError:
            continue


def test_lambda0_identity_100_random_configs():
    rng = np.random.default_rng(0)
    for _ in range(100):
        cfg = _random_config(rng)
        lam = lambda0(cfg)
        ref = u_tc(cfg, cfg.R2) / cfg.R2
        assert abs(lam - ref) <= 1e-13 * max(abs(ref), 1e-30)


def test_lambda0_closed_values():
    cfg = AnnulusConfig(r1=1.0, r2=2.0, R1=1.2, R2=1.5, A=0.0, B=1.0)
    assert abs(lambda0(cfg) - 1.0 / 1.5 ** 2) < 1e-13
    cfg = AnnulusConfig(r1=0.5, r2=2.0, R1=0.8, R2=1.0, A=1.0, B=1.0)
    assert abs(lambda0(cfg) - 2.0) < 1e-12


def test_config_invariants_rejected():
    with pytest.raises(ConfigError):
        AnnulusConfig(1.0, 2.0, 1.5, 1.2, 0.0, 1.0)   # R1 > R2
    with pytest.raises(ConfigError):
        AnnulusConfig(1.0, 2.0, 1.2, 1.5, 0.0, 0.0)   # B = 0
    with pytest.raises(ConfigError):
        # u(R1) == u(R2): A R1 + B/R1 = A R2 + B/R2 iff A = B/(R1 R2)
        AnnulusConfig(1.0, 2.0, 1.2, 1.5, 1.0 / 1.8, 1.0)


def test_base_stream_recovers_taylor_couette_at_zero_profile():
    # with the profile removed entirely the swirl is the pure base flow
    for A, B in ((0.0, 0.25), (0.7, -0.4), (1.0, 1.0)):
        try:
            cfg = AnnulusConfig(1.0, 2.0, 1.2, 1.5, A, B)
        except ConfigError:
            continue
        bs = BaseStream(cfg, None)
        r = np.linspace(1.0, 2.0, 33)
        np.testing.assert_allclose(-bs.phi_prime(r), u_tc(cfg, r),
                                   rtol=1e-10, atol=1e-10)


def test_base_stream_boundary_values():
    prof = TrapezoidProfile(CFG, eps=1e-2, kappa=0.1)
    phi = BaseStream(CFG, prof).phi(np.array([CFG.r1, CFG.r2]))
    assert abs(phi[0]) < 1e-12
    assert abs(phi[1] - circulation(CFG)) < 1e-10


def test_phi_prime_matches_fd_of_phi():
    prof = TrapezoidProfile(CFG, eps=1e-2, kappa=0.1)
    bs = BaseStream(CFG, prof)
    rs = np.array([1.1, 1.2, 1.35, 1.5, 1.7, 1.95])
    h = 1e-6
    fd = (bs.phi(rs + h) - bs.phi(rs - h)) / (2 * h)
    np.testing.assert_allclose(fd, bs.phi_prime(rs), rtol=2e-9, atol=2e-9)


def _band_mass_reference(prof, center, sign, z_to):
    """eps^2 int_{-1}^{z_to} (center + eps t) edge(sign t) dt, one point."""
    e = prof.eps
    x, w = mapped_rule(-1.0, z_to, N_GAUSS)
    return e * e * float(np.dot(w, (center + e * x) * prof.edge(sign * x)))


def _moment_reference(prof, r):
    """V(r), one Gauss rule and one edge evaluation per radius."""
    e, R1, R2 = prof.eps, prof.cfg.R1, prof.cfg.R2
    full1 = _band_mass_reference(prof, R1, -1, 1.0)
    full2 = _band_mass_reference(prof, R2, +1, 1.0)
    plateau_at = lambda rr: full1 + e * (rr ** 2 - (R1 + e) ** 2) / 2.0
    out = np.zeros_like(r)
    for i, ri in enumerate(r):
        if ri <= R1 - e:
            out[i] = 0.0
        elif ri <= R1 + e:
            out[i] = _band_mass_reference(prof, R1, -1, (ri - R1) / e)
        elif ri <= R2 - e:
            out[i] = plateau_at(ri)
        elif ri <= R2 + e:
            out[i] = plateau_at(R2 - e) + _band_mass_reference(
                prof, R2, +1, (ri - R2) / e)
        else:
            out[i] = plateau_at(R2 - e) + full2
    return out


def test_moment_matches_per_point_reference():
    prof = TrapezoidProfile(CFG, eps=1e-2, kappa=0.1)
    e, R1, R2 = prof.eps, CFG.R1, CFG.R2
    edges = np.array([R1 - e, R1 + e, R2 - e, R2 + e])
    r = np.concatenate([np.linspace(CFG.r1, CFG.r2, 76),
                        R1 + e * np.linspace(-1.0, 1.0, 60),
                        R2 + e * np.linspace(-1.0, 1.0, 60), edges])
    assert len(r) == 200
    # every region holds radii, and every band edge is one of them
    regions = np.digitize(r, edges, right=True)
    assert set(regions) == {0, 1, 2, 3, 4}
    assert all(np.any(r == edge) for edge in edges)
    np.testing.assert_allclose(BaseStream(CFG, prof).moment(r),
                               _moment_reference(prof, r), rtol=1e-14, atol=0)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=-1.5, max_value=1.5),
       st.floats(min_value=0.05, max_value=1.5))
def test_lambda0_identity_property(A, B):
    try:
        cfg = AnnulusConfig(1.0, 2.0, 1.2, 1.5, A, B)
    except ConfigError:
        return
    assert abs(lambda0(cfg) - u_tc(cfg, cfg.R2) / cfg.R2) \
        <= 1e-13 * max(abs(lambda0(cfg)), 1e-30)
