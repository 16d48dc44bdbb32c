import numpy as np
import pytest

from annulus_rotor import kernel as kernel_mod
from annulus_rotor.config import AnnulusConfig
from annulus_rotor.errors import BracketError
from annulus_rotor.kernel import (KernelBuilder, adjoint_kernel, b0_and_a1,
                                  build_eigensolution,
                                  fixed_point_corrections, grid_lambda1,
                                  invert_q2hat, lambda1_closed_form,
                                  lambda_star, operator_residual,
                                  solve_lambda1, transversality,
                                  validate_kernel, _edge_breaks,
                                  _I_quadrature)
from annulus_rotor.linop import CoefficientSet, assemble, p_coeff
from annulus_rotor.profile import TrapezoidProfile
from annulus_rotor.quadrature import ZGrid, geometric_edges, mapped_rule

from conftest import DESK_CFG as CFG
M_MODE = 3


@pytest.fixture(scope="module")
def zg():
    return ZGrid(96)


@pytest.fixture(scope="module")
def coeffs():
    prof = TrapezoidProfile(CFG, 1e-2, 0.1)
    return CoefficientSet(CFG, prof)


@pytest.fixture(scope="module")
def eig(zg):
    prof = TrapezoidProfile(CFG, 1e-2, 0.1)
    return build_eigensolution(CFG, prof, M_MODE, zg)


def test_lambda_star_definition(coeffs, zg):
    # outer order-one coefficient vanishes at z=+1 when lam1 = lambda* (B>0)
    ls = lambda_star(coeffs)
    val = coeffs.alpha1(2, 1.0, ls)
    assert abs(val) < 1e-12
    # its z-slope is the constant 2B/R2, matching sign of B
    slope = (coeffs.alpha1(2, 1.0, ls) - coeffs.alpha1(2, -1.0, ls)) / 2.0
    assert abs(slope - 2.0 * CFG.B / CFG.R2) < 1e-12
    assert np.sign(slope) == np.sign(CFG.B)


def test_I_monotone_and_limit(coeffs):
    ls = lambda_star(coeffs)
    vals = [_I_quadrature(coeffs, M_MODE, ls - d)
            for d in (0.5, 0.2, 0.1, 0.05, 0.01)]
    assert all(a < b for a, b in zip(vals[:-1], vals[1:]))
    assert _I_quadrature(coeffs, M_MODE, ls - 1e3) < 0.01


def test_solve_lambda1_residual_and_range(coeffs):
    root = solve_lambda1(M_MODE, coeffs)
    assert abs(root["residual"]) <= 1e-10
    assert root["lam1"] < root["lambda_star"]
    # alpha1_out stays negative on the whole band
    z = np.linspace(-1, 1, 101)
    assert np.all(coeffs.alpha1(2, z, root["lam1"]) < 0.0)


def test_lambda1_bracket_failure_at_spec_default_B():
    # at B=1 the integral saturates below one: no root exists (ledger entry)
    cfg = AnnulusConfig(r1=1.0, r2=2.0, R1=1.2, R2=1.5, A=0.0, B=1.0)
    prof = TrapezoidProfile(cfg, 1e-2, 0.1)
    coeffs = CoefficientSet(cfg, prof)
    with pytest.raises(BracketError):
        solve_lambda1(1, coeffs)


def test_lambda1_closed_form_gap_linear_in_kappa():
    gaps = []
    for kappa in (0.2, 0.1, 0.05):
        prof = TrapezoidProfile(CFG, 1e-2, kappa)
        coeffs = CoefficientSet(CFG, prof)
        root = solve_lambda1(M_MODE, coeffs)
        gaps.append(abs(root["lam1"] - lambda1_closed_form(M_MODE, coeffs)))
    assert gaps[0] > gaps[1] > gaps[2]
    for a, b in zip(gaps[:-1], gaps[1:]):
        assert 1.6 <= a / b <= 2.6


def test_lambda1_negative_B_branch(zg):
    cfg = AnnulusConfig(r1=1.0, r2=2.0, R1=1.2, R2=1.5, A=0.0, B=-0.25)
    prof = TrapezoidProfile(cfg, 1e-2, 0.1)
    coeffs = CoefficientSet(cfg, prof)
    root = solve_lambda1(M_MODE, coeffs)
    assert abs(root["residual"]) <= 1e-10
    b0, a1 = b0_and_a1(M_MODE, root["lam1"], coeffs, zg)
    assert np.all(b0 < 0.0)


def test_b0_and_a1_identities(coeffs, zg):
    lam1 = grid_lambda1(M_MODE, coeffs, zg)
    b0, a1 = b0_and_a1(M_MODE, lam1, coeffs, zg)
    prof = coeffs.profile
    # the root equation restated: p2 <edge' b0> = 1
    contr = np.dot(zg.w, prof.edge_prime(zg.z) * b0)
    assert abs(p_coeff(2, M_MODE, CFG) * contr - 1.0) < 1e-9
    assert np.all(b0 < 0.0)           # B > 0 branch
    expected_a1 = (p_coeff(1, M_MODE, CFG) / p_coeff(2, M_MODE, CFG)) \
        / coeffs.alpha0(1)
    assert abs(a1 - expected_a1) < 1e-9 * abs(expected_a1)


def test_invert_q2hat_roundtrip(coeffs, zg):
    root = solve_lambda1(M_MODE, coeffs)
    lam1 = root["lam1"]
    b0, _ = b0_and_a1(M_MODE, lam1, coeffs, zg)
    prof = coeffs.profile
    ep = prof.edge_prime(zg.z)
    beta = coeffs.beta_quad(zg.z, lam1)
    rng = np.random.default_rng(11)

    def qhat(g, mu):
        alpha1 = coeffs.alpha1(2, zg.z, lam1)
        return alpha1 * g + (mu * CFG.R2 ** 2 + beta) * b0 \
            - p_coeff(2, M_MODE, CFG) * np.dot(zg.w, ep * g)

    # G = beta*b0 (the quadratic source): projection numerator vanishes,
    # mu = 0, and g = 0 solves exactly
    g, mu = invert_q2hat(beta * b0, M_MODE, lam1, coeffs, b0, zg)
    assert abs(mu) < 1e-12
    np.testing.assert_allclose(qhat(g, mu), beta * b0, atol=1e-9)
    # G = 0: g = -(mu R2^2 + beta) b0^2
    g, mu = invert_q2hat(np.zeros(zg.n), M_MODE, lam1, coeffs, b0, zg)
    np.testing.assert_allclose(g, -(mu * CFG.R2 ** 2 + beta) * b0 ** 2,
                               atol=1e-12)
    np.testing.assert_allclose(qhat(g, mu), np.zeros(zg.n), atol=1e-9)
    # random G round-trips
    for _ in range(3):
        G = rng.standard_normal(zg.n)
        g, mu = invert_q2hat(G, M_MODE, lam1, coeffs, b0, zg)
        np.testing.assert_allclose(qhat(g, mu), G, atol=1e-9)


def test_reduced_inversion_orthogonal_source(coeffs, zg):
    # for F with <F b0 edge'> = 0, g = F b0 solves the reduced equation
    root = solve_lambda1(M_MODE, coeffs)
    lam1 = root["lam1"]
    b0, _ = b0_and_a1(M_MODE, lam1, coeffs, zg)
    prof = coeffs.profile
    ep = prof.edge_prime(zg.z)
    rng = np.random.default_rng(2)
    F = rng.standard_normal(zg.n)
    F -= b0 * np.dot(zg.w, F * b0 * ep) / np.dot(zg.w, b0 ** 2 * ep)
    assert abs(np.dot(zg.w, F * b0 * ep)) < 1e-12
    g = F * b0
    alpha1 = coeffs.alpha1(2, zg.z, lam1)
    lhs = alpha1 * g - p_coeff(2, M_MODE, CFG) * np.dot(zg.w, ep * g)
    np.testing.assert_allclose(lhs, F, atol=1e-10)


def test_delta_remainders_match_difference_quotients(coeffs, zg):
    # (1/eps) int_0^eps dT1 == (T1_eps - T1_0)/eps exactly (both computed
    # with the same grid quadrature); same for the order-one outer term
    prof = coeffs.profile
    builder = KernelBuilder(CFG, prof, M_MODE, zg, coeffs)
    root = solve_lambda1(M_MODE, coeffs)
    b0, _ = b0_and_a1(M_MODE, root["lam1"], coeffs, zg)
    eps = prof.eps
    m = M_MODE
    z, w = zg.z, zg.w
    ep_plus = prof.edge_prime(z)
    Sf = builder.kern.S_full

    def T1_coupling(delta):
        x1 = CFG.R1 + delta * z
        x2 = CFG.R2 + delta * z
        K = (x1[:, None] * x2[None, :]
             * builder.kern._S(x1[:, None] / CFG.r1)
             * builder.kern._S(CFG.r2 / x2[None, :]))
        return -(K @ (w * ep_plus * b0)) / (m * Sf)

    fd = (T1_coupling(eps) - T1_coupling(0.0)) / eps
    np.testing.assert_allclose(builder.remainder_T1(b0), fd,
                               atol=1e-12 * max(1, np.max(np.abs(fd))))

    def Q1_coupling(delta):
        x2 = CFG.R2 + delta * z
        Kr = (x2[:, None] * x2[None, :]
              * builder.kern._S(x2[:, None] / CFG.r1)
              * builder.kern._S(CFG.r2 / x2[None, :]))
        rank = -(Kr @ (w * ep_plus * b0)) / (m * Sf)
        Kv = (x2[:, None] * x2[None, :]
              * builder.kern._S(x2[:, None] / x2[None, :]))
        volt = ((Kv * zg.w_left) @ (ep_plus * b0)) / m
        return rank + volt

    fd = (Q1_coupling(eps) - Q1_coupling(0.0)) / eps
    np.testing.assert_allclose(builder.remainder_Q1(b0), fd,
                               atol=1e-12 * max(1, np.max(np.abs(fd))))


def test_fixed_point_contracts_and_bounds(zg):
    prof = TrapezoidProfile(CFG, 1e-2, 0.1)
    coeffs = CoefficientSet(CFG, prof)
    root = solve_lambda1(M_MODE, coeffs)
    b0, a1 = b0_and_a1(M_MODE, root["lam1"], coeffs, zg)
    builder = KernelBuilder(CFG, prof, M_MODE, zg, coeffs)
    fp = fixed_point_corrections(builder, root["lam1"], a1, b0)
    assert fp["ratio"] <= 0.5
    # outputs are uniformly bounded (order-one in the band scale)
    assert abs(fp["lam2"]) < 50.0
    assert np.sqrt(np.dot(zg.w, fp["b1"] ** 2)) < 1e3


class _RebuiltPerCall(KernelBuilder):
    """Reference: every delta average rebuilt on every use, as each Picard
    iteration once did."""

    def _averaged(self, kernel):
        self._averages.clear()
        return super()._averaged(kernel)


def test_fixed_point_reuses_delta_averages_bit_identically(zg):
    prof = TrapezoidProfile(CFG, 1e-2, 0.1)
    coeffs = CoefficientSet(CFG, prof)
    root = solve_lambda1(M_MODE, coeffs)
    b0, a1 = b0_and_a1(M_MODE, root["lam1"], coeffs, zg)
    fp = fixed_point_corrections(KernelBuilder(CFG, prof, M_MODE, zg, coeffs),
                                 root["lam1"], a1, b0)
    ref = fixed_point_corrections(
        _RebuiltPerCall(CFG, prof, M_MODE, zg, coeffs), root["lam1"], a1, b0)
    for key in ("a2", "b1", "lam2", "distances", "iterations"):
        assert np.array_equal(fp[key], ref[key])


def test_builder_builds_each_distinct_average_once(zg):
    # the order-two remainders share the order-one (R1, R2) rank, (R2, R2)
    # rank and (R2, R2) Volterra kernels: seven distinct averages, not ten
    prof = TrapezoidProfile(CFG, 1e-2, 0.1)
    coeffs = CoefficientSet(CFG, prof)
    root = solve_lambda1(M_MODE, coeffs)
    b0, a1 = b0_and_a1(M_MODE, root["lam1"], coeffs, zg)
    builder = KernelBuilder(CFG, prof, M_MODE, zg, coeffs)
    fixed_point_corrections(builder, root["lam1"], a1, b0)
    assert len(builder._averages) == 7


def test_fixed_point_ratio_halves_with_eps(zg):
    ratios = {}
    for eps in (1e-2, 5e-3):
        prof = TrapezoidProfile(CFG, eps, 0.1)
        coeffs = CoefficientSet(CFG, prof)
        root = solve_lambda1(M_MODE, coeffs)
        b0, a1 = b0_and_a1(M_MODE, root["lam1"], coeffs, zg)
        builder = KernelBuilder(CFG, prof, M_MODE, zg, coeffs)
        fp = fixed_point_corrections(builder, root["lam1"], a1, b0)
        ratios[eps] = fp["ratio"]
    assert ratios[1e-2] <= 0.5
    assert 0.25 <= ratios[5e-3] / ratios[1e-2] <= 0.8


def test_eigensolution_residual_exact_mode(eig):
    prof = TrapezoidProfile(CFG, 1e-2, 0.1)
    res = operator_residual(eig, CFG, prof)
    assert res < 1e-10


def test_asymptotic_mode_residual_cubic_order(zg):
    res = {}
    for eps in (1e-2, 5e-3):
        prof = TrapezoidProfile(CFG, eps, 0.1)
        e = build_eigensolution(CFG, prof, M_MODE, zg, mode="asymptotic")
        res[eps] = operator_residual(e, CFG, prof)
    assert res[1e-2] / res[5e-3] >= 6.0


def test_validate_kernel_passes(eig):
    prof = TrapezoidProfile(CFG, 1e-2, 0.1)
    diag = validate_kernel(eig, CFG, prof, M=8)
    assert diag["gap_ratio"] <= 1e-6
    assert diag["cosine"] >= 1.0 - 1e-4
    assert diag["shift_jump"] >= 1e3
    assert all(v["ok"] for v in diag["off_modes"].values())


def test_adjoint_kernel_expansion(zg):
    prof = TrapezoidProfile(CFG, 1e-2, 0.1)
    out = {}
    for eps in (1e-2, 5e-3):
        p = TrapezoidProfile(CFG, eps, 0.1)
        e = build_eigensolution(CFG, p, M_MODE, zg)
        out[eps] = adjoint_kernel(e, CFG, p)
        # no rounding noise blown up by near-zero weights in the samples
        big = max(np.max(np.abs(out[eps]["astar"])),
                  np.max(np.abs(out[eps]["bstar"])))
        assert big <= 2.0 * np.max(np.abs(e.b0))
    # inner part is O(eps): halving eps halves its weighted norm
    ratio = out[1e-2]["a_norm_weighted"] / out[5e-3]["a_norm_weighted"]
    assert 1.5 <= ratio <= 2.6
    # outer part matches b0 with an O(eps) gap of stable constant
    K1 = out[1e-2]["b_gap_weighted"] / 1e-2
    K2 = out[5e-3]["b_gap_weighted"] / 5e-3
    assert max(K1, K2) <= 2.5 * min(K1, K2)


def test_adjoint_range_orthogonality(eig):
    prof = TrapezoidProfile(CFG, 1e-2, 0.1)
    adj = adjoint_kernel(eig, CFG, prof)
    op = assemble(eig.m, eig.eps, eig.lam, CFG, prof, eig.zgrid)
    rng = np.random.default_rng(8)
    hstar = (adj["astar"], adj["bstar"])
    hnorm = op.norm(hstar)
    for _ in range(5):
        u = rng.standard_normal((2, eig.zgrid.n))
        lhs = op.inner(op.apply(*u), hstar)
        assert abs(lhs) <= 1e-9 * op.norm(tuple(u)) * hnorm


def test_transversality(eig):
    prof = TrapezoidProfile(CFG, 1e-2, 0.1)
    adj = adjoint_kernel(eig, CFG, prof)
    tv = transversality(eig, adj, CFG, prof)
    assert abs(tv["T"]) >= 0.5 * abs(tv["leading"])
    assert tv["sign_matches_leading"]
    # outer term within 10% of the analytic leading part at eps = 5e-3
    p5 = TrapezoidProfile(CFG, 5e-3, 0.1)
    e5 = build_eigensolution(CFG, p5, M_MODE, eig.zgrid)
    adj5 = adjoint_kernel(e5, CFG, p5)
    tv5 = transversality(e5, adj5, CFG, p5)
    assert abs(tv5["term_outer"] - tv5["leading"]) <= 0.1 * abs(tv5["leading"])


def test_transversality_inner_term_quadratic_in_eps(zg):
    vals = {}
    for eps in (1e-2, 5e-3):
        p = TrapezoidProfile(CFG, eps, 0.1)
        e = build_eigensolution(CFG, p, M_MODE, zg)
        adj = adjoint_kernel(e, CFG, p)
        vals[eps] = abs(transversality(e, adj, CFG, p)["term_inner"])
    K1 = vals[1e-2] / 1e-2 ** 2
    K2 = vals[5e-3] / 5e-3 ** 2
    assert max(K1, K2) <= 4.0 * min(K1, K2)


def test_off_default_geometry_with_rotation_constant(zg):
    # different annulus, nonzero solid-body part: construction stays clean
    cfg = AnnulusConfig(r1=0.8, r2=2.2, R1=1.1, R2=1.6, A=0.3, B=0.2)
    prof = TrapezoidProfile(cfg, 8e-3, 0.12)
    eig = build_eigensolution(cfg, prof, 1, zg)
    diag = validate_kernel(eig, cfg, prof, M=6)
    assert diag["gap_ratio"] <= 1e-6
    assert diag["cosine"] >= 1.0 - 1e-4
    assert operator_residual(eig, cfg, prof) < 1e-10


# -- profile terms are computed once per (profile, grid), not per loop -------

def _count_calls(monkeypatch, owner, name):
    counts = {"n": 0}
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        counts["n"] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return counts


def test_second_validation_pass_evaluates_no_edge(monkeypatch, zg):
    prof = TrapezoidProfile(CFG, 1e-2, 0.1)
    eig = build_eigensolution(CFG, prof, M_MODE, zg)

    def validation_pass():
        validate_kernel(eig, CFG, prof)
        adjoint_kernel(eig, CFG, prof)
        operator_residual(eig, CFG, prof)

    validation_pass()
    edge = _count_calls(monkeypatch, TrapezoidProfile, "edge")
    validation_pass()
    assert edge["n"] == 0


def test_lambda1_edge_prime_calls_do_not_grow_with_I_evals(monkeypatch):
    evals = _count_calls(monkeypatch, kernel_mod, "_I_quadrature")
    edge_prime = _count_calls(monkeypatch, TrapezoidProfile, "edge_prime")
    seen = []
    for tol in (1e-4, 1e-10):
        coeffs = CoefficientSet(CFG, TrapezoidProfile(CFG, 1e-2, 0.1))
        evals["n"] = edge_prime["n"] = 0
        solve_lambda1(M_MODE, coeffs, tol=tol)
        seen.append((evals["n"], edge_prime["n"]))
    (evals_loose, calls_loose), (evals_tight, calls_tight) = seen
    assert evals_tight > evals_loose
    assert calls_tight == calls_loose


def _I_reference(coeffs, m, lam1, n_gauss=24):
    """I(lam1) with edge' evaluated panel by panel on every call."""
    prof = coeffs.profile
    breaks = _edge_breaks(prof.kappa)
    edges = []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        edges.extend(np.unique(np.concatenate(
            [geometric_edges(lo, hi, "right", 18, 0.6),
             geometric_edges(lo, hi, "left", 18, 0.6)])))
    edges = np.unique(np.asarray(edges))
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        x, w = mapped_rule(lo, hi, n_gauss)
        total += float(np.dot(w, prof.edge_prime(x)
                              / coeffs.alpha1(2, x, lam1)))
    return p_coeff(2, m, coeffs.cfg) * total


def test_I_quadrature_bit_identical_to_per_panel_reference():
    coeffs = CoefficientSet(CFG, TrapezoidProfile(CFG, 1e-2, 0.1))
    ls = lambda_star(coeffs)
    for lam1 in (ls - 1e-3, ls - 0.1, ls - 10.0):
        assert _I_quadrature(coeffs, M_MODE, lam1) \
            == _I_reference(coeffs, M_MODE, lam1)
