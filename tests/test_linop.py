import gc
import weakref

import numpy as np
import pytest

from annulus_rotor.config import AnnulusConfig
from annulus_rotor.domain import N_GAUSS
from annulus_rotor.errors import NumericsError
from annulus_rotor.linop import (BandOperator, CoefficientSet, assemble,
                                 assemble_adjoint, p_coeff, _green)
from annulus_rotor.profile import TrapezoidProfile
from annulus_rotor.quadrature import ZGrid, mapped_rule

from desk import DESK_CFG as CFG
EPS, KAPPA = 1e-2, 0.1


@pytest.fixture(scope="module")
def setup():
    prof = TrapezoidProfile(CFG, EPS, KAPPA)
    return prof, CoefficientSet(CFG, prof), ZGrid(96)


def test_p_coeff_value():
    cfg = AnnulusConfig(r1=1.0, r2=2.0, R1=1.2, R2=1.5, A=0.0, B=1.0)
    # closed form via (x^n - x^-n)/2 at m=1
    s = lambda x: (x - 1.0 / x) / 2.0
    expected = 1.5 * 1.5 * s(1.5) * s(2.0 / 1.5) / (1.0 * s(2.0))
    assert abs(p_coeff(2, 1, cfg) - expected) < 1e-12
    assert abs(expected - 0.3645833333) < 1e-9


def test_p2_strictly_decreasing():
    vals = [p_coeff(2, m, CFG) for m in range(1, 21)]
    assert all(a > b for a, b in zip(vals[:-1], vals[1:]))


def test_p_ratio_formula():
    # p1/p2 = R1 S_m(R1/r1) / (R2 S_m(R2/r1))
    for m in (1, 2, 3, 5, 8):
        lhs = p_coeff(1, m, CFG) / p_coeff(2, m, CFG)
        s = lambda x: np.sinh(m * np.log(x))
        rhs = CFG.R1 * s(CFG.R1 / CFG.r1) / (CFG.R2 * s(CFG.R2 / CFG.r1))
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_green_and_p_coeff_refuse_modes_past_the_sinh_guard():
    # log(r2/r1) = log 2: n log 2 passes 600 between n = 865 and 866
    x, y = np.array([CFG.R1]), np.array([CFG.R2])
    assert np.isfinite(_green(865, x, y, CFG.r1, CFG.r2, "right")).all()
    assert np.isfinite(p_coeff(1, 865, CFG))
    with pytest.raises(NumericsError, match="mode 866"):
        _green(866, x, y, CFG.r1, CFG.r2, "right")
    with pytest.raises(NumericsError, match="mode 866"):
        p_coeff(1, 866, CFG)


@pytest.mark.parametrize("build", [assemble, assemble_adjoint])
def test_operator_refuses_eps_other_than_the_profiles(setup, build):
    prof, _, zg = setup
    with pytest.raises(ValueError, match=r"0\.02.*0\.01"):
        build(3, 2e-2, 0.066, CFG, prof, zg)


def test_swirl0_closed_form(setup):
    _, coeffs, _ = setup
    for band, R in ((1, CFG.R1), (2, CFG.R2)):
        assert abs(coeffs.swirl0[band] + (CFG.A * R ** 2 + CFG.B)) < 1e-13


def test_swirl0_A_zero_is_minus_B(setup):
    _, coeffs, _ = setup
    assert abs(coeffs.swirl0[1] + CFG.B) < 1e-13
    assert abs(coeffs.swirl0[2] + CFG.B) < 1e-13


def test_swirl1_band_relation(setup):
    _, coeffs, _ = setup
    # outer order-1 coefficient at z=0 differs from the inner one at 0 by
    # -(R2^2 - R1^2)/2 (A=0 case has no z-slope)
    lhs = coeffs.swirl1(2, 0.0)
    rhs = coeffs.swirl1(1, 0.0) - (CFG.R2 ** 2 - CFG.R1 ** 2) / 2.0
    assert abs(lhs - rhs) < 1e-13


def test_swirl_expansion_is_exact(setup):
    _, coeffs, _ = setup
    z = np.linspace(-1.0, 1.0, 21)
    direct = coeffs.swirl_direct(1, z)
    expan = coeffs.swirl_expansion(1, z)
    assert np.max(np.abs(direct - expan)) < 1e-9
    direct = coeffs.swirl_direct(2, z)
    expan = coeffs.swirl_expansion(2, z)
    assert np.max(np.abs(direct - expan)) < 1e-9


def test_alpha0_outer_vanishes_inner_closed_form(setup):
    _, coeffs, _ = setup
    assert abs(coeffs.alpha0(2)) < 1e-13
    expected = CFG.B * (CFG.R1 ** 2 - CFG.R2 ** 2) / CFG.R2 ** 2
    assert abs(coeffs.alpha0(1) - expected) < 1e-13


def test_lambda_diag_asymptotics(setup):
    # Lam_inner = alpha0_inner + O(eps); Lam_outer = eps alpha1_outer + O(eps^2)
    prof, coeffs, zg = setup
    lam1 = -0.18   # any O(1) rate slope; asymptotic orders should not care
    errs_in, errs_out = [], []
    eps_list = (1e-2, 5e-3, 2.5e-3)
    for eps in eps_list:
        p = TrapezoidProfile(CFG, eps, KAPPA)
        c = CoefficientSet(CFG, p)
        lam = c.lam0 + eps * lam1
        z = zg.z
        lam_in = lam * (CFG.R1 + eps * z) ** 2 + c.swirl_direct(1, z)
        lam_out = lam * (CFG.R2 + eps * z) ** 2 + c.swirl_direct(2, z)
        errs_in.append(np.max(np.abs(lam_in - c.alpha0(1))))
        errs_out.append(np.max(np.abs(lam_out - eps * c.alpha1(2, z, lam1))))
    K_in = [e / eps for e, eps in zip(errs_in, eps_list)]
    K_out = [e / eps ** 2 for e, eps in zip(errs_out, eps_list)]
    assert max(K_in) < 3.0 * min(K_in)
    assert max(K_out) < 3.0 * min(K_out)


def test_assemble_zero_input(setup):
    prof, coeffs, zg = setup
    op = assemble(3, EPS, 0.37, CFG, prof, zg, coeffs)
    out1, out2 = op.apply(np.zeros(zg.n), np.zeros(zg.n))
    assert np.max(np.abs(out1)) == 0.0 and np.max(np.abs(out2)) == 0.0


def test_assemble_linearity(setup):
    prof, coeffs, zg = setup
    op = assemble(2, EPS, 0.1, CFG, prof, zg, coeffs)
    rng = np.random.default_rng(0)
    a1, b1 = rng.standard_normal((2, zg.n))
    a2, b2 = rng.standard_normal((2, zg.n))
    o1 = op.apply(2.0 * a1 + a2, 2.0 * b1 + b2)
    p1 = op.apply(a1, b1)
    p2 = op.apply(a2, b2)
    for lhs, r1_, r2_ in zip(o1, p1, p2):
        np.testing.assert_allclose(lhs, 2.0 * r1_ + r2_, atol=1e-12)


def test_small_eps_coupling_matches_rank_one(setup):
    # off-band blocks at eps -> 0 reduce to the rank-one p-coefficient kernels
    prof, _, zg = ZGrid(48), None, None
    zg = ZGrid(48)
    eps = 1e-8
    p = TrapezoidProfile(CFG, eps, KAPPA)
    c = CoefficientSet(CFG, p)
    m = 3
    op = assemble(m, eps, c.lam0, CFG, p, zg, c)
    # block (inner <- outer): eps * R1 * G_m(R1, R2) * (-sigma_out(s)) R2 w_s
    sig_out = p.weight_outer(zg.z)
    G = _green(m, np.array(CFG.R1), np.array(CFG.R2), CFG.r1, CFG.r2, "right")
    expected = eps * CFG.R1 * G * (-(CFG.R2 * sig_out)) * zg.w
    got = op.blocks[0][1]
    for row in range(0, zg.n, 7):
        np.testing.assert_allclose(got[row], expected, rtol=1e-5, atol=1e-18)
    # scale equals the p-coefficient contraction: integrating b0=1 against the
    # kernel gives eps * R1-prefactor * p1(m) * int sigma_out
    contr = got @ np.ones(zg.n)
    pref = eps * p_coeff(1, m, CFG) * np.dot(zg.w, sig_out)
    np.testing.assert_allclose(contr, np.full(zg.n, pref), rtol=1e-4)


def test_adjoint_duality(setup):
    prof, coeffs, zg = setup
    rng = np.random.default_rng(42)
    for n in (1, 2, 3, 5, 8):
        for eps in (1e-2, 5e-3):
            p = TrapezoidProfile(CFG, eps, KAPPA)
            c = CoefficientSet(CFG, p)
            lam = c.lam0 + 0.05
            op = assemble(n, eps, lam, CFG, p, zg, c)
            adj = assemble_adjoint(n, eps, lam, CFG, p, zg, c)
            for _ in range(5):
                u = rng.standard_normal((2, zg.n))
                v = rng.standard_normal((2, zg.n))
                lhs = op.inner(op.apply(*u), tuple(v))
                rhs = op.inner(tuple(u), adj.apply(*v))
                scale = op.norm(tuple(u)) * op.norm(tuple(v))
                assert abs(lhs - rhs) <= 1e-10 * max(scale, 1e-30)


def test_adjoint_of_adjoint(setup):
    prof, coeffs, zg = setup
    lam = coeffs.lam0 + 0.02
    op = assemble(4, EPS, lam, CFG, prof, zg, coeffs)
    adj = assemble_adjoint(4, EPS, lam, CFG, prof, zg, coeffs)
    # double duality: <L u, w> == <u, L** w> with L** = L
    rng = np.random.default_rng(1)
    u = rng.standard_normal((2, zg.n))
    w = rng.standard_normal((2, zg.n))
    lhs = op.inner(adj.apply(*u), tuple(w))
    rhs = op.inner(tuple(u), op.apply(*w))
    scale = op.norm(tuple(u)) * op.norm(tuple(w))
    assert abs(lhs - rhs) <= 1e-10 * max(scale, 1e-30)


def test_weighted_inner_product_psd(setup):
    prof, coeffs, zg = setup
    op = assemble(1, EPS, 0.0, CFG, prof, zg, coeffs)
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = rng.standard_normal((2, zg.n))
        assert op.inner(tuple(u), tuple(u)) >= 0.0
    # strictly positive on fields supported where the edge slope is negative
    a = np.exp(-zg.z ** 2)
    assert op.inner((a, a), (a, a)) > 0.0


def test_weighted_matrix_consistent_with_blocks(setup):
    prof, coeffs, zg = setup
    op = assemble(2, EPS, 0.3, CFG, prof, zg, coeffs)
    rng = np.random.default_rng(9)
    a, b = rng.standard_normal((2, zg.n))
    Mw = op.weighted_matrix()
    lhs = Mw @ op.weighted_vector(a, b)
    out = op.apply(a, b)
    rhs = op.weighted_vector(*out)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12 * max(1, np.max(np.abs(rhs))))


def _weighted_matrix_reference(op):
    """The weighted matrix by the earlier formula: a copy of the assembled
    matrix with its diagonal zeroed, scaled by the full matrix of ratios
    S_i / S_j, zero-weight columns zeroed and the diagonal restored."""
    S = np.concatenate(op.sqrt_weights)
    M = op.matrix().copy()
    idx = np.arange(2 * op.zgrid.n)
    diag = np.diag(M).copy()
    M[idx, idx] = 0.0
    safe = np.where(S > 0.0, S, 1.0)
    Mw = (S[:, None] / safe[None, :]) * M
    Mw[:, S == 0.0] = 0.0
    Mw[idx, idx] = diag
    return Mw


@pytest.mark.parametrize("eps", [1e-2, 5e-3])
def test_weighted_matrix_bit_identical_to_reference(eps):
    from annulus_rotor.kernel import build_eigensolution
    zg = ZGrid(96)
    prof = TrapezoidProfile(CFG, eps, 0.1)
    lam = build_eigensolution(CFG, prof, 3, zg).lam
    # the formula must also keep the zero-weight nodes' diagonal
    assert np.any(np.concatenate(assemble(1, eps, lam, CFG, prof, zg)
                                 .sqrt_weights) == 0.0)
    for n in range(1, 10):
        op = assemble(n, eps, lam, CFG, prof, zg)
        got, ref = op.weighted_matrix(), _weighted_matrix_reference(op)
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))
        ref[zg.n:] *= -1.0
        assert np.array_equal(op.symmetric_matrix(), ref)


def _j_asymmetry(op):
    A = op.weighted_matrix()
    A[op.zgrid.n:] *= -1.0
    return np.max(np.abs(A - A.T)) / np.max(np.abs(A))


def test_weighted_matrix_is_j_symmetric():
    # summation by parts: J Mw is symmetric, J = +1 inner band, -1 outer
    from annulus_rotor.kernel import build_eigensolution
    worst = 0.0
    for nz in (48, 96, 128):
        zg = ZGrid(nz)
        for eps in (1e-2, 5e-3, 1e-3):
            for kappa in (0.1, 0.3):
                prof = TrapezoidProfile(CFG, eps, kappa)
                lam = build_eigensolution(CFG, prof, 3, zg).lam
                for n in range(1, 10):
                    for rate in (lam, lam + 0.1):
                        op = assemble(n, eps, rate, CFG, prof, zg)
                        worst = max(worst, _j_asymmetry(op))
                Mw = op.weighted_matrix()
                Mw[nz:] *= -1.0
                assert np.array_equal(op.symmetric_matrix(), Mw)
    assert worst <= 1e-15


def test_symmetric_matrix_refuses_an_asymmetric_operator(setup):
    prof, coeffs, zg = setup
    op = assemble(3, EPS, 0.07, CFG, prof, zg, coeffs)
    S1, S2 = op.sqrt_weights
    i, j = int(np.argmax(S1)), int(np.argmax(S2))
    # move the weighted entry (i, N + j) by 1e-8 of the largest entry
    delta = 1e-8 * np.max(np.abs(op.weighted_matrix()))
    blocks = [[blk.copy() for blk in row] for row in op.blocks]
    blocks[0][1][i, j] += delta * S2[j] / S1[i]
    bad = BandOperator(n=op.n, eps=op.eps, lam=op.lam, zgrid=zg,
                       blocks=blocks, sqrt_weights=op.sqrt_weights)
    assert abs(_j_asymmetry(bad) - 1e-8) <= 1e-10
    with pytest.raises(NumericsError, match="asymmetry 1e-08"):
        bad.symmetric_matrix()


def test_quadrature_gauss_convergence_on_analytic_integrand():
    # node doubling gains at least 50x on an analytic integrand
    from annulus_rotor.quadrature import mapped_rule
    f = lambda x: np.exp(x) * np.cos(3 * x)
    # antiderivative e^x (cos 3x + 3 sin 3x)/10
    F = lambda x: np.exp(x) * (np.cos(3 * x) + 3 * np.sin(3 * x)) / 10.0
    exact = F(1.0) - F(-1.0)
    errs = []
    for n in (4, 8, 16):
        x, w = mapped_rule(-1.0, 1.0, n)
        errs.append(abs(np.dot(w, f(x)) - exact))
    assert errs[0] / max(errs[1], 5e-16) >= 50.0


def test_shared_coefficients_give_identical_blocks():
    # the profile's shared set, its grid terms cached at two grid sizes,
    # builds the same blocks bit for bit as a fresh set per assembly
    prof = TrapezoidProfile(CFG, EPS, KAPPA)
    lam = prof.coefficients.lam0 + 0.03
    for zg in (ZGrid(96), ZGrid(48)):
        for n in range(1, 9):
            for build in (assemble, assemble_adjoint):
                shared = build(n, EPS, lam, CFG, prof, zg)
                fresh = build(n, EPS, lam, CFG, prof, zg,
                              CoefficientSet(CFG, prof))
                for i in (0, 1):
                    assert np.array_equal(shared.sqrt_weights[i],
                                          fresh.sqrt_weights[i])
                    for j in (0, 1):
                        assert np.array_equal(shared.blocks[i][j],
                                              fresh.blocks[i][j])


def test_coefficient_cache_keeps_no_profile_alive():
    prof = TrapezoidProfile(CFG, EPS, KAPPA)
    assemble(2, EPS, 0.3, CFG, prof, ZGrid(48))
    coeffs = prof.coefficients
    assert coeffs.profile is prof and prof.coefficients is coeffs
    with pytest.raises(ValueError):
        coeffs.swirl_on_grid(ZGrid(48))[1][0] = 0.0    # shared, read-only
    refs = weakref.ref(prof), weakref.ref(coeffs)
    del prof, coeffs
    gc.collect()
    assert all(ref() is None for ref in refs)


def _edge_moment_reference(prof, band, z):
    """int_{-1}^{z} (R_band + eps t) edge(-+t) dt, one Gauss rule and one
    edge evaluation per point."""
    R, sign = (CFG.R1, -1.0) if band == 1 else (CFG.R2, 1.0)
    out = np.empty_like(z)
    for k, zk in enumerate(z):
        x, w = mapped_rule(-1.0, zk, N_GAUSS)
        out[k] = np.dot(w, (R + prof.eps * x) * prof.edge(sign * x))
    return out


def _swirl2_reference(prof, band, z):
    cfg, e = CFG, prof.eps
    j1 = float(_edge_moment_reference(prof, 1, np.array([1.0]))[0])
    j2 = float(_edge_moment_reference(prof, 2, np.array([1.0]))[0])
    x, w = mapped_rule(-1.0, 1.0, N_GAUSS)
    k1 = float(np.dot(w, (cfg.R1 + e * x) * prof.edge(-x)
                      * np.log(cfg.R1 + e * x)))
    k2 = float(np.dot(w, (cfg.R2 + e * x) * prof.edge(x)
                      * np.log(cfg.R2 + e * x)))
    xi, wi = mapped_rule(0.0, e, N_GAUSS)
    tail = float(np.dot(wi, (cfg.R2 - xi) * np.log(cfg.R2 - xi)
                        + (cfg.R1 + xi) * np.log(cfg.R1 + xi))) / e
    const = (np.log(cfg.r2) * (j1 + j2 - (cfg.R1 + cfg.R2))
             - (k1 + k2) + tail) / np.log(cfg.r2 / cfg.r1)
    if band == 1:
        return const - cfg.A * z ** 2 - _edge_moment_reference(prof, 1, z)
    return (const - cfg.A - j1 + cfg.A * (1.0 - z ** 2)
            - (_edge_moment_reference(prof, 2, z) - (cfg.R1 + cfg.R2)))


def test_swirl2_matches_per_point_reference(setup):
    prof, c, _ = setup
    z = np.linspace(-1.0, 1.0, 200)
    for band in (1, 2):
        np.testing.assert_allclose(c.swirl2(band, z),
                                   _swirl2_reference(prof, band, z),
                                   rtol=1e-14, atol=0)


def test_swirl_grid_terms_edge_calls_independent_of_grid(monkeypatch):
    calls = {"n": 0}
    edge = TrapezoidProfile.edge

    def counted(self, z):
        calls["n"] += 1
        return edge(self, z)

    monkeypatch.setattr(TrapezoidProfile, "edge", counted)
    seen = []
    for n in (48, 96):
        c = CoefficientSet(CFG, TrapezoidProfile(CFG, EPS, KAPPA))
        calls["n"] = 0
        c.swirl_on_grid(ZGrid(n))
        c.swirl2_on_grid(ZGrid(n))
        seen.append(calls["n"])
    assert seen[0] == seen[1]


def test_swirl_grid_terms_skip_empty_bands(monkeypatch):
    # BaseStream.moment evaluates the edge only on a band that holds radii
    sizes = []
    edge = TrapezoidProfile.edge

    def counted(self, z):
        sizes.append(np.size(z))
        return edge(self, z)

    monkeypatch.setattr(TrapezoidProfile, "edge", counted)
    c = CoefficientSet(CFG, TrapezoidProfile(CFG, EPS, KAPPA))
    c.swirl_on_grid(ZGrid(96))
    c.swirl2_on_grid(ZGrid(96))
    assert sizes and 0 not in sizes


def _blocks_from_six_greens(n, eps, lam, cfg, prof, zg):
    """Reference: `assemble`'s blocks with every Green's branch evaluated
    separately (both branches of each diagonal block, and block (2, 1)
    from its own 'left' branch)."""
    coeffs = prof.coefficients
    sig = coeffs.slope_weights(zg)
    swirl = coeffs.swirl_on_grid(zg)
    radii = {1: cfg.R1 + eps * zg.z, 2: cfg.R2 + eps * zg.z}
    slope = {1: sig[1], 2: -sig[2]}
    blocks = [[None, None], [None, None]]
    for i in (1, 2):
        for j in (1, 2):
            x, y = radii[i][:, None], radii[j][None, :]
            if i == j:
                K = (_green(n, x, y, cfg.r1, cfg.r2, "left") * zg.w_left
                     + _green(n, x, y, cfg.r1, cfg.r2, "right") * zg.w_right)
            else:
                branch = "left" if j < i else "right"
                K = _green(n, x, y, cfg.r1, cfg.r2, branch) * zg.w[None, :]
            block = (eps * radii[i])[:, None] * K \
                * (radii[j] * slope[j])[None, :]
            if i == j:
                block[np.arange(zg.n), np.arange(zg.n)] += \
                    lam * radii[i] ** 2 + swirl[i]
            blocks[i - 1][j - 1] = block
    return blocks


@pytest.mark.parametrize("n", [1, 3, 8])
def test_symmetric_green_blocks_bit_identical_to_six_branches(setup, n):
    prof, _, zg = setup
    op = assemble(n, EPS, 0.066, CFG, prof, zg)
    ref = _blocks_from_six_greens(n, EPS, 0.066, CFG, prof, zg)
    for i in range(2):
        for j in range(2):
            assert np.array_equal(op.blocks[i][j], ref[i][j])
