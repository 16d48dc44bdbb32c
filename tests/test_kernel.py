import numpy as np
import pytest

from annulus_rotor import kernel as kernel_mod
from annulus_rotor.config import AnnulusConfig
from annulus_rotor.errors import (BracketError, KernelValidationError,
                                  NumericsError)
from annulus_rotor.kernel import (SVD_GAP_TOL, KernelBuilder, adjoint_kernel,
                                  b0_and_a1, build_eigensolution,
                                  fixed_point_corrections, invert_q2hat,
                                  lambda1_closed_form, lambda_star,
                                  operator_residual, singular_values,
                                  solve_lambda1, transversality,
                                  validate_kernel, _edge_breaks,
                                  _I_quadrature, _mode_operator,
                                  _polish_lambda1_on_grid)
from annulus_rotor.linop import (CoefficientSet, assemble, assemble_adjoint,
                                 p_coeff)
from annulus_rotor.profile import TrapezoidProfile
from annulus_rotor.quadrature import ZGrid, geometric_edges, mapped_rule

from desk import DESK_CFG as CFG, OFFMODE_SVD_FLOOR, eigensolution
M_MODE = 3


@pytest.fixture(scope="module")
def zg():
    return ZGrid(96)


@pytest.fixture(scope="module")
def coeffs():
    prof = TrapezoidProfile(CFG, 1e-2, 0.1)
    return CoefficientSet(prof)


@pytest.fixture(scope="module")
def eig(zg):
    prof = TrapezoidProfile(CFG, 1e-2, 0.1)
    return build_eigensolution(CFG, prof, M_MODE, zg)


def _I_per_panel(coeffs, m, lam1, n_gauss=24):
    """Reference: mode m's I(lam1) = p2(m) J(lam1) and its slope, with edge'
    evaluated and I summed panel by panel on every call, one mode and one
    lam1 at a time."""
    prof = coeffs.profile
    breaks = _edge_breaks(prof.kappa)
    edges = []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        edges.extend(np.unique(np.concatenate(
            [geometric_edges(lo, hi, "right", 18, 0.6),
             geometric_edges(lo, hi, "left", 18, 0.6)])))
    edges = np.unique(np.asarray(edges))
    total = slope = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        x, w = mapped_rule(lo, hi, n_gauss)
        alpha1 = coeffs.alpha1(2, x, lam1)
        total += float(np.dot(w, prof.edge_prime(x) / alpha1))
        slope += float(np.dot(w, prof.edge_prime(x) / alpha1 ** 2))
    p2 = p_coeff(2, m, coeffs.cfg)
    return p2 * total, -p2 * coeffs.cfg.R2 ** 2 * slope


def _scalar_lambda1(m, coeffs, tol=1e-10):
    """Reference: mode m's root of I(lam1) = 1 alone, by the safeguarded
    Newton iteration on `_I_per_panel` from the bracket's upper end, a step
    that leaves the bracket replaced by bisection.  BracketError when
    I(lambda*^-) <= 1."""
    ls = lambda_star(coeffs)
    scale = max(abs(ls), 1.0)
    delta = 1e-3 * scale
    while (val_slope := _I_per_panel(coeffs, m, ls - delta))[0] <= 1.0:
        delta /= 4.0
        if delta < 1e-15 * scale:
            raise BracketError(f"no root for mode {m}")
    val, slope = val_slope
    big = max(4.0 * delta, scale)
    while _I_per_panel(coeffs, m, ls - big)[0] >= 1.0:
        big *= 4.0
    lo, hi = ls - big, ls - delta
    lam1 = hi
    for _ in range(200):
        if abs(val - 1.0) <= tol:
            return {"lam1": lam1, "residual": val - 1.0, "lambda_star": ls}
        lo, hi = (lam1, hi) if val < 1.0 else (lo, lam1)
        lam1 = lam1 - (val - 1.0) / slope
        if not lo < lam1 < hi:
            lam1 = 0.5 * (lo + hi)
        val, slope = _I_per_panel(coeffs, m, lam1)
    raise AssertionError("reference Newton stalled")


def _rung(m, coeffs):
    """Mode m's rate slope on the ladder."""
    return solve_lambda1(coeffs)["lam1"][m - 1]


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
    p2 = p_coeff(2, M_MODE, CFG)
    vals = p2 * _I_quadrature(coeffs, ls - np.array([0.5, 0.2, 0.1, 0.05,
                                                     0.01]))[0]
    assert all(a < b for a, b in zip(vals[:-1], vals[1:]))
    assert p2 * _I_quadrature(coeffs, np.array([ls - 1e3]))[0][0] < 0.01


def test_solve_lambda1_residual_and_range(coeffs):
    root = solve_lambda1(coeffs)
    lam1 = root["lam1"][M_MODE - 1]
    assert abs(root["residual"][M_MODE - 1]) <= 1e-10
    assert lam1 < root["lambda_star"]
    # alpha1_out stays negative on the whole band
    z = np.linspace(-1, 1, 101)
    assert np.all(coeffs.alpha1(2, z, lam1) < 0.0)


def test_lambda1_bracket_failure_at_spec_default_B(zg):
    # at B=1 the integral saturates below one: no root exists (ledger entry)
    cfg = AnnulusConfig(r1=1.0, r2=2.0, R1=1.2, R2=1.5, A=0.0, B=1.0)
    prof = TrapezoidProfile(cfg, 1e-2, 0.1)
    coeffs = CoefficientSet(prof)
    with pytest.raises(BracketError):
        _scalar_lambda1(1, coeffs)
    with pytest.raises(BracketError, match=r"mode 1 .* n\* = 0"):
        build_eigensolution(cfg, prof, 1, zg)


def test_lambda1_closed_form_gap_linear_in_kappa():
    gaps = []
    for kappa in (0.2, 0.1, 0.05):
        prof = TrapezoidProfile(CFG, 1e-2, kappa)
        coeffs = CoefficientSet(prof)
        gaps.append(abs(_rung(M_MODE, coeffs)
                        - lambda1_closed_form(M_MODE, coeffs)))
    assert gaps[0] > gaps[1] > gaps[2]
    for a, b in zip(gaps[:-1], gaps[1:]):
        assert 1.6 <= a / b <= 2.6


def test_lambda1_negative_B_branch(zg):
    cfg = AnnulusConfig(r1=1.0, r2=2.0, R1=1.2, R2=1.5, A=0.0, B=-0.25)
    prof = TrapezoidProfile(cfg, 1e-2, 0.1)
    coeffs = CoefficientSet(prof)
    root = solve_lambda1(coeffs)
    assert abs(root["residual"][M_MODE - 1]) <= 1e-10
    b0, a1 = b0_and_a1(M_MODE, root["lam1"][M_MODE - 1], coeffs, zg)
    assert np.all(b0 < 0.0)


def test_b0_and_a1_identities(coeffs, zg):
    lam1 = _polish_lambda1_on_grid(M_MODE, _rung(M_MODE, coeffs), coeffs, zg)
    b0, a1 = b0_and_a1(M_MODE, lam1, coeffs, zg)
    prof = coeffs.profile
    # the root equation restated: p2 <edge' b0> = 1
    contr = np.dot(zg.w, prof.edge_prime(zg.z) * b0)
    assert abs(p_coeff(2, M_MODE, CFG) * contr - 1.0) < 1e-9
    assert np.all(b0 < 0.0)           # B > 0 branch
    expected_a1 = (p_coeff(1, M_MODE, CFG) / p_coeff(2, M_MODE, CFG)) \
        / coeffs.alpha0(1)
    assert abs(a1 - expected_a1) < 1e-9 * abs(expected_a1)


def test_grid_polish_raises_when_it_does_not_converge(monkeypatch, zg):
    # the desk polish takes three steps; one leaves the stop test unmet
    monkeypatch.setattr(kernel_mod, "POLISH_MAX_ITER", 1)
    prof = TrapezoidProfile(CFG, 1e-2, 0.1)
    with pytest.raises(NumericsError, match=r"mode m=3 did not converge in "
                       r"1 Newton steps: last step .+, residual g=.+"):
        build_eigensolution(CFG, prof, M_MODE, zg)


def test_sorted_distinct_and_median_are_numpys_bit_for_bit():
    # the replacements of np.unique and np.median, which load numpy.ma
    rng = np.random.default_rng(3)
    for lo, hi in zip(_edge_breaks(0.1)[:-1], _edge_breaks(0.1)[1:]):
        x = np.concatenate([geometric_edges(lo, hi, "right", 18, 0.6),
                            geometric_edges(lo, hi, "left", 18, 0.6)])
        assert np.array_equal(kernel_mod._sorted_distinct(x), np.unique(x))
    x = rng.integers(0, 5, 30) / 3.0
    assert np.array_equal(kernel_mod._sorted_distinct(x), np.unique(x))
    for n in range(1, 10):
        x = list(rng.standard_normal(n))
        assert kernel_mod._median(x) == float(np.median(x))


def test_invert_q2hat_roundtrip(coeffs, zg):
    lam1 = _rung(M_MODE, coeffs)
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
    g, mu = invert_q2hat(beta * b0, lam1, coeffs, b0, zg)
    assert abs(mu) < 1e-12
    np.testing.assert_allclose(qhat(g, mu), beta * b0, atol=1e-9)
    # G = 0: g = -(mu R2^2 + beta) b0^2
    g, mu = invert_q2hat(np.zeros(zg.n), lam1, coeffs, b0, zg)
    np.testing.assert_allclose(g, -(mu * CFG.R2 ** 2 + beta) * b0 ** 2,
                               atol=1e-12)
    np.testing.assert_allclose(qhat(g, mu), np.zeros(zg.n), atol=1e-9)
    # random G round-trips
    for _ in range(3):
        G = rng.standard_normal(zg.n)
        g, mu = invert_q2hat(G, lam1, coeffs, b0, zg)
        np.testing.assert_allclose(qhat(g, mu), G, atol=1e-9)


def test_reduced_inversion_orthogonal_source(coeffs, zg):
    # for F with <F b0 edge'> = 0, g = F b0 solves the reduced equation
    lam1 = _rung(M_MODE, coeffs)
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


class _DeltaKernels:
    """Analytic delta-derivatives of the band coupling kernels, the oracle
    for the builder's difference quotients.

    Each Phi(delta, z, s) is a product of band radii and hyperbolic factors;
    their delta-derivatives are coded directly.
    """

    def __init__(self, cfg, m):
        self.cfg = cfg
        self.m = m
        self.S_full = np.sinh(m * np.log(cfg.r2 / cfg.r1))

    def _S(self, x):
        return np.sinh(self.m * np.log(x))

    def _C(self, x):
        return np.cosh(self.m * np.log(x))

    def _pair_rank(self, Rz, Rs, d, z, s):
        """d/d delta of (Rz+dz)(Rs+ds) S((Rz+dz)/r1) S(r2/(Rs+ds))."""
        m, r1, r2 = self.m, self.cfg.r1, self.cfg.r2
        xz = Rz + d * z
        xs = Rs + d * s
        t1 = z * xs * self._S(r2 / xs) * (self._S(xz / r1) + m * self._C(xz / r1))
        t2 = s * xz * self._S(xz / r1) * (self._S(r2 / xs) - m * self._C(r2 / xs))
        return t1 + t2

    def _pair_volterra(self, Rz, Rs, d, z, s):
        """d/d delta of (Rz+dz)(Rs+ds) S((Rz+dz)/(Rs+ds))."""
        m = self.m
        xz = Rz + d * z
        xs = Rs + d * s
        ratio = xz / xs
        return ((z * xs + s * xz) * self._S(ratio)
                + self._C(ratio) * m * (z * Rs - s * Rz))

    def average(self, kind, i, j, eps, zgrid, n_delta=12):
        """(1/eps) int_0^eps of the (R_i, R_j) kernel's delta-derivative on
        the grid, by an n_delta-node Gauss rule in delta."""
        pair = self._pair_rank if kind == "rank" else self._pair_volterra
        R = {1: self.cfg.R1, 2: self.cfg.R2}
        z, s = zgrid.z[:, None], zgrid.z[None, :]
        acc = np.zeros((zgrid.n, zgrid.n))
        for d, wd in zip(*mapped_rule(0.0, eps, n_delta)):
            acc += wd * pair(R[i], R[j], d, z, s)
        return acc / eps


# the seven (kernel, target band, source band) averages of the remainders
_DELTA_AVERAGES = (("rank", 1, 2), ("rank", 2, 2), ("volterra", 2, 2),
                   ("rank", 1, 1), ("volterra", 1, 1), ("rank", 2, 1),
                   ("volterra", 2, 1))


def test_delta_remainders_match_difference_quotients(coeffs, zg):
    # the oracle's (1/eps) int_0^eps dT1 == (T1_eps - T1_0)/eps exactly
    # (both with the same grid quadrature); same for the order-one outer term
    prof = coeffs.profile
    lam1 = _rung(M_MODE, coeffs)
    b0, _ = b0_and_a1(M_MODE, lam1, coeffs, zg)
    eps = prof.eps
    m = M_MODE
    z, w = zg.z, zg.w
    ep_plus = prof.edge_prime(z)
    oracle = _DeltaKernels(CFG, m)
    Sf = oracle.S_full

    def T1_coupling(delta):
        x1 = CFG.R1 + delta * z
        x2 = CFG.R2 + delta * z
        K = (x1[:, None] * x2[None, :]
             * oracle._S(x1[:, None] / CFG.r1)
             * oracle._S(CFG.r2 / x2[None, :]))
        return -(K @ (w * ep_plus * b0)) / (m * Sf)

    fd = (T1_coupling(eps) - T1_coupling(0.0)) / eps
    avg_T1 = -(oracle.average("rank", 1, 2, eps, zg) @ (w * ep_plus * b0)) \
        / (m * Sf)
    np.testing.assert_allclose(avg_T1, fd,
                               atol=1e-12 * max(1, np.max(np.abs(fd))))

    def Q1_coupling(delta):
        x2 = CFG.R2 + delta * z
        Kr = (x2[:, None] * x2[None, :]
              * oracle._S(x2[:, None] / CFG.r1)
              * oracle._S(CFG.r2 / x2[None, :]))
        rank = -(Kr @ (w * ep_plus * b0)) / (m * Sf)
        Kv = (x2[:, None] * x2[None, :]
              * oracle._S(x2[:, None] / x2[None, :]))
        volt = ((Kv * zg.w_left) @ (ep_plus * b0)) / m
        return rank + volt

    fd = (Q1_coupling(eps) - Q1_coupling(0.0)) / eps
    avg_Q1 = (-(oracle.average("rank", 2, 2, eps, zg) @ (w * ep_plus * b0))
              / (m * Sf)
              + ((oracle.average("volterra", 2, 2, eps, zg) * zg.w_left)
                 @ (ep_plus * b0)) / m)
    np.testing.assert_allclose(avg_Q1, fd,
                               atol=1e-12 * max(1, np.max(np.abs(fd))))


@pytest.mark.parametrize("m", [1, 3, 8])
@pytest.mark.parametrize("eps", [1e-2, 5e-3, 1e-3])
def test_builder_delta_averages_match_analytic_oracle(zg, m, eps):
    # each average as the builder applies it, quadrature weights included,
    # against the oracle's Gauss average of the analytic delta-derivative;
    # the difference quotient loses about eps_machine/eps to cancellation
    builder = KernelBuilder(TrapezoidProfile(CFG, eps, 0.1), m, zg)
    oracle = _DeltaKernels(CFG, m)
    eye = np.eye(zg.n)
    for kind, i, j in _DELTA_AVERAGES:
        apply = builder._avg_rank if kind == "rank" else builder._avg_volterra
        got = np.column_stack([apply(i, j, e) for e in eye])
        weights = zg.w_left if (kind, i) == ("volterra", j) else zg.w[None, :]
        ref = oracle.average(kind, i, j, eps, zg) * weights
        err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
        assert err <= 1e-15 / eps, (kind, i, j, err)


def test_fixed_point_contracts_and_bounds(zg):
    prof = TrapezoidProfile(CFG, 1e-2, 0.1)
    coeffs = CoefficientSet(prof)
    lam1 = _rung(M_MODE, coeffs)
    b0, a1 = b0_and_a1(M_MODE, lam1, coeffs, zg)
    builder = KernelBuilder(prof, M_MODE, zg)
    fp = fixed_point_corrections(builder, lam1, a1, b0)
    assert fp["ratio"] <= 0.5
    # outputs are uniformly bounded (order-one in the band scale)
    assert abs(fp["lam2"]) < 50.0
    assert np.sqrt(np.dot(zg.w, fp["b1"] ** 2)) < 1e3


class _RebuiltPerCall(KernelBuilder):
    """Reference: every Volterra kernel rebuilt on every use, as each Picard
    iteration once did."""

    def _phi_volterra(self, i, j):
        self._volterra.clear()
        return super()._phi_volterra(i, j)


def test_fixed_point_reuses_delta_averages_bit_identically(zg):
    prof = TrapezoidProfile(CFG, 1e-2, 0.1)
    coeffs = CoefficientSet(prof)
    lam1 = _rung(M_MODE, coeffs)
    b0, a1 = b0_and_a1(M_MODE, lam1, coeffs, zg)
    fp = fixed_point_corrections(KernelBuilder(prof, M_MODE, zg),
                                 lam1, a1, b0)
    ref = fixed_point_corrections(
        _RebuiltPerCall(prof, M_MODE, zg), lam1, a1, b0)
    for key in ("a2", "b1", "lam2", "distances", "iterations"):
        assert np.array_equal(fp[key], ref[key])


def test_builder_builds_each_distinct_average_once(zg):
    # the remainders and the order-three terms share the Volterra kernels of
    # the band pairs (R1, R1), (R2, R2) and (R2, R1); the rank kernels are
    # outer products of per-band vectors and need no matrix
    prof = TrapezoidProfile(CFG, 1e-2, 0.1)
    coeffs = CoefficientSet(prof)
    lam1 = _rung(M_MODE, coeffs)
    b0, a1 = b0_and_a1(M_MODE, lam1, coeffs, zg)
    builder = KernelBuilder(prof, M_MODE, zg)
    fixed_point_corrections(builder, lam1, a1, b0)
    assert sorted(builder._volterra) == [(1, 1), (2, 1), (2, 2)]


def test_fixed_point_ratio_halves_with_eps(zg):
    ratios = {}
    for eps in (1e-2, 5e-3):
        prof = TrapezoidProfile(CFG, eps, 0.1)
        coeffs = CoefficientSet(prof)
        lam1 = _rung(M_MODE, coeffs)
        b0, a1 = b0_and_a1(M_MODE, lam1, coeffs, zg)
        builder = KernelBuilder(prof, M_MODE, zg)
        fp = fixed_point_corrections(builder, lam1, a1, b0)
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
    assert all(v["ok"] for v in diag["off_modes"].values())
    # the kernel is isolated in the rate: mode m's operator is far from
    # singular at lam + 0.1
    sv = singular_values(eig.m, eig.lam + 0.1, prof, eig.zgrid)
    assert sv[-1] / sv[0] >= 1e-3 * eig.eps


# -- the rate ladder, with the discrete spectra as its oracle ---------------

@pytest.mark.parametrize("eps", [1e-2, 5e-3])
def test_rate_ladder_matches_solve_lambda1_per_mode(zg, eps):
    prof = TrapezoidProfile(CFG, eps, 0.1)
    coeffs = CoefficientSet(prof)
    ladder = solve_lambda1(coeffs)
    n_star = ladder["n_star"]
    assert n_star == 9
    assert ladder["lambda_star"] == lambda_star(coeffs)
    ref = [_scalar_lambda1(n, coeffs)["lam1"] for n in range(1, n_star + 1)]
    np.testing.assert_allclose(ladder["lam1"], ref, rtol=0, atol=1e-12)
    assert np.all(np.diff(ladder["lam1"]) > 0.0)
    assert ladder["lam1"][-1] < ladder["lambda_star"]
    with pytest.raises(BracketError):
        _scalar_lambda1(n_star + 1, coeffs)
    with pytest.raises(BracketError, match=r"mode 10 .* n\* = 9"):
        build_eigensolution(CFG, prof, n_star + 1, zg)


def test_rate_ladder_is_empty_without_a_root():
    cfg = AnnulusConfig(r1=1.0, r2=2.0, R1=1.2, R2=1.5, A=0.0, B=1.0)
    ladder = solve_lambda1(CoefficientSet(TrapezoidProfile(cfg, 1e-2, 0.1)))
    assert ladder["n_star"] == 0 and ladder["lam1"].size == 0


_PENCIL: dict = {}


def _pencil_rates(n, eps, zg):
    """The rates at which mode n has a kernel, ascending.  The operator is
    affine in the rate, A(lam) = A0 + lam diag(r^2), so they are the
    eigenvalues of -diag(r^2)^-1 A0."""
    if (n, eps) not in _PENCIL:
        prof = TrapezoidProfile(CFG, eps, 0.1)
        A0 = assemble(n, 0.0, prof, zg).matrix()
        r = np.concatenate([CFG.R1 + eps * zg.z, CFG.R2 + eps * zg.z])
        rates = np.linalg.eigvals(-A0 / (r ** 2)[:, None])
        assert np.max(np.abs(rates.imag)) <= 1e-12 * np.max(np.abs(rates))
        _PENCIL[n, eps] = np.sort(rates.real)
    return _PENCIL[n, eps]


@pytest.mark.parametrize("eps", [1e-2, 5e-3])
def test_pencil_least_rates_are_the_eigensolutions_and_the_continuum(zg, eps):
    prof = TrapezoidProfile(CFG, eps, 0.1)
    ladder = solve_lambda1(prof.coefficients)
    n_star = ladder["n_star"]
    for n in range(1, n_star + 1):
        lam = eigensolution(eps, m=n).lam
        assert abs(_pencil_rates(n, eps, zg)[0] - lam) <= 1e-13 * lam
    # past n*, every mode's spectrum starts at the shared continuum rate,
    # above every rung
    edge = [_pencil_rates(n, eps, zg)[0] for n in (n_star + 1, n_star + 2)]
    assert abs(edge[0] - edge[1]) <= 1e-13 * edge[0]
    if eps == 1e-2:
        assert abs(edge[0] - 0.06656120) <= 5e-9
    rungs = prof.coefficients.lam0 + eps * ladder["lam1"]
    assert edge[0] > np.max(rungs)
    assert edge[0] > _pencil_rates(n_star, eps, zg)[0]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("eps", [1e-2, 5e-3])
def test_rate_gaps_agree_with_the_off_mode_svd_scan(zg, m, eps):
    prof = TrapezoidProfile(CFG, eps, 0.1)
    eig = eigensolution(eps, m=m)
    diag = validate_kernel(eig, CFG, prof, M=8)
    lam1 = solve_lambda1(prof.coefficients)["lam1"]
    margin = kernel_mod.RATE_GAP_FLOOR * eps
    for n in range(1, 10):
        if n == m:
            continue
        off = diag["off_modes"][n]
        gap = abs(lam1[n - 1] - lam1[m - 1])
        assert off["gap"] == gap
        assert off["ok"] == (gap >= margin)
        sv = singular_values(n, eig.lam, prof, zg)
        assert off["ok"] == (sv[-1] >= OFFMODE_SVD_FLOOR * eps * sv[0])
        # the first-order rung gap errs by O(eps) from the discrete one
        rate_gap = abs(_pencil_rates(n, eps, zg)[0] - eig.lam) / eps
        assert abs(gap - rate_gap) <= margin
    assert diag["least_gap"] == min(v["gap"] for v in diag["off_modes"].values())
    assert diag["edge_gap"] == diag["off_modes"][10]["gap"]
    assert max(diag["off_modes"]) == 10


def test_validate_kernel_names_the_mode_below_the_rate_gap_floor(monkeypatch,
                                                                 eig):
    prof = TrapezoidProfile(CFG, 1e-2, 0.1)
    lam1 = solve_lambda1(prof.coefficients)["lam1"]
    gap2, gap4 = abs(lam1[[1, 3]] - lam1[2])
    assert gap4 < gap2
    # a floor between the two neighbours' gaps: only mode 4 falls below
    monkeypatch.setattr(kernel_mod, "RATE_GAP_FLOOR",
                        0.5 * (gap2 + gap4) / eig.eps)
    with pytest.raises(KernelValidationError, match=r"modes \[4\] "):
        validate_kernel(eig, CFG, prof)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("eps", [1e-2, 5e-3])
def test_transversality_is_the_pencil_pairing_weighted_by_r(zg, m, eps):
    # with right null vector x = (a, b) and left null vector y = w sigma
    # (a*, b*) of A(lam) = A0 + lam diag(r^2), T = y diag(r) x, while the
    # pencil's pairing is y dA/dlam x = y diag(r^2) x
    prof = TrapezoidProfile(CFG, eps, 0.1)
    eig = eigensolution(eps, m=m)
    adj = adjoint_kernel(eig, CFG, prof)
    tv = transversality(eig, adj, CFG, prof)
    sig = prof.coefficients.slope_weights(zg)
    x = np.concatenate([eig.a, eig.b])
    y = np.concatenate([zg.w * sig[1] * adj["astar"],
                        zg.w * sig[2] * adj["bstar"]])
    A = assemble(m, eig.lam, prof, zg).matrix()
    assert np.linalg.norm(y @ A) <= 1e-13 * np.linalg.norm(y) \
        * np.linalg.norm(A)
    r = np.concatenate([CFG.R1 + eps * zg.z, CFG.R2 + eps * zg.z])
    T = float(y @ (r * x))
    assert abs(T - tv["T"]) <= 1e-12 * abs(tv["T"])
    assert abs(float(y @ (r ** 2 * x)) - tv["pencil"]) \
        <= 1e-12 * abs(tv["pencil"])
    assert np.sign(tv["pencil"]) == np.sign(tv["T"])
    assert CFG.R1 <= tv["pencil"] / tv["T"] <= CFG.R2 + eps


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


def test_adjoint_null_vector_is_the_operators_left_singular_vector(
        zg, monkeypatch):
    from annulus_rotor import kernel, linop
    for eps in (1e-2, 5e-3):
        p = TrapezoidProfile(CFG, eps, 0.1)
        e = build_eigensolution(CFG, p, M_MODE, zg)
        # the separately assembled adjoint, as acceptance 3 builds it
        adj_op = assemble_adjoint(e.m, e.lam, p, zg)
        ref = np.linalg.svd(adj_op.weighted_matrix())[2][-1]
        calls = []
        monkeypatch.setattr(linop, "assemble_adjoint",
                            lambda *a, **k: calls.append(a))
        monkeypatch.setattr(kernel, "assemble_adjoint",
                            lambda *a, **k: calls.append(a), raising=False)
        adj = adjoint_kernel(e, CFG, p)
        monkeypatch.undo()
        assert not calls
        assert "operator" not in adj
        # the returned samples back in the weighted frame
        got = np.concatenate(adj_op.sqrt_weights) \
            * np.concatenate([adj["astar"], adj["bstar"]])
        cosine = abs(float(np.dot(got, ref))) \
            / (np.linalg.norm(got) * np.linalg.norm(ref))
        assert cosine >= 1.0 - 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("eps", [1e-2, 5e-3])
def test_adjoint_kernel_is_the_kernel_with_outer_band_negated(zg, m, eps):
    # J Mw symmetric means J v spans the left null space when v spans the
    # right one: (a*, b*) is (a, -b) up to scale
    p = TrapezoidProfile(CFG, eps, 0.1)
    e = build_eigensolution(CFG, p, m, zg)
    adj = adjoint_kernel(e, CFG, p)
    op = _mode_operator(e, p)[0]
    star, flipped = (adj["astar"], adj["bstar"]), (e.a, -e.b)
    cosine = abs(op.inner(star, flipped)) / (op.norm(star) * op.norm(flipped))
    assert 1.0 - cosine <= 1e-13


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("eps", [1e-2, 5e-3])
def test_mode_operator_matches_the_full_hermitian_svd(zg, m, eps):
    # oracle: every singular value and vector of the symmetric form
    p = TrapezoidProfile(CFG, eps, 0.1)
    e = build_eigensolution(CFG, p, m, zg)
    op, svals, left, right = _mode_operator(e, p)
    U, ref, Vt = np.linalg.svd(op.symmetric_matrix(), hermitian=True)
    assert np.max(np.abs(svals - ref)) <= 1e-14 * ref[0]
    cosine = abs(float(np.dot(right, Vt[-1]))) / np.linalg.norm(right)
    assert cosine >= 1.0 - 1e-14
    # the left vector is J times the right one, and J U up to sign
    J = np.concatenate([np.ones(zg.n), -np.ones(zg.n)])
    assert np.array_equal(left, J * right)
    assert abs(float(np.dot(left, J * U[:, -1]))) >= 1.0 - 1e-14


def test_null_vector_solve_failure_is_a_numerics_error(monkeypatch, zg):
    p = TrapezoidProfile(CFG, 1e-2, 0.1)
    e = build_eigensolution(CFG, p, M_MODE, zg)

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(NumericsError,
                       match=r"mode 3's operator is singular "
                             r"\(Singular matrix\): sigma_min = \d"):
        validate_kernel(e, CFG, p)
    assert e._mode_op is None


def test_unresolved_null_vector_is_a_numerics_error(monkeypatch, zg):
    # a solve that returns its right-hand side leaves |S x| near the scale
    # of S, far past SVD_GAP_TOL sigma_second
    p = TrapezoidProfile(CFG, 1e-2, 0.1)
    e = build_eigensolution(CFG, p, M_MODE, zg)
    monkeypatch.setattr(np.linalg, "solve", lambda S, b: b.copy())
    with pytest.raises(NumericsError,
                       match=r"mode 3's null vector is unresolved after one "
                             r"inverse-iteration solve: \|S x\| = \S+ "
                             r"exceeds SVD_GAP_TOL sigma_second = 1e-06 \* "):
        validate_kernel(e, CFG, p)
    assert e._mode_op is None


@pytest.mark.parametrize("eps", [1e-2, 5e-3])
def test_hermitian_singular_values_match_general_svd(zg, eps):
    p = TrapezoidProfile(CFG, eps, 0.1)
    lam = build_eigensolution(CFG, p, M_MODE, zg).lam
    for n in range(1, 10):
        got = singular_values(n, lam, p, zg)
        ref = np.linalg.svd(assemble(n, lam, p, zg)
                            .weighted_matrix(), compute_uv=False)
        assert np.max(np.abs(got - ref)) <= 1e-14 * ref[0]
        if n != M_MODE:
            assert abs(got[-1] - ref[-1]) <= 1e-10 * ref[-1]


def test_adjoint_range_orthogonality(eig):
    prof = TrapezoidProfile(CFG, 1e-2, 0.1)
    adj = adjoint_kernel(eig, CFG, prof)
    op = assemble(eig.m, eig.lam, prof, eig.zgrid)
    rng = np.random.default_rng(8)
    hstar = (adj["astar"], adj["bstar"])
    hnorm = op.norm(hstar)
    for _ in range(5):
        u = rng.standard_normal((2, eig.zgrid.n))
        lhs = op.inner(op.apply(*u), hstar)
        assert abs(lhs) <= 1e-9 * op.norm(tuple(u)) * hnorm


def test_adjoint_kernel_refuses_a_gap_ratio_above_svd_gap_tol(
        eig, monkeypatch):
    # a ratio between SVD_GAP_TOL (1e-6) and the 1e-3 once accepted: the
    # null vector is not certified there, so the adjoint is refused
    prof = TrapezoidProfile(CFG, 1e-2, 0.1)
    op, svals, left, right = kernel_mod._mode_operator(eig, prof)
    ratio = 1e-4
    wide = svals.copy()
    wide[-1] = ratio * wide[-2]
    monkeypatch.setattr(kernel_mod, "_mode_operator",
                        lambda e, p: (op, wide, left, right))
    assert SVD_GAP_TOL < ratio < 1e-3
    with pytest.raises(KernelValidationError,
                       match=r"adjoint kernel dimension is not one: "
                             r"sigma_min/sigma_second = 0\.0001 > "
                             r"SVD_GAP_TOL = 1e-06"):
        adjoint_kernel(eig, CFG, prof)


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
    counts = {"n": 0, "calls": []}
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        counts["n"] += 1
        counts["calls"].append((args, kwargs))
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


def test_case_evaluates_edge_prime_three_times(monkeypatch, zg):
    # one case of build and checks: edge' once on the I(lambda1) panels and
    # once each at z and -z for the slope-weight memo every reader shares
    prof = TrapezoidProfile(CFG, 1e-2, 0.1)
    edge_prime = _count_calls(monkeypatch, TrapezoidProfile, "edge_prime")
    eig = build_eigensolution(CFG, prof, M_MODE, zg)
    validate_kernel(eig, CFG, prof)
    adj = adjoint_kernel(eig, CFG, prof)
    transversality(eig, adj, CFG, prof)
    operator_residual(eig, CFG, prof)
    assert edge_prime["n"] <= 3


def test_kernel_checks_share_one_operator_and_svd(monkeypatch, zg):
    prof = TrapezoidProfile(CFG, 1e-2, 0.1)
    eig = build_eigensolution(CFG, prof, M_MODE, zg)
    asm = _count_calls(monkeypatch, kernel_mod, "assemble")
    svd = _count_calls(monkeypatch, np.linalg, "svd")

    def taken():
        """(assemblies, SVDs) since the last call, at any mode and rate;
        every SVD is a values-only Hermitian one."""
        assert all(kwargs.get("hermitian")
                   and kwargs.get("compute_uv", True) is False
                   for _, kwargs in svd["calls"])
        counts = len(asm["calls"]), len(svd["calls"])
        asm["calls"].clear()
        svd["calls"].clear()
        return counts

    def checks(profile):
        validate_kernel(eig, CFG, profile)
        adjoint_kernel(eig, CFG, profile)
        return operator_residual(eig, CFG, profile)

    first = checks(prof)
    assert taken() == (1, 1)
    assert checks(prof) == first
    assert taken() == (0, 0)
    # a profile of another kappa rebuilds, and the residual is its own
    other = TrapezoidProfile(CFG, 1e-2, 0.2)
    res = operator_residual(eig, CFG, other)
    assert taken() == (1, 1)
    op = assemble(eig.m, eig.lam, other, zg)
    assert res == op.norm(op.apply(eig.a, eig.b)) / op.norm((eig.a, eig.b))
    assert res > 1e3 * first


def test_lambda1_edge_prime_calls_do_not_grow_with_I_evals(monkeypatch):
    evals = _count_calls(monkeypatch, kernel_mod, "_I_quadrature")
    edge_prime = _count_calls(monkeypatch, TrapezoidProfile, "edge_prime")
    seen = []
    for tol in (1e-4, 1e-13):
        monkeypatch.setattr(kernel_mod, "LADDER_TOL", tol)
        coeffs = CoefficientSet(TrapezoidProfile(CFG, 1e-2, 0.1))
        evals["n"] = edge_prime["n"] = 0
        solve_lambda1(coeffs)
        seen.append((evals["n"], edge_prime["n"]))
    (evals_loose, calls_loose), (evals_tight, calls_tight) = seen
    assert evals_tight > evals_loose
    assert calls_tight == calls_loose


def test_case_solves_the_rate_ladder_once(monkeypatch, zg):
    # build and checks of one case on a fresh profile: the eigensolution
    # carries the ladder, so the checks evaluate no alpha1 for it
    prof = TrapezoidProfile(CFG, 1e-2, 0.1)
    solves = _count_calls(monkeypatch, kernel_mod, "solve_lambda1")
    alpha1 = _count_calls(monkeypatch, CoefficientSet, "alpha1")
    eig = build_eigensolution(CFG, prof, M_MODE, zg)
    alpha1["n"] = 0
    validate_kernel(eig, CFG, prof)
    assert alpha1["n"] == 0
    adj = adjoint_kernel(eig, CFG, prof)
    transversality(eig, adj, CFG, prof)
    assert solves["n"] == 1


def _lambda1_by_bisection(m, coeffs, tol=1e-10):
    """Reference: the root of I(lam1) = 1 by bisection, as the solver once
    found it."""
    ls = lambda_star(coeffs)
    scale = max(abs(ls), 1.0)
    I = lambda lam1: _I_per_panel(coeffs, m, lam1)[0]
    delta = 1e-3 * scale
    while I(ls - delta) <= 1.0:
        delta /= 4.0
    big = max(4.0 * delta, scale)
    while I(ls - big) >= 1.0:
        big *= 4.0
    lo, hi = ls - big, ls - delta
    for _ in range(200):
        lam1 = 0.5 * (lo + hi)
        val = I(lam1)
        if abs(val - 1.0) <= tol:
            return lam1
        lo, hi = (lo, lam1) if val > 1.0 else (lam1, hi)
    raise AssertionError("reference bisection stalled")


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("eps", [1e-2, 5e-3])
def test_lambda1_newton_matches_bisection_in_few_evaluations(monkeypatch,
                                                             m, eps):
    coeffs = CoefficientSet(TrapezoidProfile(CFG, eps, 0.1))
    evals = _count_calls(monkeypatch, kernel_mod, "_I_quadrature")
    root = solve_lambda1(coeffs)
    assert evals["n"] <= 12
    monkeypatch.undo()
    ref = _lambda1_by_bisection(m, coeffs)
    val, slope = _I_per_panel(coeffs, m, ref)
    # both roots have |I - 1| <= 1e-10 and I is monotone between them
    assert abs(root["residual"][m - 1]) <= 1e-10
    assert abs(root["lam1"][m - 1] - ref) <= 2.5e-10 / slope
    # the analytic slope is I's derivative, on the ladder and the reference
    h = 1e-6 * abs(ref)
    fd = (_I_per_panel(coeffs, m, ref + h)[0]
          - _I_per_panel(coeffs, m, ref - h)[0]) / (2.0 * h)
    assert abs(slope - fd) <= 1e-6 * slope
    dJ = _I_quadrature(coeffs, np.array([ref]))[1][0]
    assert abs(p_coeff(2, m, CFG) * dJ - fd) <= 1e-6 * slope


def _I_panels_per_rule(prof):
    """Reference: `_I_panels` with one `mapped_rule` call per panel."""
    breaks = _edge_breaks(prof.kappa)
    edges = np.unique(np.concatenate([
        geometric_edges(lo, hi, side, 18, 0.6)
        for lo, hi in zip(breaks[:-1], breaks[1:])
        for side in ("right", "left")]))
    rules = [mapped_rule(lo, hi, kernel_mod._I_GAUSS)
             for lo, hi in zip(edges[:-1], edges[1:])]
    x = np.array([xk for xk, _ in rules])
    w = np.array([wk for _, wk in rules])
    return x, w, prof.edge_prime(x)


def _I_direct(coeffs, lam1):
    """Reference: J and dJ with alpha1 and w edge' formed on every call."""
    x, w, ep = _I_panels_per_rule(coeffs.profile)
    alpha1 = coeffs.alpha1(2, x, lam1[:, None, None])
    q = w * ep / alpha1
    return (np.sum(q, axis=(1, 2)),
            -coeffs.cfg.R2 ** 2 * np.sum(q / alpha1, axis=(1, 2)))


@pytest.mark.parametrize("kappa", [0.1, 0.6])
def test_I_panels_broadcast_is_the_per_panel_rules_bit_for_bit(kappa):
    prof = TrapezoidProfile(CFG, 1e-2, kappa)
    for got, want in zip(kernel_mod._I_panels(prof),
                         _I_panels_per_rule(prof)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("eps", [1e-2, 5e-3])
def test_I_quadrature_hoisted_terms_are_bit_for_bit(eps):
    coeffs = CoefficientSet(TrapezoidProfile(CFG, eps, 0.1))
    ls = lambda_star(coeffs)
    start = ls - 1e-12 * max(abs(ls), 1.0)        # the ladder's start
    lam1 = np.concatenate([[start], ls - np.array([1e-6, 1e-3, 0.1, 10.0,
                                                   1e3])])
    for lam in (lam1, lam1[:1], lam1[::-1]):
        for got, want in zip(_I_quadrature(coeffs, lam),
                             _I_direct(coeffs, lam)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("eps", [1e-2, 5e-3])
def test_rate_ladder_unchanged_by_the_hoisted_terms(monkeypatch, eps):
    prof = TrapezoidProfile(CFG, eps, 0.1)
    evals = _count_calls(monkeypatch, kernel_mod, "_I_quadrature")
    root = solve_lambda1(CoefficientSet(prof))
    n_hoisted = evals["n"]
    monkeypatch.setattr(kernel_mod, "_I_quadrature", _I_direct)
    evals = _count_calls(monkeypatch, kernel_mod, "_I_quadrature")
    ref = solve_lambda1(CoefficientSet(prof))
    assert evals["n"] == n_hoisted
    assert root["lam1"].tobytes() == ref["lam1"].tobytes()
    assert root["residual"].tobytes() == ref["residual"].tobytes()
    assert (root["n_star"], root["J_edge"]) == (ref["n_star"], ref["J_edge"])


def test_I_quadrature_matches_per_panel_reference():
    # J sums all panels at once, the reference I panel by panel in a running
    # sum, so they agree to the rounding of the summation order
    coeffs = CoefficientSet(TrapezoidProfile(CFG, 1e-2, 0.1))
    ls = lambda_star(coeffs)
    p2 = p_coeff(2, M_MODE, CFG)
    lam1 = ls - np.array([1e-3, 0.1, 10.0])
    J, dJ = _I_quadrature(coeffs, lam1)
    for k, x in enumerate(lam1):
        val, slope = _I_per_panel(coeffs, M_MODE, x)
        assert abs(J[k] - val / p2) <= 1e-15 * abs(J[k])
        assert abs(dJ[k] - slope / p2) <= 1e-15 * abs(dJ[k])
