import numpy as np
import pytest

from dataclasses import replace

from annulus_rotor.errors import ConfigError, NumericsError, OutOfDomainError
from annulus_rotor.eulersim import initial_state
from annulus_rotor.kernel import (_mode_operator, adjoint_kernel,
                                  build_eigensolution, operator_residual,
                                  transversality, validate_kernel)
from annulus_rotor.nonlinear import (LevelSetPerturbation, _band_radii,
                                     _interp_gauss, _kernel_direction,
                                     _mode_jacobian, _weyl_cubics,
                                     build_vorticity, continue_branch,
                                     functional_F, h2_band_bound,
                                     linearization_check, sobolev_distance,
                                     vorticity_samples)
from annulus_rotor.profile import TrapezoidProfile
from annulus_rotor.quadrature import ZGrid, _reference_panel
from barycentric import bary_interp

from desk import DESK_CFG as CFG
EPS, KAPPA, M_MODE = 1e-2, 0.1, 3


def _profile_at(f, r, band):
    """The band displacement g of f at the radii r of band 1 or 2, read from
    its z-grid interpolant (z clipped to [-1, 1]): the tests' oracle for
    the level sets."""
    R = f.cfg.R1 if band == 1 else f.cfg.R2
    z = np.clip((np.asarray(r, dtype=float) - R) / f.eps, -1.0, 1.0)
    return _interp_gauss(f.zgrid, f.g_inner if band == 1 else f.g_outer, z)


@pytest.fixture(scope="module")
def zg():
    return ZGrid(96)


@pytest.fixture(scope="module")
def prof():
    return TrapezoidProfile(CFG, EPS, KAPPA)


@pytest.fixture(scope="module")
def eig(zg, prof):
    return build_eigensolution(CFG, prof, M_MODE, zg)


@pytest.mark.parametrize("n", [48, 64, 96])
def test_gauss_grid_toolkit_reads_exact_values(n):
    """Interpolation, node derivatives and edge rows of the Gauss grid
    against the exact values of cos 3z + z^5."""
    zgn = ZGrid(n)
    z = zgn.z
    g = np.cos(3.0 * z) + z ** 5
    zt = np.linspace(-1.0, 1.0, 101)
    assert np.max(np.abs(_interp_gauss(zgn, g, zt)
                         - (np.cos(3.0 * zt) + zt ** 5))) <= 1e-13
    assert np.max(np.abs(zgn.diff @ g
                         - (-3.0 * np.sin(3.0 * z) + 5.0 * z ** 4))) <= 5e-11
    assert np.max(np.abs(zgn.diff @ (zgn.diff @ g)
                         - (-9.0 * np.cos(3.0 * z) + 20.0 * z ** 3))) <= 2e-7
    ends = np.array([np.cos(3.0) - 1.0, np.cos(3.0) + 1.0])
    assert np.max(np.abs(zgn.ends @ g - ends)) <= 1e-13


def test_gauss_read_matches_the_barycentric_oracle(eig):
    # the desk kernel read by its grid's Chebyshev series at the 48- and
    # 64-node Gauss grids and at 1001 uniform points; measured: within
    # 5.3e-15 of max|g|
    zgrid = eig.zgrid
    b = _reference_panel("gauss", zgrid.n).bary
    for z in (ZGrid(48).z, ZGrid(64).z, np.linspace(-1.0, 1.0, 1001)):
        for g in (eig.a, eig.b):
            ref = bary_interp(zgrid.z, g[:, None], z.reshape(-1, 1), b)
            assert np.max(np.abs(_interp_gauss(zgrid, g, z) - ref[:, 0])) \
                <= 1e-14 * np.max(np.abs(g))


def _pert(eig, sigma):
    return LevelSetPerturbation.from_kernel(eig, CFG, amplitude=sigma)


def test_zero_perturbation_reproduces_profile(zg, prof, eig):
    f0 = LevelSetPerturbation(m=M_MODE, zgrid=zg, g_inner=np.zeros(zg.n),
                              g_outer=np.zeros(zg.n), cfg=CFG, eps=EPS)
    field = build_vorticity(f0, prof, n_theta=16)
    expected = 2 * CFG.A + prof.value(field.grid.r)
    for j in range(16):
        np.testing.assert_allclose(field.values[:, j], expected, atol=1e-13)


def test_vorticity_roundtrip_on_level_sets(zg, prof, eig):
    sigma = 1e-3
    f = _pert(eig, sigma)
    field = build_vorticity(f, prof, n_theta=32)
    grid, theta = field.grid, field.theta
    # evaluate the field at its own nodes: the stored sample at a node r_t
    # inside the deformed band must equal the transported profile value at
    # the Newton preimage of r_t (no interpolation error involved)
    rng = np.random.default_rng(0)
    from annulus_rotor.nonlinear import _invert_map
    for band in (1, 2):
        R = CFG.R1 if band == 1 else CFG.R2
        for _ in range(20):
            j = int(rng.integers(0, len(theta)))
            cosj = np.cos(M_MODE * theta[j])
            lo = R - EPS + _profile_at(f, R - EPS, band) * cosj
            hi = R + EPS + _profile_at(f, R + EPS, band) * cosj
            sel = np.where((grid.r > lo) & (grid.r < hi))[0]
            k = int(rng.choice(sel))
            rho = _invert_map(f, band, np.array([grid.r[k]]), cosj)[0]
            target = 2 * CFG.A + prof.value(rho)
            assert abs(field.values[k, j] - target) < 1e-10


def bisect_map(f, band, r_targets, cos_m, tol=1e-13):
    """Reference: the band inversion by monotone bisection, as first
    written (one Legendre evaluation per halving)."""
    R = CFG.R1 if band == 1 else CFG.R2
    lo = np.full_like(r_targets, R - EPS)
    hi = np.full_like(r_targets, R + EPS)
    while np.max(hi - lo) >= tol:
        mid = 0.5 * (lo + hi)
        pos = mid + _profile_at(f, mid, band) * cos_m - r_targets > 0.0
        hi = np.where(pos, mid, hi)
        lo = np.where(pos, lo, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("sigma", [1e-3, 3e-3, 3.8e-3])   # max_slope to 0.90
def test_newton_inversion_residual_and_bisection(zg, prof, eig, sigma):
    from annulus_rotor.nonlinear import _invert_map
    f = _pert(eig, sigma)
    theta = 2.0 * np.pi * np.arange(24) / 24
    cosm = np.cos(M_MODE * theta)
    for band, R in ((1, CFG.R1), (2, CFG.R2)):
        # targets across the whole deformed band, edges included
        lo = R - EPS + _profile_at(f, R - EPS, band) * cosm
        hi = R + EPS + _profile_at(f, R + EPS, band) * cosm
        t = np.linspace(0.0, 1.0, 41)[:, None]
        r = (lo + t * (hi - lo)).ravel()
        c = np.broadcast_to(cosm, (41, 24)).ravel()
        rho = _invert_map(f, band, r, c)
        resid = rho + _profile_at(f, rho, band) * c - r
        assert np.max(np.abs(resid)) <= 1e-14
        assert np.max(np.abs(rho - bisect_map(f, band, r, c))) <= 1e-12


def test_newton_inversion_reports_nonconvergence(zg, prof, eig, monkeypatch):
    from annulus_rotor import nonlinear
    monkeypatch.setattr(nonlinear, "_NEWTON_STEPS", 1)
    f = _pert(eig, 1e-3)
    r = np.array([CFG.R2 + 0.3 * EPS])
    with pytest.raises(NumericsError, match="last step"):
        nonlinear._invert_map(f, 2, r, 1.0)


def test_newton_inversion_evaluates_the_full_series_only_at_the_end(
        zg, prof, eig, monkeypatch):
    # the warm start: the slope, and the residual until the step is small,
    # come from the truncated series; the parent evaluated the degree-95
    # series and its derivative on every step (10 calls per band here)
    from annulus_rotor import nonlinear
    f = _pert(eig, 1e-3)
    theta = 2.0 * np.pi * np.arange(128) / 128
    cosm = np.cos(M_MODE * theta)
    sizes = []
    chebval_into = nonlinear._chebval_into

    def counting_chebval(x, c, work):
        sizes.append(len(c))
        return chebval_into(x, c, work)

    monkeypatch.setattr(nonlinear, "_chebval_into", counting_chebval)
    for band, R in ((1, CFG.R1), (2, CFG.R2)):
        lo = R - EPS + _profile_at(f, R - EPS, band) * cosm
        hi = R + EPS + _profile_at(f, R + EPS, band) * cosm
        t = np.linspace(0.0, 1.0, 60)[:, None]
        r = (lo + t * (hi - lo)).ravel()
        c = np.broadcast_to(cosm, (60, 128)).ravel()
        sizes.clear()
        rho = nonlinear._invert_map(f, band, r, c)
        assert sizes and sum(n >= zg.n - 1 for n in sizes) <= 4
        assert np.max(np.abs(rho - bisect_map(f, band, r, c))) <= 1e-12


def test_clenshaw_sum_is_chebval_bit_for_bit():
    # one series at shared points, and one series per column at the
    # columns' own points or at points shared by every column
    from numpy.polynomial.chebyshev import chebval
    from annulus_rotor.quadrature import _chebval_into
    rng = np.random.default_rng(11)
    x = np.concatenate([[-1.0, 1.0, 0.0], rng.uniform(-1.0, 1.0, 997)])
    work = np.empty((4,) + x.shape)
    X = rng.uniform(-1.0, 1.0, (40, 7))
    work_cols = np.empty((4,) + X.shape)
    for n in range(1, 97):
        for scale in (1e-6, 1.0, 1e3):
            c = scale * rng.standard_normal(n)
            assert np.array_equal(_chebval_into(x, c, work), chebval(x, c))
            c = scale * rng.standard_normal((n, X.shape[1]))
            for pts in (X, X[:, :1]):
                assert np.array_equal(_chebval_into(pts, c, work_cols),
                                      chebval(pts, c, tensor=False))


def test_F_evaluates_the_edge_once_per_band(monkeypatch, zg, prof, eig):
    # each profile.value call of vorticity_samples holds one band's points,
    # so the other band costs no (empty) edge evaluation
    f = _pert(eig, 1e-3)
    functional_F(eig.lam, f, prof, n_theta=64)
    sizes = []
    orig = TrapezoidProfile.edge
    monkeypatch.setattr(TrapezoidProfile, "edge", lambda self, z: (
        sizes.append(np.size(z)) or orig(self, z)))
    functional_F(eig.lam, f, prof, n_theta=64)
    assert len(sizes) == 2 and min(sizes) > 0


def test_F_peak_memory(zg, prof, eig):
    # one F at n_theta 128 on the desk kernel peaks at 2.0 MB traced, in
    # the real cosine-mode solve (a complex solve of every rfft bin with
    # separate work arrays peaks at 4.1 MB); a first call builds the
    # caches, so that only F's own working arrays count
    import tracemalloc
    f = _pert(eig, 1e-3)
    functional_F(eig.lam, f, prof, n_theta=128)
    tracemalloc.start()
    try:
        functional_F(eig.lam, f, prof, n_theta=128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 2.0e6


def test_vorticity_is_mirrored_bit_for_bit(zg, prof, eig):
    f = _pert(eig, 1e-3)
    for n_theta in (16, 33, 64, 128):
        values = build_vorticity(f, prof, n_theta=n_theta).values
        for j in range(1, n_theta):
            np.testing.assert_array_equal(values[:, j], values[:, n_theta - j])


def _full_circle_F(lam, f, prof, n_theta):
    """functional_F sampling the field and reading psi on every column, as
    it did before the mirrored half circle: the reference F moved from."""
    from annulus_rotor.domain import circulation
    from annulus_rotor.nonlinear import _FIELD_NODES, vorticity_samples
    from annulus_rotor.poisson import RadialGrid, solve_full
    pad = 1.5 * float(max(np.max(np.abs(f.g_inner)),
                          np.max(np.abs(f.g_outer)), 1e-12))
    grid = RadialGrid.for_profile(CFG, f.eps, _FIELD_NODES, pad=pad)
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    omega = vorticity_samples(f, prof, grid.r, theta)
    psi = solve_full(omega, circulation(CFG), grid)
    targets = _band_targets(f, theta)
    vals = lam * targets ** 2 / 2.0 + grid.interpolate(psi, targets)
    return vals - vals.mean(axis=1, keepdims=True)


@pytest.mark.parametrize("n_theta", [32, 33, 128])
def test_F_matches_the_full_circle_reference(zg, prof, eig, n_theta):
    # measured: within 1.1e-16 at n_theta 16 to 128, sigma 1e-3 and 3.8e-3
    f = _pert(eig, 1e-3)
    res = functional_F(eig.lam, f, prof, n_theta=n_theta)
    ref = _full_circle_F(eig.lam, f, prof, n_theta)
    got = np.concatenate([res.inner, res.outer])
    assert np.max(np.abs(got - ref)) <= 1e-15


def _band_targets(f, theta):
    """The displaced radii rho + g cos(m theta) of both bands' z-nodes, one
    column per angle, inner band first (the points functional_F reads)."""
    cosm = np.cos(f.m * theta)
    return np.concatenate([
        (R + f.eps * f.zgrid.z)[:, None] + np.outer(g, cosm)
        for R, g in ((CFG.R1, f.g_inner), (CFG.R2, f.g_outer))])


def test_per_column_interpolation_matches_column_by_column(zg, prof, eig):
    from annulus_rotor.domain import circulation
    from annulus_rotor.poisson import solve_full
    f = _pert(eig, 1e-3)
    field = build_vorticity(f, prof, n_theta=32)
    grid = field.grid
    psi = solve_full(field.values, circulation(CFG), grid)
    targets = _band_targets(f, field.theta)
    # walls, nodes (a shared panel end among them) and a node's neighbour
    targets[:4] = grid.r[[0, 5, 47, -1]][:, None]
    targets[4, ::2] = grid.r[100]
    targets[5] = grid.r[[200]] + 1e-16
    out = grid.interpolate(psi, targets)
    assert out.shape == targets.shape
    ref = np.empty_like(targets)
    for j in range(psi.shape[1]):
        ref[:, j] = grid.interpolate(psi[:, j], targets[:, j])
    assert np.max(np.abs(out - ref)) <= 1e-15 * np.max(np.abs(psi))
    np.testing.assert_array_equal(out[:4], psi[[0, 5, 47, -1]])
    np.testing.assert_array_equal(out[4, ::2], psi[100, ::2])
    with pytest.raises(ValueError, match="per-column"):
        grid.interpolate(psi[:, :8], targets)


def _bary_read(grid, fvals, x):
    """grid.interpolate as it was before the Chebyshev read: per panel, the
    barycentric formula of `bary_interp` at the points of that panel, one
    column of points per column of fvals."""
    out = np.empty(x.shape)
    panel_of = np.clip(np.searchsorted(grid.edges, x, side="right") - 1,
                       0, len(grid.panel_slices) - 1)
    for p, idx in enumerate(grid.panel_slices):
        sel = panel_of == p
        rows = np.flatnonzero(sel.any(axis=1))
        if len(rows):
            vals = bary_interp(grid.r[idx], fvals[idx], x[rows],
                               _reference_panel("lobatto", len(idx)).bary)
            out[rows] = np.where(sel[rows], vals, out[rows])
    return out


@pytest.mark.parametrize("sigma", [1e-3, 3.8e-3])
def test_chebyshev_read_matches_the_barycentric_oracle(zg, prof, eig, sigma):
    # psi of F's field at both bands' displaced radii, on F's half circle;
    # measured: within 1.6e-15 (sigma 1e-3) and 1.5e-15 (3.8e-3) of max|psi|
    from annulus_rotor.domain import circulation
    from annulus_rotor.poisson import solve_full
    f = _pert(eig, sigma)
    field = build_vorticity(f, prof, n_theta=128)
    grid = field.grid
    psi = solve_full(field.values, circulation(CFG), grid)[:, :65]
    targets = _band_targets(f, field.theta[:65])
    got = grid.interpolate(psi, targets)
    assert np.max(np.abs(got - _bary_read(grid, psi, targets))) \
        <= 1e-14 * np.max(np.abs(psi))


def _smooth(r, theta):
    return np.sin(7.0 * r) * np.cos(3.0 * theta) + np.log(r)


def test_band_reads_are_spectrally_accurate(zg, prof, eig, monkeypatch):
    # sin(7 r) cos(3 theta) + log r at both bands' displaced radii: the
    # interpolant, and functional_F's read (psi replaced by the field, lam
    # = 0), err at rounding: 2.9e-15 (a cubic spline errs by 1.4e-13)
    from annulus_rotor import nonlinear
    f = _pert(eig, 1e-3)
    field = build_vorticity(f, prof, n_theta=128)
    grid, theta = field.grid, field.theta
    smooth = _smooth(grid.r[:, None], theta[None, :])
    targets = _band_targets(f, theta)
    exact = _smooth(targets, theta[None, :])
    assert np.max(np.abs(grid.interpolate(smooth, targets) - exact)) <= 1e-14
    monkeypatch.setattr(nonlinear, "solve_full",
                        lambda omega, gamma, grid:
                        _smooth(grid.r[:, None], theta[None, :]))
    res = functional_F(0.0, f, prof, n_theta=128)
    exact -= exact.mean(axis=1, keepdims=True)
    got = np.concatenate([res.inner, res.outer])
    assert np.max(np.abs(got - exact)) <= 1e-14


def _spline_F(lam, f, prof, n_theta):
    """functional_F reading psi by per-column cubic splines, as it did
    before the barycentric read: the reference F moved from."""
    from scipy.interpolate import CubicSpline
    from annulus_rotor.domain import circulation
    from annulus_rotor.poisson import solve_full
    field = build_vorticity(f, prof, n_theta=n_theta)
    grid = field.grid
    psi = solve_full(field.values, circulation(CFG), grid)
    cs = CubicSpline(grid.r, psi, axis=0)
    targets = _band_targets(f, field.theta)
    interval = np.clip(np.searchsorted(grid.r, targets, side="right") - 1,
                       0, grid.n - 2)
    c = cs.c[:, interval, np.arange(psi.shape[1])]
    dx = targets - grid.r[interval]
    vals = lam * targets ** 2 / 2.0 \
        + (((c[0] * dx + c[1]) * dx + c[2]) * dx + c[3])
    return vals - vals.mean(axis=1, keepdims=True)


def test_F_matches_the_spline_reference(zg, prof, eig):
    f = _pert(eig, 1e-3)
    res = functional_F(eig.lam, f, prof, n_theta=128)
    ref = _spline_F(eig.lam, f, prof, 128)
    got = np.concatenate([res.inner, res.outer])
    assert np.max(np.abs(got - ref)) <= 1e-13      # 1.8e-14 measured


def _mass(field):
    """Integral of the field over the annulus with the plane area measure."""
    dtheta = field.theta[1] - field.theta[0]
    radial = field.values @ np.full(len(field.theta), dtheta)
    return float(np.dot(field.grid.w, field.grid.r * radial))


def test_vorticity_mass_drift_is_second_order(zg, prof, eig):
    masses = {}
    for sigma in (0.0, 1e-3, 2e-3):
        f = _pert(eig, sigma)
        field = build_vorticity(f, prof, n_theta=64)
        masses[sigma] = _mass(field)
    base = masses[0.0]
    d1 = abs(masses[1e-3] - base)
    d2 = abs(masses[2e-3] - base)
    # quadratic in sigma: 2x amplitude -> ~4x drift; and tiny vs the mass
    assert d1 < 1e-6 * abs(base) + 1e-12
    assert d2 / max(d1, 1e-18) == pytest.approx(4.0, rel=0.6)


def test_functional_vanishes_on_trivial_branch(zg, prof):
    f0 = LevelSetPerturbation(m=M_MODE, zgrid=zg, g_inner=np.zeros(zg.n),
                              g_outer=np.zeros(zg.n), cfg=CFG, eps=EPS)
    for lam in (0.0, 0.11, -0.3):
        res = functional_F(lam, f0, prof, n_theta=16)
        assert res.sup() < 1e-11


def test_functional_zero_angular_mean_and_even(zg, prof, eig):
    f = _pert(eig, 1e-3)
    res = functional_F(eig.lam, f, prof, n_theta=64)
    assert np.max(np.abs(res.inner.mean(axis=1))) < 1e-15
    assert np.max(np.abs(res.outer.mean(axis=1))) < 1e-15
    # evenness in theta: column k matches column n-k
    for block in (res.inner, res.outer):
        flipped = block[:, 1:][:, ::-1]
        np.testing.assert_allclose(block[:, 1:], flipped[:, ::-1][:, :],
                                   atol=1e-12)
        np.testing.assert_allclose(block[:, 1:], flipped, atol=1e-10)


def test_functional_quadratic_in_amplitude_at_branch_rate(zg, prof, eig):
    sups = []
    sigmas = (1e-3, 5e-4, 2.5e-4)
    for sigma in sigmas:
        f = _pert(eig, sigma)
        res = functional_F(eig.lam, f, prof, n_theta=48)
        sups.append(res.sup())
    assert sups[0] > sups[1] > sups[2]
    for hi, lo in zip(sups[:-1], sups[1:]):
        assert 2.5 <= hi / lo <= 6.0     # halving sigma ~quarters the norm


def test_linearization_matches_operator(zg, prof, eig):
    results = linearization_check(eig, CFG, prof, taus=(1e-4, 5e-5), seed=3)
    for r in results:
        assert r["rel_errors"][0] <= 0.02
        ratio = r["rel_errors"][0] / max(r["rel_errors"][1], 1e-16)
        assert ratio >= 1.5          # first-order convergence in tau


def test_linearization_directions_are_reproducible_per_seed(prof, eig):
    # the Weyl cubics: 40 distinct coefficients in (-1, 1) per seed, the
    # same on every call, other directions at another seed
    c0, c1 = _weyl_cubics(0), _weyl_cubics(1)
    assert c0.shape == (5, 2, 4)
    assert np.array_equal(c0, _weyl_cubics(0))
    for c in (c0, c1):
        assert np.all(np.abs(c) < 1.0)
        assert np.unique(c).size == 40
    assert not np.intersect1d(c0, c1).size
    taus = (1e-4,)
    a = linearization_check(eig, CFG, prof, taus=taus, seed=0)
    b = linearization_check(eig, CFG, prof, taus=taus, seed=0)
    c = linearization_check(eig, CFG, prof, taus=taus, seed=1)
    assert a == b
    assert all(ra["ref"] != rc["ref"] for ra, rc in zip(a, c))


def test_linearization_stays_in_mode(zg, prof, eig):
    # a mode-m direction produces a residual whose other cos modes vanish
    rng = np.random.default_rng(5)
    g_in = sum(c * zg.z ** k for k, c in enumerate(rng.standard_normal(4)))
    g_out = sum(c * zg.z ** k for k, c in enumerate(rng.standard_normal(4)))
    tau = 1e-4
    pert = LevelSetPerturbation(m=M_MODE, zgrid=zg, g_inner=tau * g_in,
                                g_outer=tau * g_out, cfg=CFG, eps=EPS)
    res = functional_F(eig.lam, pert, prof, n_theta=64)
    spec = np.abs(np.fft.rfft(res.outer, axis=1)).sum(axis=0)
    lead = spec[M_MODE]
    others = np.delete(spec, [0, M_MODE])
    # harmonics enter at O(tau^2); the m-mode carries the linear signal
    assert np.max(others) < 0.02 * lead


def test_sobolev_sigma0_band_identities(prof):
    # the band identity is a change of variables: exact under a shared rule
    out = sobolev_distance(prof, 1.0)
    zgf = ZGrid(64)
    ref = EPS * float(np.dot(zgf.w, prof.edge_prime(zgf.z) ** 2))
    for band in (1, 2):
        assert out["band_h1_sq"][band] == pytest.approx(ref, rel=1e-10)
    bound = h2_band_bound(prof)
    for band in (1, 2):
        assert out["band_h2_curv_sq"][band] <= bound
        assert out["band_h2_curv_sq"][band] >= 0.01 * bound


def test_sobolev_eps_scaling(prof):
    h1 = {}
    for eps in (2e-2, 1e-2, 5e-3):
        p = TrapezoidProfile(CFG, eps, KAPPA)
        h1[eps] = sobolev_distance(p, 1.0)["h1"]
    slopes = np.diff(np.log([h1[2e-2], h1[1e-2], h1[5e-3]])) / np.diff(
        np.log([2e-2, 1e-2, 5e-3]))
    assert np.all(np.abs(slopes - 0.5) < 0.05)


def test_sobolev_domain_error(prof):
    with pytest.raises(ValueError):
        sobolev_distance(prof, 1.5)


def test_sobolev_with_perturbation_close_to_unperturbed(prof, eig):
    f = _pert(eig, 1e-3)
    base = sobolev_distance(prof, 1.0)
    pert = sobolev_distance(prof, 1.0, f=f)
    assert abs(pert["h1"] - base["h1"]) < 0.05 * base["h1"]


def test_sobolev_distance_reuses_one_grid(prof, eig, monkeypatch):
    # one z-grid per process and one L2 part per profile: a second call
    # builds neither a ZGrid nor a RadialGrid, and its values keep their bits
    from annulus_rotor import nonlinear
    from annulus_rotor.poisson import RadialGrid
    first = [sobolev_distance(prof, 1.0),
             sobolev_distance(prof, 1.0, f=_pert(eig, 1e-3))]
    built = []
    monkeypatch.setattr(nonlinear, "ZGrid",
                        lambda *a, **k: built.append(a) or ZGrid(*a, **k))
    post_init = RadialGrid.__post_init__
    monkeypatch.setattr(RadialGrid, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    again = [sobolev_distance(prof, 1.0),
             sobolev_distance(prof, 1.0, f=_pert(eig, 1e-3))]
    assert not built
    for a, b in zip(first, again):
        assert a == b


def test_continue_branch_small_amplitude(zg, prof, eig):
    zgb = ZGrid(40)
    pts = continue_branch(eig, CFG, prof, sigma_target=2e-4, steps=2,
                          n_theta=32, zgrid=zgb)
    assert all(p.residual <= 1e-9 for p in pts)
    # the kernel ray already meets the default tolerance: no Newton step
    assert all(p.newton_iters == 0 for p in pts)
    last = pts[-1]
    h_in, h_out = _kernel_direction(eig, zgb)
    gap = np.sqrt(float(np.dot(zgb.w, (last.g_inner / last.sigma - h_in) ** 2)
                        + np.dot(zgb.w, (last.g_outer / last.sigma - h_out) ** 2)))
    assert gap <= 0.05
    assert abs(last.lam - eig.lam) <= 0.01 * abs(eig.lam)


def test_continue_branch_larger_amplitude_corrects(zg, prof, eig):
    # at sigma = 3e-3 the kernel-ray residual exceeds the tolerance and the
    # bordered Newton must genuinely move the iterate
    zgb = ZGrid(40)
    pts = continue_branch(eig, CFG, prof, sigma_target=3e-3, steps=3,
                          n_theta=32, tol=1e-10, zgrid=zgb)
    assert all(p.residual <= 1e-10 for p in pts)
    assert any(p.newton_iters >= 1 for p in pts)
    h_in, h_out = _kernel_direction(eig, zgb)
    last = pts[-1]
    dev = np.sqrt(float(np.dot(zgb.w, (last.g_inner / last.sigma - h_in) ** 2)
                        + np.dot(zgb.w,
                                 (last.g_outer / last.sigma - h_out) ** 2)))
    assert 0.0 < dev <= 0.05      # nontrivial correction, still close to h


def branch_residual(eig, prof, zgb, sigma, x, n_theta=32):
    """Reference: the bordered mode-m residual that `continue_branch` drives
    to zero, at x = (inner samples, outer samples, rate)."""
    n = zgb.n
    pert = LevelSetPerturbation(m=M_MODE, zgrid=zgb, g_inner=x[:n],
                                g_outer=x[n:-1], cfg=CFG, eps=EPS)
    f_in, f_out = functional_F(x[-1], pert, prof, n_theta=n_theta).mode(M_MODE)
    amplitude = np.dot(np.concatenate([zgb.w, zgb.w]),
                       np.concatenate(_kernel_direction(eig, zgb)) * x[:-1])
    return np.concatenate([f_in, f_out, [amplitude - sigma]])


def fd_jacobian(residual, x, h=1e-7):
    """Reference: the forward-difference Jacobian the branch Newton was
    first built on (one residual evaluation per unknown, plus the base)."""
    base = residual(x)
    J = np.empty((len(base), len(x)))
    for k in range(len(x)):
        xp = x.copy()
        xp[k] += h
        J[:, k] = (residual(xp) - base) / h
    return J


def chord_jacobian(eig, prof, zgb, x):
    """The bordered matrix `continue_branch` solves with at iterate x."""
    n = 2 * zgb.n
    J = np.zeros((n + 1, n + 1))
    J[:-1, :-1] = _mode_jacobian(eig, eig.lam, prof, zgb)
    J[-1, :-1] = (np.concatenate([zgb.w, zgb.w])
                  * np.concatenate(_kernel_direction(eig, zgb)))
    J[:-1, -1] = _band_radii(prof, zgb) * x[:-1]
    return J


@pytest.mark.parametrize("sigma,nz,steps,tol",
                         [(1e-3, 48, 2, 1e-11), (3e-3, 40, 3, 1e-10)])
def test_chord_jacobian_contracts_against_fd_reference(prof, eig, sigma, nz,
                                                       steps, tol):
    zgb = ZGrid(nz)
    last = continue_branch(eig, CFG, prof, sigma_target=sigma, steps=steps,
                           n_theta=32, tol=tol, zgrid=zgb)[-1]
    x = np.concatenate([last.g_inner, last.g_outer, [last.lam]])
    J = chord_jacobian(eig, prof, zgb, x)
    J_fd = fd_jacobian(lambda y: branch_residual(eig, prof, zgb, sigma, y), x)
    # the chord iteration contracts by the spectral radius of I - J^-1 J_fd
    radius = np.max(np.abs(np.linalg.eigvals(
        np.eye(len(x)) - np.linalg.solve(J, J_fd))))
    assert radius <= 1e-2
    # F is affine in the rate, so its FD column is exact up to rounding
    assert np.max(np.abs(J[:, -1] - J_fd[:, -1])) <= 1e-9


def _count_calls(monkeypatch, name):
    from annulus_rotor import nonlinear
    calls = []
    original = getattr(nonlinear, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(nonlinear, name, counted)
    return calls


def test_continue_branch_evaluation_counts(prof, eig, monkeypatch):
    evals = _count_calls(monkeypatch, "functional_F")
    assembles = _count_calls(monkeypatch, "assemble")
    # acceptance 10's settings: one chord step at the second point
    pts = continue_branch(eig, CFG, prof, sigma_target=1e-3, steps=2,
                          n_theta=32, tol=1e-11, zgrid=ZGrid(48))
    assert [p.newton_iters for p in pts] == [0, 1]
    assert len(evals) <= 4
    assert len(assembles) == 1
    # at the CLI tolerance the kernel ray already converges: no operator
    evals.clear()
    assembles.clear()
    pts = continue_branch(eig, CFG, prof, sigma_target=1e-3, steps=2,
                          n_theta=32, zgrid=ZGrid(48))
    assert all(p.newton_iters == 0 for p in pts)
    assert len(evals) == 2
    assert len(assembles) == 0
    # steps at two amplitudes still share one operator
    assembles.clear()
    pts = continue_branch(eig, CFG, prof, sigma_target=3e-3, steps=3,
                          n_theta=32, tol=1e-10, zgrid=ZGrid(40))
    assert [p.newton_iters for p in pts] == [0, 1, 1]
    assert len(assembles) == 1


def _last_residual(eig, prof, zgb, sigma, calls):
    lam, f = calls[-1][:2]
    x = np.concatenate([f.g_inner, f.g_outer, [lam]])
    return np.linalg.norm(branch_residual(eig, prof, zgb, sigma, x), np.inf)


def test_continue_branch_nonconvergence_carries_residual(prof, eig,
                                                         monkeypatch):
    evals = _count_calls(monkeypatch, "functional_F")
    zgb = ZGrid(40)
    with pytest.raises(NumericsError, match="did not converge") as err:
        continue_branch(eig, CFG, prof, sigma_target=1e-3, steps=1,
                        n_theta=32, tol=1e-16, max_newton=1, zgrid=zgb)
    # the guess and one accepted step; the error evaluates nothing again
    assert len(evals) == 2
    rn = _last_residual(eig, prof, zgb, 1e-3, evals)
    assert f"residual {rn:.3e} > tol 1e-16" in str(err.value)


def test_continue_branch_divergence_carries_residual(prof, eig, monkeypatch):
    from annulus_rotor import nonlinear
    evals = _count_calls(monkeypatch, "functional_F")
    zgb = ZGrid(40)
    # a chord matrix of the wrong sign steps uphill: r(x + s dx) ~ (1 + s) r,
    # so every halving fails far above the rounding floor
    true_jacobian = nonlinear._mode_jacobian
    monkeypatch.setattr(nonlinear, "_mode_jacobian",
                        lambda *args: -true_jacobian(*args))
    with pytest.raises(NumericsError, match="diverged after 5 halvings") as err:
        continue_branch(eig, CFG, prof, sigma_target=3e-3, steps=1,
                        n_theta=32, tol=1e-10, zgrid=zgb)
    # the guess, then five halvings of the first step
    assert len(evals) == 6
    rn = _last_residual(eig, prof, zgb, 3e-3, evals[:1])
    assert rn > 1e-10
    assert f"residual {rn:.3e} > tol 1e-10 and rounding floor" \
        in str(err.value)


def test_continue_branch_accepts_the_rounding_floor(prof, eig, monkeypatch):
    # at tol = 0 the residual reaches F's rounding floor (2e-17 to 5e-17
    # here), where a step lowers it only by chance; once every halving
    # fails there, the point is accepted rather than reported diverged
    evals = _count_calls(monkeypatch, "functional_F")
    zgb = ZGrid(40)
    sigma = 1e-3
    (point,) = continue_branch(eig, CFG, prof, sigma_target=sigma, steps=1,
                               n_theta=32, tol=0.0, max_newton=100,
                               zgrid=zgb)
    # a trial is accepted exactly when it lowers the least residual so far
    residuals = [_last_residual(eig, prof, zgb, sigma, [call])
                 for call in evals]
    accepted = sum(b < min(residuals[:i + 1])
                   for i, b in enumerate(residuals[1:]))
    assert point.newton_iters == accepted >= 1
    assert point.residual == min(residuals)
    x = np.concatenate([point.g_inner, point.g_outer])
    shift = np.max(_band_radii(prof, zgb) + np.abs(x))
    assert point.residual <= 16 * np.finfo(float).eps \
        * abs(point.lam) * shift ** 2 / 2


def test_build_vorticity_rejects_folding(zg, prof, eig):
    f = _pert(eig, 1.0)    # huge amplitude folds the level sets
    with pytest.raises(NumericsError):
        build_vorticity(f, prof, n_theta=8)


def test_F_unchanged_by_interpolated_edge_rows(zg, prof, eig):
    # F at sigma 1e-3 with `ZGrid.ends` against the same grid whose edge
    # rows come from `bary_interp` over the columns of the identity
    f = _pert(eig, 1e-3)
    ref_grid = ZGrid(zg.n)
    object.__setattr__(ref_grid, "ends", bary_interp(
        zg.z, np.eye(zg.n), np.array([[-1.0], [1.0]]),
        _reference_panel("gauss", zg.n).bary))
    f_ref = LevelSetPerturbation(m=f.m, zgrid=ref_grid, g_inner=f.g_inner,
                                 g_outer=f.g_outer, cfg=CFG, eps=EPS)
    new = functional_F(eig.lam, f, prof, n_theta=64)
    ref = functional_F(eig.lam, f_ref, prof, n_theta=64)
    scale = ref.sup()
    assert np.max(np.abs(new.inner - ref.inner)) <= 1e-15 * scale
    assert np.max(np.abs(new.outer - ref.outer)) <= 1e-15 * scale


def _to_legendre(zgrid):
    """The grid's values -> Legendre coefficients matrix, by the Gauss
    rule's discrete orthogonality."""
    from annulus_rotor.quadrature import _legendre_analysis
    return _legendre_analysis(zgrid.z, zgrid.w)


def _edges_by_legval(self, band):
    """Reference: the band-edge values read by one-point Legendre sums at
    z = -1 and z = 1, as `vorticity_samples` once did."""
    from numpy.polynomial.legendre import legval
    c = _to_legendre(self.zgrid) @ (self.g_inner if band == 1
                                    else self.g_outer)
    return float(legval(-1.0, c)), float(legval(1.0, c))


def _slope_by_legder(self):
    """Reference: the fold check's slope from the differentiated Legendre
    series, as `max_slope` once read it."""
    from numpy.polynomial.legendre import legder, legval
    slopes = [legval(self.zgrid.z, legder(_to_legendre(self.zgrid) @ g))
              for g in (self.g_inner, self.g_outer)]
    return float(np.max(np.abs(slopes))) / self.eps


@pytest.mark.parametrize("sigma", [1e-3, 3.8e-3])
def test_F_from_edge_rows_matches_legendre_sums(zg, prof, eig, sigma,
                                               monkeypatch):
    f = _pert(eig, sigma)
    new = [functional_F(eig.lam, f, prof, n_theta=n) for n in (32, 64, 128)]
    monkeypatch.setattr(LevelSetPerturbation, "edge_values", _edges_by_legval)
    monkeypatch.setattr(LevelSetPerturbation, "max_slope", _slope_by_legder)
    ref = [functional_F(eig.lam, f, prof, n_theta=n) for n in (32, 64, 128)]
    for a, b in zip(new, ref):
        assert np.max(np.abs(a.inner - b.inner)) <= 1e-16
        assert np.max(np.abs(a.outer - b.outer)) <= 1e-16


@pytest.mark.parametrize("steps, most", [(1, 4), (2, 6)])
def test_continue_branch_stops_at_the_rounding_floor(prof, eig, monkeypatch,
                                                     steps, most):
    # at tol = 0 a point stops once its residual reaches F's rounding floor,
    # not after five failed halvings of a step below it (13 and 29
    # evaluations before)
    evals = _count_calls(monkeypatch, "functional_F")
    pts = continue_branch(eig, CFG, prof, sigma_target=1e-3, steps=steps,
                          n_theta=32, tol=0.0, max_newton=100,
                          zgrid=ZGrid(40))
    assert len(pts) == steps
    assert len(evals) <= most


# -- the profile fixes the annulus and eps of everything built on it --------

# the desk annulus with the inner band moved: a valid config, not the
# profile's
OTHER_CFG = replace(CFG, R1=1.25)

ENTRY_POINTS = {
    "build_eigensolution":
        lambda eig, cfg, prof: build_eigensolution(cfg, prof, M_MODE,
                                                   eig.zgrid),
    "validate_kernel": lambda eig, cfg, prof: validate_kernel(eig, cfg, prof),
    "adjoint_kernel": lambda eig, cfg, prof: adjoint_kernel(eig, cfg, prof),
    "transversality":
        lambda eig, cfg, prof: transversality(eig, {}, cfg, prof),
    "operator_residual":
        lambda eig, cfg, prof: operator_residual(eig, cfg, prof),
    "linearization_check":
        lambda eig, cfg, prof: linearization_check(eig, cfg, prof),
    "continue_branch":
        lambda eig, cfg, prof: continue_branch(eig, cfg, prof, 1e-3),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_refuse_a_config_other_than_the_profiles(prof, eig,
                                                              entry):
    cached = eig._mode_op
    with pytest.raises(ConfigError, match=r"config AnnulusConfig\(.*R1=1\.25"
                       r".*is not the profile's config AnnulusConfig\(.*"
                       r"R1=1\.2,"):
        ENTRY_POINTS[entry](eig, OTHER_CFG, prof)
    # nothing built from the mixed pair is kept
    assert eig._mode_op is cached


@pytest.mark.parametrize("meet", [
    lambda eig, prof: _mode_operator(eig, prof),
    lambda eig, prof: _mode_jacobian(eig, eig.lam, prof, eig.zgrid),
    lambda eig, prof: transversality(eig, {}, CFG, prof),
    lambda eig, prof: continue_branch(eig, CFG, prof, 1e-3)],
    ids=["_mode_operator", "_mode_jacobian", "transversality",
         "continue_branch"])
def test_eigensolution_refuses_a_profile_of_another_eps(eig, meet):
    # a profile of another kappa is allowed (test_kernel's shared-operator
    # test); one of another eps is not
    other = TrapezoidProfile(CFG, 2e-2, KAPPA)
    with pytest.raises(ConfigError, match=r"eps 0\.01 is not the profile's "
                       r"eps 0\.02"):
        meet(eig, other)


@pytest.mark.parametrize("use", [
    lambda f, prof: vorticity_samples(f, prof, np.array([CFG.R2]),
                                      np.zeros(1)),
    lambda f, prof: functional_F(0.07, f, prof, n_theta=16),
    lambda f, prof: initial_state(CFG, prof, f, nr=16, ntheta=16),
    lambda f, prof: sobolev_distance(prof, 1.0, f=f)],
    ids=["vorticity_samples", "functional_F", "initial_state",
         "sobolev_distance"])
@pytest.mark.parametrize("field,value", [("eps", 2e-2), ("cfg", OTHER_CFG)])
def test_fields_refuse_a_perturbation_built_for_another_profile(
        prof, eig, use, field, value):
    f = replace(LevelSetPerturbation.from_kernel(eig, CFG, amplitude=1e-3),
                **{field: value})
    with pytest.raises(ConfigError, match="is not the profile's"):
        use(f, prof)


def test_continue_branch_refuses_fewer_than_one_step(prof, eig):
    with pytest.raises(OutOfDomainError, match=r"steps must be at least 1; "
                       r"got 0"):
        continue_branch(eig, CFG, prof, 1e-3, steps=0)
