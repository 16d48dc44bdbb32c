import numpy as np
import pytest

from annulus_rotor.domain import circulation, u_tc
from annulus_rotor.linop import _green
from annulus_rotor.poisson import (RadialGrid, solve_axisymmetric,
                                   solve_full, solve_mode)
from annulus_rotor.profile import TrapezoidProfile

from axisymmetric import axisymmetric_prime
from desk import DESK_CFG as CFG
from fd_oracle import fd_bvp_solve


def make_grid(nodes=(64, 128, 64, 128, 64), eps=1e-2):
    return RadialGrid.for_profile(CFG, eps, nodes)


def test_greens_kernel_sign_symmetry():
    grid = make_grid()
    r = grid.r[::17]
    x, y = r[:, None], r[None, :]
    # the band operator's kernel, the inner argument first
    G = _green(4, np.minimum(x, y), np.maximum(x, y), CFG.r1, CFG.r2)
    assert np.all(G <= 0.0)
    np.testing.assert_allclose(G, G.T, rtol=1e-13)
    # Dirichlet: kernel vanishes when either argument hits a wall
    inner = _green(4, np.array([CFG.r1]), r, CFG.r1, CFG.r2)
    outer = _green(4, r, np.array([CFG.r2]), CFG.r1, CFG.r2)
    assert np.max(np.abs(inner)) < 1e-14
    assert np.max(np.abs(outer)) < 1e-14


def test_radial_grid_band_edges_are_nodes():
    grid = make_grid()
    for edge in grid.edges:
        assert np.min(np.abs(grid.r - edge)) < 1e-13
    assert np.all(grid.w > 0.0)
    assert abs(np.sum(grid.w) - (CFG.r2 - CFG.r1)) < 1e-12


def test_cumulative_integration_spectral():
    grid = make_grid()
    f = np.exp(grid.r)
    cum = grid.cumulative(f)
    exact = np.exp(grid.r) - np.exp(CFG.r1)
    np.testing.assert_allclose(cum, exact, atol=1e-13, rtol=1e-13)


def test_solve_mode_zero_source():
    grid = make_grid()
    f = solve_mode(3, np.zeros(grid.n), grid, CFG.r1, CFG.r2)
    assert np.max(np.abs(f)) == 0.0


def _manufactured(n, grid):
    r = grid.r
    r1, r2 = CFG.r1, CFG.r2
    fstar = np.sin(np.pi * (r - r1) / (r2 - r1))
    fp = np.pi / (r2 - r1) * np.cos(np.pi * (r - r1) / (r2 - r1))
    fpp = -(np.pi / (r2 - r1)) ** 2 * fstar
    g = fpp + fp / r - (n / r) ** 2 * fstar
    return fstar, g


@pytest.mark.parametrize("n", [1, 2, 5, 9, 16])
def test_solve_mode_manufactured(n):
    grid = RadialGrid.for_profile(CFG, 1e-2, (96, 112, 96, 112, 96))  # 512 nodes
    fstar, g = _manufactured(n, grid)
    f = solve_mode(n, g, grid, CFG.r1, CFG.r2)
    rel = np.sqrt(grid.integrate((f - fstar) ** 2) / grid.integrate(fstar ** 2))
    assert rel < 1e-8


def test_solve_mode_linear():
    grid = make_grid()
    rng = np.random.default_rng(7)
    g1 = rng.standard_normal(grid.n)
    g2 = rng.standard_normal(grid.n)
    a, b = 0.37, -1.21
    lhs = solve_mode(4, a * g1 + b * g2, grid, CFG.r1, CFG.r2)
    rhs = a * solve_mode(4, g1, grid, CFG.r1, CFG.r2) \
        + b * solve_mode(4, g2, grid, CFG.r1, CFG.r2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(lhs)))
    # an array of modes with complex source columns solves each column as
    # its own mode, real and imaginary parts alike
    modes = np.array([1, 4, 9, 16])
    G = rng.standard_normal((grid.n, 4)) + 1j * rng.standard_normal((grid.n, 4))
    F = solve_mode(modes, G, grid, CFG.r1, CFG.r2)
    for k, n in enumerate(modes):
        ref = solve_mode(n, G[:, k].real, grid, CFG.r1, CFG.r2) \
            + 1j * solve_mode(n, G[:, k].imag, grid, CFG.r1, CFG.r2)
        assert np.max(np.abs(F[:, k] - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_solve_mode_interior_maximum_for_sign_definite_source():
    grid = make_grid()
    prof = TrapezoidProfile(CFG, 1e-2, 0.1)
    g = prof.derivative(grid.r) ** 2 + prof.value(grid.r)   # g >= 0
    f = solve_mode(2, g, grid, CFG.r1, CFG.r2)
    assert np.all(f <= 1e-15)              # kernel is nonpositive
    k = np.argmax(np.abs(f))
    assert 0 < k < grid.n - 1


def test_solve_mode_against_fd_oracle_band_source():
    grid = RadialGrid.for_profile(CFG, 1e-2, (128, 256, 160, 256, 128))
    prof = TrapezoidProfile(CFG, 1e-2, 0.1)
    m = 3

    def g_fn(r):
        z = np.clip((r - CFG.R2) / prof.eps, -1, 1)
        b0_like = 1.0 / (1.0 + 0.3 * z)
        return prof.derivative(r) * b0_like

    f = solve_mode(m, g_fn(grid.r), grid, CFG.r1, CFG.r2)
    # independent oracle: band-graded mesh + Richardson
    base = np.unique(np.concatenate([
        np.linspace(CFG.r1, CFG.r2, 384),
        np.linspace(CFG.R1 - 2e-2, CFG.R1 + 2e-2, 384),
        np.linspace(CFG.R2 - 2e-2, CFG.R2 + 2e-2, 384)]))
    rf, ffd = fd_bvp_solve(m, g_fn, CFG.r1, CFG.r2, grid_nodes=base,
                           richardson=True)
    ours = grid.interpolate(f, rf)
    rel = np.linalg.norm(ours - ffd) / np.linalg.norm(ffd)
    assert rel < 1e-6


def test_axisymmetric_taylor_couette_recovery():
    grid = make_grid()
    gamma = circulation(CFG)
    w0 = np.full(grid.n, 2.0 * CFG.A)
    psi = solve_axisymmetric(grid, w0, gamma, CFG.r1, CFG.r2)
    assert abs(psi[0]) < 1e-14
    assert abs(psi[-1] - gamma) < 1e-12
    dpsi = axisymmetric_prime(grid, w0, gamma, CFG.r1, CFG.r2)
    np.testing.assert_allclose(-dpsi, u_tc(CFG, grid.r), rtol=1e-10, atol=1e-10)


def test_axisymmetric_zero():
    grid = make_grid()
    psi = solve_axisymmetric(grid, np.zeros(grid.n), 0.0, CFG.r1, CFG.r2)
    assert np.max(np.abs(psi)) < 1e-15


def test_solve_full_axisymmetric_consistency():
    grid = make_grid((32, 48, 32, 48, 32))
    ntheta = 32
    gamma = circulation(CFG)
    prof = TrapezoidProfile(CFG, 1e-2, 0.1)
    w0 = 2 * CFG.A + prof.value(grid.r)
    omega = np.tile(w0[:, None], (1, ntheta))
    psi = solve_full(omega, gamma, grid, CFG)
    ref = solve_axisymmetric(grid, w0, gamma, CFG.r1, CFG.r2)
    assert np.max(np.abs(psi - ref[:, None])) < 1e-12


def test_solve_full_manufactured():
    grid = RadialGrid.for_profile(CFG, 1e-2, (64, 96, 64, 96, 64))
    ntheta = 64
    th = 2 * np.pi * np.arange(ntheta) / ntheta
    r = grid.r[:, None]
    r1, r2 = CFG.r1, CFG.r2
    Rr = (r - r1) * (r2 - r)
    psi_star = Rr * np.cos(3 * th)[None, :]
    # -(lap) psi* with lap = d_rr + d_r/r + d_tt/r^2
    d1 = (r1 + r2 - 2 * r)
    d2 = -2.0 * np.ones_like(r)
    omega = -(d2 + d1 / r - 9.0 * Rr / r ** 2) * np.cos(3 * th)[None, :]
    psi = solve_full(omega, 0.0, grid, CFG)
    rel = np.sqrt(np.sum((psi - psi_star) ** 2) / np.sum(psi_star ** 2))
    assert rel < 1e-7


def test_velocity_recovery_divergence_free():
    # u = (d_theta psi / r, -d_r psi): discrete divergence vanishes because
    # the angular (spectral) and radial derivative operators commute
    grid = make_grid((24, 32, 24, 32, 24))
    ntheta = 32
    rng = np.random.default_rng(5)
    modes = rng.standard_normal((grid.n, 5))
    th = 2 * np.pi * np.arange(ntheta) / ntheta
    psi = sum(np.outer(modes[:, k], np.cos((k + 1) * th)) for k in range(5))
    dth = np.fft.irfft(np.fft.rfft(psi, axis=1)
                       * (1j * np.arange(ntheta // 2 + 1))[None, :], n=ntheta, axis=1)
    # radial derivative via per-panel spectral differentiation of r*u_r
    ur = dth / grid.r[:, None]
    ru_r = grid.r[:, None] * ur
    div = grid.derivative(ru_r) / grid.r[:, None]
    dth_utheta = np.fft.irfft(np.fft.rfft(-grid.derivative(psi), axis=1)
                              * (1j * np.arange(ntheta // 2 + 1))[None, :],
                              n=ntheta, axis=1)
    div += dth_utheta / grid.r[:, None]
    assert np.max(np.abs(div)) < 1e-8 * max(1.0, np.max(np.abs(ru_r)))


def test_greens_vs_oracle_converge_on_refinement():
    prof = TrapezoidProfile(CFG, 1e-2, 0.1)

    def g_fn(r):
        return prof.derivative(r)

    grid = RadialGrid.for_profile(CFG, 1e-2, (32, 64, 32, 64, 32))
    f_c = solve_mode(2, g_fn(grid.r), grid, CFG.r1, CFG.r2)
    base = np.unique(np.concatenate([
        np.linspace(CFG.r1, CFG.r2, 256),
        np.linspace(CFG.R1 - 3e-2, CFG.R1 + 3e-2, 256),
        np.linspace(CFG.R2 - 3e-2, CFG.R2 + 3e-2, 256)]))
    r_lo, f_lo = fd_bvp_solve(2, g_fn, CFG.r1, CFG.r2, grid_nodes=base)
    fine = np.sort(np.concatenate([base, 0.5 * (base[:-1] + base[1:])]))
    r_hi, f_hi = fd_bvp_solve(2, g_fn, CFG.r1, CFG.r2, grid_nodes=fine)
    err_lo = np.max(np.abs(grid.interpolate(f_c, r_lo) - f_lo))
    err_hi = np.max(np.abs(grid.interpolate(f_c, r_hi) - f_hi))
    assert err_hi < 0.5 * err_lo   # oracle converges toward the Green solve


def test_barycentric_weights_built_once_per_node_count():
    from annulus_rotor.nonlinear import _interp_gauss
    from annulus_rotor.quadrature import (ZGrid, gauss_bary_weights,
                                          lobatto_bary_weights)
    nodes = (17, 33, 17, 33, 17)
    grid = make_grid(nodes)
    rules = {lobatto_bary_weights: [grid.r[idx] for idx in grid.panel_slices],
             gauss_bary_weights: [ZGrid(n).z for n in (17, 33)]}
    for weights, panels in rules.items():
        for x in panels:
            # 1 / prod_{k != j} (x_j - x_k) on the (mapped) panel, which an
            # affine map scales by one factor (up to the nodes' rounding,
            # 1e-12 here)
            d = 4.0 * (x[:, None] - x[None, :]) / (x[-1] - x[0])
            np.fill_diagonal(d, 1.0)
            ratio = (1.0 / np.prod(d, axis=1)) / weights(len(x))
            assert np.max(np.abs(ratio / ratio[0] - 1.0)) <= 1e-11
    f = np.sin(3 * grid.r)
    grid.interpolate(f, [1.3])
    grid.derivative(f)
    built = {weights: weights.cache_info().misses for weights in rules}
    # second grids with the same node counts build no weights
    other = make_grid(nodes, eps=2e-2)
    x = np.linspace(CFG.r1, CFG.r2, 7)
    np.testing.assert_allclose(other.interpolate(np.sin(3 * other.r), x),
                               np.sin(3 * x), rtol=0, atol=1e-12)
    np.testing.assert_allclose(other.derivative(np.sin(3 * other.r)),
                               3 * np.cos(3 * other.r), rtol=0, atol=1e-9)
    z = np.linspace(-1.0, 1.0, 7)
    for n in (17, 33):
        zg = ZGrid(n)
        np.testing.assert_allclose(_interp_gauss(zg, np.exp(zg.z), z),
                                   np.exp(z), rtol=0, atol=1e-12)
        np.testing.assert_allclose(zg.diff @ np.exp(zg.z), np.exp(zg.z),
                                   rtol=0, atol=1e-9)
    assert {weights: weights.cache_info().misses
            for weights in rules} == built


def _reference_solve_mode(n, g, grid, r1, r2):
    """solve_mode as it was before it reused its work arrays (verbatim)."""
    from annulus_rotor.errors import NumericsError
    from annulus_rotor.poisson import mode_sinh
    n = np.asarray(n)
    if np.any(n < 1):
        raise ValueError("solve_mode handles n >= 1; use solve_axisymmetric")
    gv = np.asarray(g, dtype=complex if np.iscomplexobj(g) else float)
    if gv.shape != grid.r.shape + n.shape:
        raise NumericsError("modal field shape does not match the grid")
    full = float(np.log(r2 / r1))
    sn_full = mode_sinh(n, full)
    col = (-1,) + (1,) * n.ndim             # broadcast radial data over modes
    r = grid.r.reshape(col)
    logx = np.log(r / r1)
    sn_lo = mode_sinh(n, logx)                 # S_n(r/r1)
    sn_hi = mode_sinh(n, full - logx)          # S_n(r2/r)
    A = sn_lo * r * gv                         # integrand of L
    B = sn_hi * r * gv                         # integrand of R
    L = np.empty_like(A)
    R = np.empty_like(B)
    # panel totals once, then per-node partials via the W matrices
    totals_A = np.array([wl[-1] @ A[idx] for idx, wl
                         in zip(grid.panel_slices, grid._panel_wleft)])
    totals_B = np.array([wl[-1] @ B[idx] for idx, wl
                         in zip(grid.panel_slices, grid._panel_wleft)])
    zero = np.zeros_like(totals_A[:1])
    pref_A = np.concatenate((zero, np.cumsum(totals_A, axis=0)))
    suff_B = np.concatenate((np.cumsum(totals_B[::-1], axis=0)[::-1], zero))
    for p, (idx, wl) in enumerate(zip(grid.panel_slices, grid._panel_wleft)):
        L[idx] = pref_A[p] + wl @ A[idx]
        R[idx] = suff_B[p + 1] + (totals_B[p] - wl @ B[idx])
    f = -(sn_hi * L + sn_lo * R) / (n * sn_full)
    f[0] = 0.0
    f[-1] = 0.0
    return f


def _reference_solve_full(omega, gamma, grid, cfg):
    """solve_full as it was before the even-field path (verbatim, with the
    reference solve_mode): every field takes the complex spectrum."""
    from annulus_rotor.errors import NumericsError
    omega = np.asarray(omega, dtype=float)
    if omega.shape[0] != grid.n:
        raise NumericsError("omega radial dimension does not match the grid")
    ntheta = omega.shape[1]
    what = np.fft.rfft(omega, axis=1)
    psi_hat = np.empty_like(what)
    psi_hat[:, 0] = solve_axisymmetric(grid, what[:, 0].real, gamma * ntheta,
                                       cfg.r1, cfg.r2)
    # -(lap) psi = omega  =>  modal ODE source is -omega_k
    psi_hat[:, 1:] = _reference_solve_mode(np.arange(1, what.shape[1]),
                                           -what[:, 1:], grid, cfg.r1, cfg.r2)
    return np.fft.irfft(psi_hat, n=ntheta, axis=1)


def _even_field(grid, ntheta):
    """A smooth field even in theta, with band-sized radial structure and
    several angular modes: column ntheta - j is column j exactly."""
    th = 2 * np.pi * np.arange(ntheta) / ntheta
    r = grid.r[:, None]
    bands = np.exp(-((r - CFG.R1) / 0.02) ** 2) \
        + 0.5 * np.exp(-((r - CFG.R2) / 0.02) ** 2)
    omega = bands * (1.0 + 0.3 * np.cos(3 * th) + 0.1 * np.cos(6 * th)
                     + 0.02 * np.cos(7 * th)) + 0.15
    omega[:, ntheta // 2 + 1:] = omega[:, (ntheta - 1) // 2:0:-1]
    return omega


@pytest.mark.parametrize("ntheta", [16, 33, 128])
def test_solve_full_of_an_even_field_solves_real_cosine_modes(ntheta,
                                                              monkeypatch):
    from annulus_rotor import poisson
    grid = make_grid((48, 96, 48, 96, 48))
    omega = _even_field(grid, ntheta)
    assert np.array_equal(omega[:, 1:], omega[:, :0:-1])
    sources = []
    solve = poisson.solve_mode

    def recording_solve_mode(n, g, *args):
        sources.append(g.dtype)
        return solve(n, g, *args)

    monkeypatch.setattr(poisson, "solve_mode", recording_solve_mode)
    gamma = circulation(CFG)
    psi = solve_full(omega, gamma, grid, CFG)
    assert sources == [np.float64]
    ref = _reference_solve_full(omega, gamma, grid, CFG)
    assert np.max(np.abs(psi - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("ntheta", [16, 33, 128])
def test_solve_full_of_a_field_one_ulp_from_even_is_unchanged(ntheta):
    grid = make_grid((48, 96, 48, 96, 48))
    omega = _even_field(grid, ntheta)
    k, j = grid.n // 3, ntheta - 2
    omega[k, j] = np.nextafter(omega[k, j], np.inf)
    gamma = circulation(CFG)
    psi = solve_full(omega, gamma, grid, CFG)
    assert np.array_equal(psi, _reference_solve_full(omega, gamma, grid, CFG))


def test_solve_mode_reusing_its_arrays_keeps_every_bit():
    grid = make_grid((48, 96, 48, 96, 48))
    rng = np.random.default_rng(5)
    n = np.arange(1, 40)
    g = rng.standard_normal((grid.n, len(n)))
    for source in (g, g + 1j * rng.standard_normal(g.shape)):
        assert np.array_equal(
            solve_mode(n, source, grid, CFG.r1, CFG.r2),
            _reference_solve_mode(n, source, grid, CFG.r1, CFG.r2))
    assert np.array_equal(
        solve_mode(4, g[:, 0], grid, CFG.r1, CFG.r2),
        _reference_solve_mode(4, g[:, 0], grid, CFG.r1, CFG.r2))
