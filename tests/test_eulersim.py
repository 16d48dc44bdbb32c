import numpy as np
import pytest
from scipy.linalg import solve_banded

from desk import DESK_CFG as CFG, DESK_EPS as EPS, DESK_KAPPA as KAPPA

from annulus_rotor.domain import circulation
from annulus_rotor.errors import NumericsError, OutOfDomainError
from annulus_rotor.eulersim import (ModalStreamSolver, SimGrid, SimState,
                                    _CyclicReduction, _d_xi, cfl_limit,
                                    conserved_quantities, initial_state, step,
                                    verify_rotation)
from annulus_rotor.poisson import RadialGrid, solve_full
from annulus_rotor.profile import TrapezoidProfile


@pytest.fixture(scope="module")
def prof():
    return TrapezoidProfile(CFG, EPS, KAPPA)


def test_sim_grid_basic(prof):
    grid = SimGrid(cfg=CFG, nr=128, ntheta=32, eps=EPS)
    assert grid.r[0] == CFG.r1 and grid.r[-1] == CFG.r2
    assert np.all(np.diff(grid.r) > 0)
    # refinement: in-band spacing much finer than bulk
    dr = np.diff(grid.r)
    band = (grid.r[:-1] > CFG.R1 - EPS) & (grid.r[:-1] < CFG.R1 + EPS)
    assert dr[band].mean() < 0.3 * dr.mean()


def test_modal_solver_matches_green_solver(prof):
    grid = SimGrid(cfg=CFG, nr=384, ntheta=16, eps=EPS)
    gamma = circulation(CFG)
    w0 = 2 * CFG.A + prof.value(grid.r)
    rng = np.random.default_rng(0)
    pert = np.exp(-((grid.r - 1.35) / 0.1) ** 2)
    omega = w0[:, None] + 1e-2 * np.outer(pert, np.cos(3 * grid.theta))
    solver = ModalStreamSolver(grid)
    what = np.fft.rfft(omega, axis=1)
    psi = np.fft.irfft(solver.solve(what, gamma * grid.ntheta),
                       n=grid.ntheta, axis=1)
    # reference on the spectral panel grid
    ref_grid = RadialGrid.for_profile(CFG, EPS, (48, 96, 48, 96, 48))
    w_ref = (2 * CFG.A + prof.value(ref_grid.r))[:, None] \
        + 1e-2 * np.outer(np.exp(-((ref_grid.r - 1.35) / 0.1) ** 2),
                          np.cos(3 * grid.theta))
    psi_ref = solve_full(w_ref, gamma, ref_grid, CFG)
    ours = np.array([np.interp(ref_grid.r, grid.r, psi[:, j])
                     for j in range(grid.ntheta)]).T
    rel = np.linalg.norm(ours - psi_ref) / np.linalg.norm(psi_ref)
    assert rel < 2e-5


def mode_tridiagonals(grid, nk):
    """(lower, diag, upper) of psi_k'' + psi_k'/r - (k/r)^2 psi_k at the
    interior nodes; diag has one column per mode k = 1..nk-1."""
    nr = grid.nr
    h = 1.0 / (nr - 1)
    r, r_xi = grid.r, grid.r_xi
    r_xixi = _d_xi(r_xi, h)
    i = np.arange(1, nr - 1)
    a_lo = 1.0 / (h * h * r_xi[i] ** 2) \
        + (r_xixi[i] / r_xi[i] ** 3 - 1.0 / (r[i] * r_xi[i])) / (2 * h)
    a_hi = 1.0 / (h * h * r_xi[i] ** 2) \
        - (r_xixi[i] / r_xi[i] ** 3 - 1.0 / (r[i] * r_xi[i])) / (2 * h)
    a_di = -2.0 / (h * h * r_xi[i] ** 2)
    k = np.arange(1, nk)
    return a_lo, a_di[:, None] - (k / r[i][:, None]) ** 2, a_hi


def per_mode_banded(grid, omega_hat):
    """Reference for modes k >= 1: one banded solve per mode of
    psi_k'' + psi_k'/r - (k/r)^2 psi_k = -omega_k, psi_k = 0 at the walls."""
    nr, nk = omega_hat.shape
    a_lo, diag, a_hi = mode_tridiagonals(grid, nk)
    psi = np.zeros_like(omega_hat)
    for k in range(1, nk):
        band = np.zeros((3, nr - 2), dtype=complex)
        band[0, 1:] = a_hi[:-1]
        band[1, :] = diag[:, k - 1]
        band[2, :-1] = a_lo[1:]
        psi[1:-1, k] = solve_banded((1, 1), band, -omega_hat[1:-1, k])
    return psi


def per_mode_long_double(grid, omega_hat):
    """Exact reference for modes k >= 1: the tridiagonals of
    `per_mode_banded`, solved by elimination in np.longdouble, every mode
    at once."""
    nr, nk = omega_hat.shape
    a_lo, diag, a_hi = (np.asarray(x, dtype=np.longdouble)
                        for x in mode_tridiagonals(grid, nk))
    f = -np.asarray(omega_hat[1:-1, 1:], dtype=np.clongdouble)
    n = nr - 2
    upper = np.zeros_like(diag)
    for j in range(n):
        if j:
            den = diag[j] - a_lo[j] * upper[j - 1]
            f[j] = (f[j] - a_lo[j] * f[j - 1]) / den
        else:
            den = diag[0]
            f[0] = f[0] / den
        if j < n - 1:
            upper[j] = a_hi[j] / den
    for j in range(n - 2, -1, -1):
        f[j] -= upper[j] * f[j + 1]
    psi = np.zeros(omega_hat.shape, dtype=np.clongdouble)
    psi[1:-1, 1:] = f
    return psi


@pytest.mark.parametrize("nr, ntheta", [(384, 256), (96, 33)])
def test_modal_solver_matches_per_mode_banded(nr, ntheta):
    # against the exact solve of the same tridiagonals, the modal solver
    # errs at most twice as much as the banded LAPACK solve does
    grid = SimGrid(cfg=CFG, nr=nr, ntheta=ntheta, eps=EPS)
    rng = np.random.default_rng(1)
    shape = (nr, ntheta // 2 + 1)
    what = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    psi = ModalStreamSolver(grid).solve(what, 1.0)
    ref = per_mode_banded(grid, what)
    exact = per_mode_long_double(grid, what)
    err = np.max(np.abs(psi[:, 1:] - exact[:, 1:]))
    err_banded = np.max(np.abs(ref[:, 1:] - exact[:, 1:]))
    assert err_banded <= 1e-11 * np.max(np.abs(exact[:, 1:]))
    assert err <= 2.0 * err_banded


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 33, 64])
def test_cyclic_reduction_solves_every_length(n):
    rng = np.random.default_rng(n)
    lower, upper = rng.uniform(-1.0, 1.0, (2, n))
    diag = 2.5 + rng.uniform(0.0, 1.0, n)
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    A = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
    cr = _CyclicReduction(lower, diag, upper)
    cr.work[:] = f
    x = cr.solve()
    np.testing.assert_allclose(x, np.linalg.solve(A, f), rtol=0,
                               atol=1e-15 * np.max(np.abs(f)) * n)


def test_cyclic_reduction_rejects_a_singular_tridiagonal():
    # [[1, 1], [1, 1]]: level 1 keeps one row, whose reduced diagonal is
    # 1 - 1 * 1 / 1 = 0
    with pytest.raises(NumericsError,
                       match=r"level 1 .* smallest \|pivot\| 0 \(0 not"):
        _CyclicReduction(np.ones(2), np.ones(2), np.ones(2))
    with pytest.raises(NumericsError,
                       match=r"level 0 .* smallest \|pivot\| 1 \(1 not"):
        _CyclicReduction(np.zeros(3), np.array([1.0, np.nan, 2.0]),
                         np.zeros(3))


def test_mode_zero_solve_bit_identical_to_per_call_constants():
    # the grid constants of the mode-zero block are formed once per solver;
    # reference: the same products, each constant formed on every call
    from annulus_rotor.eulersim import _cumint4
    grid = SimGrid(cfg=CFG, nr=384, ntheta=90, eps=EPS, symmetry=3)
    rng = np.random.default_rng(1)
    what = rng.standard_normal((384, 46)) + 1j * rng.standard_normal((384, 46))
    psi = grid.solver.solve(what, 0.7 + 0.0j)
    h = 1.0 / (grid.nr - 1)
    V = _cumint4(grid.r * what[:, 0] * grid.r_xi, h)
    U = _cumint4(V / grid.r * grid.r_xi, h)
    C = (0.7 + 0.0j + U[-1]) / np.log(grid.r[-1] / grid.r[0])
    assert np.array_equal(psi[:, 0], C * np.log(grid.r / grid.r[0]) - U)


def test_modal_solver_rejects_wrong_mode_count():
    grid = SimGrid(cfg=CFG, nr=64, ntheta=32, eps=EPS)
    solver = ModalStreamSolver(grid)
    what = np.zeros((64, 16), dtype=complex)        # 17 columns expected
    with pytest.raises(OutOfDomainError, match=r"\(64, 16\).*\(64, 17\)"):
        solver.solve(what, 1.0)


def test_radial_state_is_fixed_point(prof):
    state = initial_state(CFG, prof, None, nr=192, ntheta=32)
    s1 = step(state, dt=1e-2)
    assert np.max(np.abs(s1.omega - state.omega)) < 1e-10


def test_pure_background_unchanged():
    cfg = CFG
    prof0 = TrapezoidProfile(cfg, EPS, KAPPA)
    grid = SimGrid(cfg=cfg, nr=96, ntheta=16, eps=EPS)
    omega = np.full((grid.nr, grid.ntheta), 2.0 * cfg.A)
    state = SimState(grid=grid, omega=omega, time=0.0,
                     gamma=circulation(cfg))
    s1 = step(state, dt=5e-3)
    assert np.max(np.abs(s1.omega - omega)) < 1e-12


def test_cfl_guard(prof):
    # an explicit dt whose step T/nsteps exceeds the limit is refused
    # before any step; one just inside it runs
    state = initial_state(CFG, prof, None, nr=96, ntheta=64)
    lim = cfl_limit(state)
    with pytest.raises(NumericsError,
                       match=r"step dt=.* \(25 steps .*cfl_limit"):
        verify_rotation(state, 1.0, 100.0 * lim, dt=4.0 * lim,
                        n_checkpoints=4, m=3)
    out = verify_rotation(state, 1.0, 4.0 * lim, dt=lim, n_checkpoints=4,
                          m=3)
    assert out.nsteps == 4 and out.dt == pytest.approx(lim, rel=1e-15)


def test_verify_rotation_reuses_the_last_checkpoint(prof, desk_eig,
                                                    monkeypatch):
    from annulus_rotor import eulersim
    calls = []

    def counted(state):
        calls.append(state.time)
        return conserved_quantities(state)

    monkeypatch.setattr(eulersim, "conserved_quantities", counted)
    state = _wave_state(prof, desk_eig, 96, 64)
    T = 2.0 * np.pi / (3 * desk_eig.lam) / 20.0
    out = verify_rotation(state, desk_eig.lam, T, n_checkpoints=4, m=3)
    assert len(out.series) == 4
    # once per checkpoint and once for the start
    assert len(calls) == len(out.series) + 1
    last = out.series[-1]
    assert last["t"] == out.times[-1] == pytest.approx(T, rel=1e-14)
    assert out.return_error == last["return_error"]
    assert out.conserved_end == {k: last[k] for k in out.conserved_start}


def test_quad_r_is_the_cumint4_total(prof):
    from annulus_rotor.eulersim import _cumint4
    grid = SimGrid(cfg=CFG, nr=384, ntheta=8, eps=EPS)
    h = 1.0 / (grid.nr - 1)
    F = np.outer(np.sin(7 * grid.r), np.arange(1, 9)) + np.log(grid.r)[:, None]
    total = grid.quad_r(F)
    assert total.shape == (8,)
    for j in range(8):
        assert total[j] == _cumint4(F[:, j] * grid.r_xi, h)[-1]
    # int_{r1}^{r2} sin(7 r) dr and int log r dr in closed form; the metric
    # r_xi, differenced from interpolated node positions, limits the match
    # (2.3e-8 here)
    r1, r2 = CFG.r1, CFG.r2
    exact = (np.cos(7 * r1) - np.cos(7 * r2)) / 7 * np.arange(1, 9) \
        + (r2 * np.log(r2) - r2) - (r1 * np.log(r1) - r1)
    assert np.max(np.abs(total - exact)) <= 1e-7
    # the 1-D rule of the mode-0 stream solve is unchanged by the axis
    assert np.array_equal(grid.quad_r(F[:, 0]), total[0])


def test_conserved_quantities_at_t0(prof):
    state = initial_state(CFG, prof, None, nr=256, ntheta=32)
    q = conserved_quantities(state)
    assert abs(q["circulation"] - circulation(CFG)) < 1e-8
    # energy close to the closed-form base-flow energy pi B^2 log(r2/r1)
    base = np.pi * CFG.B ** 2 * np.log(CFG.r2 / CFG.r1)
    assert q["energy"] == pytest.approx(base, rel=0.05)


def test_rotation_rate_independent_of_amplitude(prof, desk_eig):
    # first-order independence: sigma and sigma/2 runs agree within 1%
    from annulus_rotor.nonlinear import LevelSetPerturbation
    rates = {}
    lam = desk_eig.lam
    T = 2.0 * np.pi / (desk_eig.m * lam) / 8.0
    for sigma in (1e-3, 5e-4):
        f = LevelSetPerturbation.from_kernel(desk_eig, CFG, amplitude=sigma)
        state = initial_state(CFG, prof, f, nr=160, ntheta=64)
        out = verify_rotation(state, lam, T, n_checkpoints=6, m=desk_eig.m)
        rates[sigma] = out.lam_measured
    gap = abs(rates[1e-3] - rates[5e-4]) / abs(rates[1e-3])
    assert gap <= 0.01


def test_rotation_of_constructed_wave_coarse(prof, desk_eig):
    # coarse, fast rotation check; the acceptance suite runs the full one
    from annulus_rotor.nonlinear import LevelSetPerturbation
    sigma = 1e-3
    f = LevelSetPerturbation.from_kernel(desk_eig, CFG, amplitude=sigma)
    state = initial_state(CFG, prof, f, nr=192, ntheta=96)
    lam = desk_eig.lam
    T = 2.0 * np.pi / (desk_eig.m * lam) / 6.0      # sixth of a period
    out = verify_rotation(state, lam, T, n_checkpoints=8, m=desk_eig.m)
    assert abs(out.lam_measured - lam) <= 0.10 * abs(lam)
    drift = abs(out.conserved_end["circulation"]
                - out.conserved_start["circulation"])
    assert drift < 1e-8


def test_rotation_sign_flips_with_swirl_direction():
    from annulus_rotor.config import AnnulusConfig
    from annulus_rotor.kernel import build_eigensolution
    from annulus_rotor.nonlinear import LevelSetPerturbation
    from annulus_rotor.quadrature import ZGrid
    cfg = AnnulusConfig(r1=1.0, r2=2.0, R1=1.2, R2=1.5, A=0.0, B=-0.15)
    prof = TrapezoidProfile(cfg, EPS, KAPPA)
    eig = build_eigensolution(cfg, prof, 3, ZGrid(96))
    assert eig.lam < 0.0
    f = LevelSetPerturbation.from_kernel(eig, cfg, amplitude=1e-3)
    state = initial_state(cfg, prof, f, nr=160, ntheta=64)
    T = 2.0 * np.pi / (3 * abs(eig.lam)) / 8.0
    out = verify_rotation(state, eig.lam, T, n_checkpoints=6, m=3)
    assert out.lam_measured < 0.0
    assert abs(out.lam_measured - eig.lam) <= 0.02 * abs(eig.lam)


def test_dealias_flag_smoke(prof):
    state = initial_state(CFG, prof, None, nr=96, ntheta=32, dealias=True)
    s1 = step(state, dt=5e-3)
    assert np.max(np.abs(s1.omega - state.omega)) < 1e-10


def reference_step(state, dt):
    """Reference: the RK4 step as first written, with fresh arrays for
    every stage and d psi/d theta from an rfft of psi."""
    grid = state.grid
    solver = ModalStreamSolver(grid)

    def rhs(omega):
        what = np.fft.rfft(omega, axis=1)
        psi = np.fft.irfft(solver.solve(what, state.gamma * grid.ntheta),
                           n=grid.ntheta, axis=1)
        u_r = grid.d_theta(psi) / grid.r[:, None]
        u_r[0, :] = 0.0
        u_r[-1, :] = 0.0
        u_theta = -grid.d_r(psi)
        out = -(u_r * grid.d_r(omega)
                + u_theta / grid.r[:, None] * grid.d_theta_modes(what))
        if state.dealias:
            out_hat = np.fft.rfft(out, axis=1)
            kmax = out_hat.shape[1] - 1
            out_hat[:, int(2 * kmax / 3) + 1:] = 0.0
            out = np.fft.irfft(out_hat, n=grid.ntheta, axis=1)
        return out

    w = state.omega
    k1 = rhs(w)
    k2 = rhs(w + 0.5 * dt * k1)
    k3 = rhs(w + 0.5 * dt * k2)
    k4 = rhs(w + dt * k3)
    return w + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def lawson_reference_step(state, dt):
    """Reference: the integrating-factor RK4 step with fresh arrays for
    every stage, each stage's remainder formed on physical fields.

    The frame is Omega = <u_theta>_theta / r of the state; E transports
    rfft column k by exp(-i k Omega dt/2).  The spectral derivative of
    the sampled Nyquist mode vanishes, so E leaves that column alone.
    """
    grid = state.grid
    solver = ModalStreamSolver(grid)
    n = grid.ntheta
    k = grid.symmetry * np.arange(n // 2 + 1, dtype=float)
    if n % 2 == 0:
        k[-1] = 0.0
    r = grid.r[:, None]

    def velocity(what):
        psi_hat = solver.solve(what, state.gamma * n)
        u_r = np.fft.irfft(1j * k * psi_hat, n=n, axis=1) / r
        u_r[0, :] = 0.0
        u_r[-1, :] = 0.0
        return u_r, -grid.d_r(np.fft.irfft(psi_hat, n=n, axis=1))

    w = np.fft.rfft(state.omega, axis=1)
    Omega = velocity(w)[1].mean(axis=1)[:, None] / r

    def N(what):
        u_r, u_theta = velocity(what)
        omega = np.fft.irfft(what, n=n, axis=1)
        omega_theta = np.fft.irfft(1j * k * what, n=n, axis=1)
        out = np.fft.rfft(-(u_r * grid.d_r(omega)
                            + (u_theta / r - Omega) * omega_theta), axis=1)
        if state.dealias:
            kmax = out.shape[1] - 1
            out[:, int(2 * kmax / 3) + 1:] = 0.0
        return out

    E = np.exp(-1j * k * Omega * dt / 2)
    a = N(w)
    b = N(E * (w + dt / 2 * a))
    c = N(E * w + dt / 2 * b)
    d = N(E * E * w + dt * E * c)
    return np.fft.irfft(E * E * w + dt / 6 * (E * E * a + 2 * E * (b + c) + d),
                        n=n, axis=1)


def _wave_state(prof, eig, nr, ntheta, dealias=False):
    from annulus_rotor.nonlinear import LevelSetPerturbation
    f = LevelSetPerturbation.from_kernel(eig, CFG, amplitude=1e-3)
    return initial_state(CFG, prof, f, nr=nr, ntheta=ntheta, dealias=dealias)


@pytest.mark.parametrize("dealias", [False, True])
def test_step_matches_reference_rk4(prof, desk_eig, dealias):
    state = _wave_state(prof, desk_eig, 160, 64, dealias)
    dt = 0.5 * cfl_limit(state)
    s1 = step(state, dt)
    ref = lawson_reference_step(state, dt)
    scale = np.max(np.abs(state.omega))
    assert np.max(np.abs(s1.omega - ref)) <= 1e-13 * scale
    # a second step on the same grid reuses the work arrays
    s2 = step(s1, dt)
    assert np.max(np.abs(s2.omega - lawson_reference_step(s1, dt))) \
        <= 1e-13 * scale
    assert s1.omega is not s2.omega and s2.time == pytest.approx(2 * dt)


@pytest.mark.parametrize("dealias", [False, True])
def test_frame_free_step_is_classical_rk4(dealias):
    # gamma = 0 and a 3-mode vorticity with zero angular mean: no mean
    # swirl, so Omega = 0, E = 1 and the step is classical RK4
    grid = SimGrid(cfg=CFG, nr=160, ntheta=64, eps=EPS)
    bump = np.exp(-((grid.r - 1.4) / 0.15) ** 2)
    omega = 0.1 * np.outer(bump, np.cos(3 * grid.theta))
    state = SimState(grid=grid, omega=omega, time=0.0, gamma=0.0,
                     dealias=dealias)
    dt = 0.5 * cfl_limit(state)
    scale = np.max(np.abs(omega))
    s1 = step(state, dt)
    assert np.max(np.abs(grid.solver._mean_swirl)) <= 1e-15 * scale
    assert np.max(np.abs(s1.omega - reference_step(state, dt))) \
        <= 1e-13 * scale


def test_rotation_converges_in_the_step(prof, desk_eig):
    # the default step against one eight times smaller, over T/6
    state = _wave_state(prof, desk_eig, 160, 64)
    lam = desk_eig.lam
    T = 2.0 * np.pi / (desk_eig.m * lam) / 6.0
    coarse = verify_rotation(state, lam, T, n_checkpoints=8, m=desk_eig.m)
    fine = verify_rotation(state, lam, T, dt=coarse.dt / 8, n_checkpoints=8,
                           m=desk_eig.m)
    assert fine.nsteps == 8 * coarse.nsteps
    np.testing.assert_allclose(fine.times, coarse.times, rtol=1e-14)
    assert fine.lam_measured == pytest.approx(coarse.lam_measured,
                                              rel=1e-9, abs=0)
    assert fine.return_error == pytest.approx(coarse.return_error,
                                              rel=1e-6, abs=0)


def test_step_allocates_only_its_result(prof, desk_eig):
    import tracemalloc
    sector = _wave_state(prof, desk_eig, 192, 128)
    full = initial_state(CFG, prof, None, nr=192, ntheta=128)
    assert sector.grid.symmetry == 3 and full.grid.symmetry == 1
    for state in (sector, full):
        state = step(state, 1e-3)                               # warm-up
        tracemalloc.start()
        try:
            step(state, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * state.omega.nbytes


def _sector_and_full(prof, eig, dealias=False):
    """The same m = 3 wave on a 30-column sector grid and on the 90-column
    full circle, sampled by vorticity_samples; the full circle is the
    reference."""
    from annulus_rotor.nonlinear import LevelSetPerturbation, vorticity_samples
    f = LevelSetPerturbation.from_kernel(eig, CFG, amplitude=1e-3)
    states = []
    for symmetry, ntheta in ((3, 30), (1, 90)):
        grid = SimGrid(cfg=CFG, nr=192, ntheta=ntheta, eps=EPS,
                       symmetry=symmetry)
        omega = vorticity_samples(f, prof, grid.r, grid.theta)
        states.append(SimState(grid=grid, omega=omega, time=0.0,
                               gamma=circulation(CFG), dealias=dealias))
    return states


@pytest.mark.parametrize("dealias", [False, True])
def test_sector_step_matches_full_circle(prof, desk_eig, dealias):
    sector, full = _sector_and_full(prof, desk_eig, dealias)
    np.testing.assert_array_equal(sector.grid.theta, full.grid.theta[:30])
    np.testing.assert_array_equal(sector.omega, full.omega[:, :30])
    lim_s, lim_f = cfl_limit(sector), cfl_limit(full)
    assert abs(lim_s - lim_f) <= 1e-14 * lim_f
    qs, qf = conserved_quantities(sector), conserved_quantities(full)
    for key in qf:
        assert abs(qs[key] - qf[key]) <= 1e-14 * abs(qf[key])
    dt = 0.5 * lim_f
    scale = np.max(np.abs(full.omega))
    s1, f1 = step(sector, dt), step(full, dt)
    assert np.max(np.abs(s1.omega - f1.omega[:, :30])) <= 1e-13 * scale


def test_sector_rotation_matches_full_circle(prof, desk_eig):
    sector, full = _sector_and_full(prof, desk_eig)
    lam = desk_eig.lam
    T = 2.0 * np.pi / (3 * lam) / 20.0
    out_s = verify_rotation(sector, lam, T, n_checkpoints=4, m=3)
    out_f = verify_rotation(full, lam, T, n_checkpoints=4, m=3)
    assert out_s.lam_measured == pytest.approx(out_f.lam_measured,
                                               rel=1e-12, abs=0)
    assert out_s.return_error == pytest.approx(out_f.return_error,
                                               rel=1e-12, abs=0)


def test_verify_rotation_mode_on_sector(prof, desk_eig):
    sector, _ = _sector_and_full(prof, desk_eig)
    lam = desk_eig.lam
    T = 2.0 * np.pi / (3 * lam) / 40.0
    with pytest.raises(OutOfDomainError, match=r"m=2\b.*symmetry order 3"):
        verify_rotation(sector, lam, T, n_checkpoints=2, m=2)
    with pytest.raises(OutOfDomainError, match=r"m=48\b.*highest mode 45"):
        verify_rotation(sector, lam, T, n_checkpoints=2, m=48)
    # m=None detects the full-circle mode 3 from sector mode 1
    detected = verify_rotation(sector, lam, T, n_checkpoints=2)
    given = verify_rotation(sector, lam, T, n_checkpoints=2, m=3)
    assert detected.lam_measured == given.lam_measured
    assert detected.lam_measured == pytest.approx(lam, rel=0.05)


def test_initial_state_sector_length(prof, desk_eig):
    from dataclasses import replace
    from annulus_rotor.nonlinear import LevelSetPerturbation
    f3 = LevelSetPerturbation.from_kernel(desk_eig, CFG, amplitude=1e-3)
    state = initial_state(CFG, prof, f3, nr=32, ntheta=256)
    # ceil(256/3) = 86 = 2 * 43 is a slow FFT length; 90 = 2 * 3^2 * 5
    assert state.grid.symmetry == 3
    assert state.omega.shape == (32, 90) and state.grid.ntheta == 90
    assert state.grid.theta.max() < 2.0 * np.pi / 3
    f1 = replace(f3, m=1)
    for ntheta in (32, 64, 96, 128, 256):
        for f in (None, f1):
            grid = initial_state(CFG, prof, f, nr=32, ntheta=ntheta).grid
            assert grid.symmetry == 1 and grid.ntheta == ntheta


def test_next_fast_len_matches_scipy():
    from scipy.fft import next_fast_len
    from annulus_rotor.eulersim import _next_fast_len
    for n in range(1, 4097):
        assert _next_fast_len(n) == next_fast_len(n, real=True), n


def physical_conserved_quantities(state):
    """Reference: the conserved quantities from the physical velocity
    fields, as `conserved_quantities` first computed them (one `quad_r` per
    angular column, then the sector sum)."""
    from annulus_rotor.eulersim import _velocity
    grid = state.grid
    u_r, u_theta, _ = _velocity(state, np.fft.rfft(state.omega, axis=1))
    # the sector sum times 2 pi/ntheta is the full-circle integral
    dth = 2.0 * np.pi / grid.ntheta
    circ = -float(np.sum(grid.quad_r(u_theta)) * dth) / (2.0 * np.pi)
    mean_w = float(np.sum(grid.quad_r(state.omega * grid.r[:, None])) * dth)
    energy = 0.5 * float(np.sum(grid.quad_r((u_r ** 2 + u_theta ** 2)
                                            * grid.r[:, None])) * dth)
    return {"circulation": circ, "mean_vorticity": mean_w, "energy": energy}


@pytest.mark.parametrize("symmetry,ntheta,dealias",
                         [(3, 30, False), (3, 45, False), (1, 90, False),
                          (1, 63, False), (3, 30, True), (1, 63, True)])
def test_conserved_quantities_match_the_physical_fields(prof, desk_eig,
                                                        symmetry, ntheta,
                                                        dealias):
    # Parseval on the stream modes against the fields' theta-sums, on a
    # sector and the full circle, even and odd ntheta, at t = 0 and after
    # one (dealiased) step; the wave carries noise, so that the highest
    # mode's weight counts
    from annulus_rotor.nonlinear import LevelSetPerturbation, vorticity_samples
    f = LevelSetPerturbation.from_kernel(desk_eig, CFG, amplitude=1e-3)
    grid = SimGrid(cfg=CFG, nr=192, ntheta=ntheta, eps=EPS,
                   symmetry=symmetry)
    omega = vorticity_samples(f, prof, grid.r, grid.theta)
    omega += 1e-2 * np.random.default_rng(0).standard_normal(omega.shape)
    state = SimState(grid=grid, omega=omega, time=0.0,
                     gamma=circulation(CFG), dealias=dealias)
    for s in (state, step(state, 0.5 * cfl_limit(state))):
        ours, ref = conserved_quantities(s), physical_conserved_quantities(s)
        assert ours.keys() == ref.keys()
        for key in ref:
            assert abs(ours[key] - ref[key]) <= 1e-14 * abs(ref[key]), key


def test_verify_rotation_trajectory_is_a_plain_step_loop(prof, desk_eig):
    # conserved_quantities writes the solver's work arrays between steps;
    # the phases and the rate must equal, bit for bit, those of a loop of
    # `step` alone with the mode-m correlation
    state0 = _wave_state(prof, desk_eig, 96, 64)
    lam, m = desk_eig.lam, desk_eig.m
    T = 2.0 * np.pi / (m * lam) / 6.0
    # three steps between checkpoints
    out = verify_rotation(state0, lam, T, dt=T / 9, n_checkpoints=3, m=m)
    assert out.nsteps == 9
    mode = m // state0.grid.symmetry
    ref_hat = np.fft.rfft(state0.omega, axis=1)[:, mode]
    per = out.nsteps // 3
    state, times, phases = state0, [0.0], [0.0]
    for k in range(out.nsteps):
        state = step(state, out.dt)
        if (k + 1) % per == 0 or k == out.nsteps - 1:
            cur = np.fft.rfft(state.omega, axis=1)[:, mode]
            times.append(state.time)
            phases.append(np.angle(np.sum(cur * np.conj(ref_hat))))
    ph = np.unwrap(np.array(phases))
    assert out.times == times
    assert out.phases == list(ph)
    assert out.lam_measured == float(-np.polyfit(times, ph, 1)[0] / m)


def test_conserved_quantities_make_one_rfft_and_no_irfft(prof, desk_eig,
                                                         monkeypatch):
    state = _wave_state(prof, desk_eig, 96, 64)
    conserved_quantities(state)                 # the grid's solver is built
    calls = {"rfft": 0, "irfft": 0}
    for name in calls:
        original = getattr(np.fft, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    conserved_quantities(state)
    assert calls == {"rfft": 1, "irfft": 0}
