import numpy as np
import pytest

from desk import DESK_CFG as CFG, DESK_EPS as EPS, DESK_KAPPA as KAPPA

from annulus_rotor.domain import circulation
from annulus_rotor.errors import NumericsError, OutOfDomainError
from annulus_rotor.eulersim import (ModalStreamSolver, SimGrid, SimState,
                                    cfl_limit, conserved_quantities,
                                    initial_state, step, verify_rotation)
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
    psi_ref = solve_full(w_ref, gamma, ref_grid)
    ours = np.array([np.interp(ref_grid.r, grid.r, psi[:, j])
                     for j in range(grid.ntheta)]).T
    rel = np.linalg.norm(ours - psi_ref) / np.linalg.norm(psi_ref)
    assert rel < 2e-5
    # at the sim nodes, through the reference's spectral interpolant, the
    # linear interpolation's error is gone (1.7e-7 here)
    at_nodes = ref_grid.interpolate(psi_ref, grid.r)
    assert np.linalg.norm(psi - at_nodes) / np.linalg.norm(at_nodes) <= 5e-7


def manufactured_mode_error(nr, n, symmetry=3, ntheta=90):
    """Largest error of the solver's mode n on psi = sin(pi (r - r1) /
    (r2 - r1)), whose source -(psi'' + psi'/r - (n/r)^2 psi) is exact."""
    grid = SimGrid(cfg=CFG, nr=nr, ntheta=ntheta, eps=EPS, symmetry=symmetry)
    r = grid.r
    a = np.pi / (CFG.r2 - CFG.r1)
    psi = np.sin(a * (r - CFG.r1))
    omega = a * a * psi - a * np.cos(a * (r - CFG.r1)) / r + (n / r) ** 2 * psi
    what = np.zeros((nr, ntheta // 2 + 1), dtype=complex)
    what[:, n // symmetry] = omega
    out = grid.solver.solve(what, 0.0)
    return np.max(np.abs(out[:, n // symmetry] - psi))


@pytest.mark.parametrize("n", [3, 30])
def test_modal_solver_is_fourth_order(n):
    # doubling nr divides the error by about 16 (13.0 at n = 3, 14.6 at
    # n = 30); a second-order solve divides it by 4
    ratio = manufactured_mode_error(384, n) / manufactured_mode_error(768, n)
    assert ratio >= 12.0


def test_modal_solver_resolves_the_highest_sector_mode():
    # n = 135, the top mode of a 90-column sector: the tail R(r) summed
    # backward from r2 errs by 7.3e-3; formed as the total minus the
    # prefix, it cancels the large S_n(r2/s) weights and errs by 0.5
    assert manufactured_mode_error(384, 135) <= 2e-2


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


class _ReferenceModalStreamSolver:
    """The simulator's stream solve as it was with its own Green's tables
    and sums, before it called the shared solve (verbatim, less the step's
    work arrays): the reference the shared solve moved from."""

    def __init__(self, grid):
        from annulus_rotor.poisson import mode_sinh
        self.grid = grid
        nr = grid.nr
        h = 1.0 / (nr - 1)
        r = grid.r
        nk = grid.ntheta // 2
        self._shape = (nr, nk + 1)
        # mode zero's grid constants: psi_0 = C log(r/r1) - U
        self._h = h
        self._log_r = np.log(r / r[0])
        self._log_span = np.log(r[-1] / r[0])
        # modes n = k m, k = 1..nk: S_n(r/r1), S_n(r2/r) and n S_n(r2/r1)
        n = grid.symmetry * np.arange(1, nk + 1)
        s_lo = mode_sinh(n, self._log_r[:, None])
        s_hi = mode_sinh(n, self._log_span - self._log_r[:, None])
        den = n * mode_sinh(n, self._log_span)
        weight = (h / 24.0 * r * grid.r_xi)[:, None]
        self._lo_in, self._hi_in, self._lo_out, self._hi_out = (
            np.asarray(t, dtype=complex) for t in (
                s_lo * weight, s_hi * weight, s_lo / den, s_hi / den))
        self._L, self._R = (np.empty((nr, nk), dtype=complex)
                            for _ in range(2))
        self._inc = np.empty((nr - 1, nk), dtype=complex)

    def solve(self, omega_hat, gamma_hat, out=None):
        from annulus_rotor.eulersim import _cumint4, _increments
        if omega_hat.shape != self._shape:
            raise OutOfDomainError(f"omega_hat has shape {omega_hat.shape}; "
                                   f"the solver is factored for {self._shape}")
        psi = np.empty_like(omega_hat) if out is None else out
        grid = self.grid
        h = self._h
        w0 = omega_hat[:, 0]
        V = _cumint4(grid.r * w0 * grid.r_xi, h)
        U = _cumint4(V / grid.r * grid.r_xi, h)
        C = (gamma_hat + U[-1]) / self._log_span
        psi[:, 0] = C * self._log_r - U
        # modes n >= 1, every mode at once: L forward, R backward
        # (a ufunc reading or writing the strided columns 1: of a modal
        # array allocates a buffer; a copy does not)
        L, R, inc = self._L, self._R, self._inc
        np.copyto(R, omega_hat[:, 1:])
        np.multiply(self._lo_in, R, out=L)
        R *= self._hi_in
        _increments(L, inc)
        L[0] = 0.0
        np.cumsum(inc, axis=0, out=L[1:])
        _increments(R, inc)
        R[-1] = 0.0
        np.cumsum(inc[::-1], axis=0, out=R[-2::-1])
        L *= self._hi_out
        R *= self._lo_out
        L += R
        np.copyto(psi[:, 1:], L)
        return psi


@pytest.mark.parametrize("nr, ntheta, symmetry", [(384, 90, 3), (96, 32, 1)])
def test_shared_green_solve_matches_the_simulators_own(nr, ntheta, symmetry):
    # the shared solve moves each of the simulator's stream modes at
    # rounding only (by at most 7.1e-16 of the mode's largest value here),
    # and mode zero not at all
    grid = SimGrid(cfg=CFG, nr=nr, ntheta=ntheta, eps=EPS, symmetry=symmetry)
    ref = _ReferenceModalStreamSolver(grid)
    rng = np.random.default_rng(nr)
    for _ in range(3):
        what = rng.standard_normal(ref._shape) \
            + 1j * rng.standard_normal(ref._shape)
        psi, psi_ref = grid.solver.solve(what, 0.7), ref.solve(what, 0.7)
        assert psi.shape == (nr, ntheta // 2 + 1)
        assert np.all(np.max(np.abs(psi - psi_ref), axis=0)
                      <= 1e-14 * np.max(np.abs(psi_ref), axis=0))
        assert np.array_equal(psi[:, 0], psi_ref[:, 0])


def _xi_integrand(grid, p):
    """F with F r_xi = p(xi) on the grid, so its integral in r is the
    integral of p over xi: the rule's order shows without the mapping's."""
    xi = np.linspace(0.0, 1.0, grid.nr)
    return p(xi) / grid.r_xi, xi


def test_sim_grid_partials_are_the_cumint4_rule_both_ways():
    # forward, of F times the metric, the sums of `cumulative`; backward,
    # the same increments summed from r2.  A cubic in xi is integrated
    # exactly, and a smooth function to fourth order: the error falls
    # 16-fold when nr doubles
    errs = []
    for nr in (96, 192, 384):
        grid = SimGrid(cfg=CFG, nr=nr, ntheta=8, eps=EPS)
        for p, P, exact in (
                (lambda x: 1 - 3 * x + 2 * x ** 3,
                 lambda x: x - 1.5 * x ** 2 + 0.5 * x ** 4, True),
                (lambda x: np.exp(3 * x) * np.cos(5 * x),
                 lambda x: np.exp(3 * x) * (3 * np.cos(5 * x)
                                            + 5 * np.sin(5 * x)) / 34,
                 False)):
            F, xi = _xi_integrand(grid, p)
            A = np.outer(F * grid.measure, [1.0, -2.0])
            B = A.copy()
            grid.partials(A, B, np.empty_like(A[1:]))
            fwd = np.outer(P(xi) - P(0.0), [1.0, -2.0])
            bwd = np.outer(P(1.0) - P(xi), [1.0, -2.0])
            assert np.array_equal(A[:, 0], grid.cumulative(F))
            err = max(np.max(np.abs(A - fwd)), np.max(np.abs(B - bwd)))
            if exact:
                assert err <= 1e-14
            else:
                errs.append(err)
    assert errs[0] / errs[1] >= 14.0 and errs[1] / errs[2] >= 14.0


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

    original = eulersim._conserved_from_modes

    def counted(state, w_hat):
        calls.append(state.time)
        return original(state, w_hat)

    monkeypatch.setattr(eulersim, "_conserved_from_modes", counted)
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


def test_verify_rotation_makes_one_rfft_per_checkpoint(prof, desk_eig,
                                                       monkeypatch):
    # outside the steps and the step limit, the start and each checkpoint
    # transform the field once for both the phase and the conserved
    # quantities
    from annulus_rotor import eulersim
    state = _wave_state(prof, desk_eig, 96, 64)
    T = 2.0 * np.pi / (3 * desk_eig.lam) / 20.0
    ref = verify_rotation(state, desk_eig.lam, T, n_checkpoints=4, m=3)
    calls = {"rfft": 0, "inside": False}
    rfft = np.fft.rfft

    def counted_rfft(*args, **kwargs):
        calls["rfft"] += not calls["inside"]
        return rfft(*args, **kwargs)

    def flagged(fn):
        def run(*args, **kwargs):
            calls["inside"] = True
            try:
                return fn(*args, **kwargs)
            finally:
                calls["inside"] = False
        return run

    monkeypatch.setattr(np.fft, "rfft", counted_rfft)
    for name in ("step", "cfl_limit"):
        monkeypatch.setattr(eulersim, name, flagged(getattr(eulersim, name)))
    out = verify_rotation(state, desk_eig.lam, T, n_checkpoints=4, m=3)
    assert calls["rfft"] == len(out.series) + 1
    assert out.phases == ref.phases
    assert out.lam_measured == ref.lam_measured
    assert out.conserved_start == conserved_quantities(state)


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


@pytest.mark.parametrize("nr, ntheta", [(96, 64), (384, 256), (64, 33)])
def test_initial_wave_is_even_and_matches_full_sampling(prof, desk_eig, nr,
                                                        ntheta):
    # half the sector is sampled and mirrored; sampling every column, the
    # reference, differs only by the rounding of cos(m theta) (1.2e-16 at
    # 384x256)
    from annulus_rotor.nonlinear import (LevelSetPerturbation,
                                         vorticity_samples)
    f = LevelSetPerturbation.from_kernel(desk_eig, CFG, amplitude=1e-3)
    state = initial_state(CFG, prof, f, nr=nr, ntheta=ntheta)
    omega, n = state.omega, state.grid.ntheta
    assert omega.shape == (nr, n)
    np.testing.assert_array_equal(omega[:, 1:], omega[:, :0:-1])
    ref = vorticity_samples(f, prof, state.grid.r, state.grid.theta)
    assert np.max(np.abs(omega - ref)) <= 1e-15


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


def test_sim_grid_refuses_fewer_nodes_than_its_stencils():
    with pytest.raises(OutOfDomainError, match=r"nr must be at least 5.* 4$"):
        SimGrid(cfg=CFG, nr=4, ntheta=8, eps=EPS)
    # five nodes fill the stencils but not the band-refined mapping
    with pytest.raises(OutOfDomainError,
                       match=r"nr=5 .*r_xi .*least -0\.65\)$"):
        SimGrid(cfg=CFG, nr=5, ntheta=8, eps=EPS)


@pytest.mark.parametrize("symmetry,ntheta,top,admitted", [
    (3, 578, 867, 577), (3, 720, 1080, 577), (1, 1732, 866, 1731)])
def test_sim_grid_refuses_modes_past_the_sinh_guard(symmetry, ntheta, top,
                                                    admitted):
    # log(r2/r1) = log 2: n log 2 passes 600 between n = 865 and 866; the
    # grid names its highest mode and the largest ntheta it admits, whose
    # solver builds
    with pytest.raises(OutOfDomainError,
                       match=rf"ntheta={ntheta} columns at symmetry order "
                             rf"{symmetry} carry angular modes up to {top},"
                             rf".*at most {admitted}$"):
        SimGrid(cfg=CFG, nr=16, ntheta=ntheta, eps=EPS, symmetry=symmetry)
    grid = SimGrid(cfg=CFG, nr=16, ntheta=admitted, eps=EPS,
                   symmetry=symmetry)
    assert isinstance(grid.solver, ModalStreamSolver)


@pytest.mark.parametrize("nr,least", [(8, "-0.148"), (12, "-0.0061")])
def test_sim_grid_refuses_a_mapping_whose_metric_is_not_positive(nr, least):
    with pytest.raises(OutOfDomainError,
                       match=rf"nr={nr} .*r_xi .*least {least}\)$"):
        SimGrid(cfg=CFG, nr=nr, ntheta=8, eps=EPS)
    assert 0.0 < np.min(SimGrid(cfg=CFG, nr=16, ntheta=8, eps=EPS).r_xi) < 0.01


@pytest.mark.parametrize("name,value", [
    ("n_checkpoints", 0), ("T", -1.0), ("T", 0.0), ("T", np.inf),
    ("T", np.nan), ("dt", -1.0), ("dt", 0.0)])
def test_verify_rotation_refuses_arguments_out_of_domain(prof, name, value):
    state = initial_state(CFG, prof, None, nr=16, ntheta=16)
    args = {"T": 1.0, "dt": None, "n_checkpoints": 4, name: value}
    with pytest.raises(OutOfDomainError, match=rf"{name}={value}\b"):
        verify_rotation(state, 1.0, m=1, **args)


@pytest.mark.parametrize("dt", [None, 0.1])
def test_verify_rotation_refuses_an_initial_state_that_is_not_finite(
        prof, desk_eig, dt):
    state = _wave_state(prof, desk_eig, 96, 64)
    state.omega[40, 3] = np.nan
    T = 2.0 * np.pi / (3 * desk_eig.lam)
    with pytest.raises(NumericsError,
                       match=r"cfl_limit of the initial state is nan, "
                             r"not finite and positive"):
        verify_rotation(state, desk_eig.lam, T, dt=dt, m=3)


def test_verify_rotation_raises_where_the_run_stops_being_finite(
        prof, desk_eig, monkeypatch):
    # a run whose first step leaves one NaN in the vorticity: every
    # quantity of the first checkpoint is undefined
    from annulus_rotor import eulersim
    real_step = eulersim.step

    def nan_step(state, dt):
        out = real_step(state, dt)
        out.omega[40, 3] = np.nan
        return out

    monkeypatch.setattr(eulersim, "step", nan_step)
    state = _wave_state(prof, desk_eig, 96, 64)
    T = 2.0 * np.pi / (3 * desk_eig.lam)
    with pytest.raises(NumericsError, match=r"not finite at step 1 of 16, "
                       r"t=1\.98\d*: phase correlation nan.*, "
                       r"return error nan"):
        verify_rotation(state, desk_eig.lam, T, m=3)
