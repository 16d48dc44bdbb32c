import numpy as np
import pytest

from annulus_rotor.errors import NumericsError
from annulus_rotor.kernel import build_eigensolution
from annulus_rotor.nonlinear import (LevelSetPerturbation, _band_radii,
                                     _kernel_direction, _mode_jacobian,
                                     build_vorticity, continue_branch,
                                     functional_F, h2_band_bound,
                                     linearization_check, sobolev_distance)
from annulus_rotor.profile import TrapezoidProfile
from annulus_rotor.quadrature import ZGrid

from conftest import DESK_CFG as CFG
EPS, KAPPA, M_MODE = 1e-2, 0.1, 3


@pytest.fixture(scope="module")
def zg():
    return ZGrid(96)


@pytest.fixture(scope="module")
def prof():
    return TrapezoidProfile(CFG, EPS, KAPPA)


@pytest.fixture(scope="module")
def eig(zg, prof):
    return build_eigensolution(CFG, prof, M_MODE, zg)


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
            lo = R - EPS + f.profile_at(R - EPS, band) * cosj
            hi = R + EPS + f.profile_at(R + EPS, band) * cosj
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
        pos = mid + f.profile_at(mid, band) * cos_m - r_targets > 0.0
        hi = np.where(pos, mid, hi)
        lo = np.where(pos, lo, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("sigma", [1e-3, 3e-3])
def test_newton_inversion_residual_and_bisection(zg, prof, eig, sigma):
    from annulus_rotor.nonlinear import _invert_map
    f = _pert(eig, sigma)
    theta = 2.0 * np.pi * np.arange(24) / 24
    cosm = np.cos(M_MODE * theta)
    for band, R in ((1, CFG.R1), (2, CFG.R2)):
        # targets across the whole deformed band, edges included
        lo = R - EPS + f.profile_at(R - EPS, band) * cosm
        hi = R + EPS + f.profile_at(R + EPS, band) * cosm
        t = np.linspace(0.0, 1.0, 41)[:, None]
        r = (lo + t * (hi - lo)).ravel()
        c = np.broadcast_to(cosm, (41, 24)).ravel()
        rho = _invert_map(f, band, r, c)
        resid = rho + f.profile_at(rho, band) * c - r
        assert np.max(np.abs(resid)) <= 1e-14
        assert np.max(np.abs(rho - bisect_map(f, band, r, c))) <= 1e-12


def test_newton_inversion_reports_nonconvergence(zg, prof, eig, monkeypatch):
    from annulus_rotor import nonlinear
    monkeypatch.setattr(nonlinear, "_NEWTON_STEPS", 1)
    f = _pert(eig, 1e-3)
    r = np.array([CFG.R2 + 0.3 * EPS])
    with pytest.raises(NumericsError, match="last step"):
        nonlinear._invert_map(f, 2, r, 1.0)


def test_interp_columns_matches_per_column_splines(zg, prof, eig):
    from scipy.interpolate import CubicSpline
    from annulus_rotor.domain import circulation
    from annulus_rotor.nonlinear import _interp_columns
    from annulus_rotor.poisson import solve_full
    f = _pert(eig, 1e-3)
    field = build_vorticity(f, prof, n_theta=32)
    grid = field.grid
    psi = solve_full(field.values, circulation(CFG), grid, CFG)
    cosm = np.cos(M_MODE * field.theta)
    targets = np.concatenate([
        (R + EPS * zg.z)[:, None] + np.outer(g, cosm)
        for R, g in ((CFG.R1, f.g_inner), (CFG.R2, f.g_outer))])
    targets[:3] = grid.r[[0, 5, -1]][:, None]      # nodes and walls
    cs = CubicSpline(grid.r, psi, axis=0)
    ref = np.empty_like(targets)
    for j in range(psi.shape[1]):
        ref[:, j] = cs(targets[:, j])[:, j]
    out = _interp_columns(grid, psi, targets)
    assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(psi))


def test_vorticity_mass_drift_is_second_order(zg, prof, eig):
    masses = {}
    for sigma in (0.0, 1e-3, 2e-3):
        f = _pert(eig, sigma)
        field = build_vorticity(f, prof, n_theta=64)
        masses[sigma] = field.mass()
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
    out = sobolev_distance(prof, 1.0, nz=64)
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
    J[:-1, :-1] = _mode_jacobian(eig, eig.lam, CFG, prof, zgb)
    J[-1, :-1] = (np.concatenate([zgb.w, zgb.w])
                  * np.concatenate(_kernel_direction(eig, zgb)))
    J[:-1, -1] = _band_radii(CFG, EPS, zgb) * x[:-1]
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
    evals = _count_calls(monkeypatch, "functional_F")
    zgb = ZGrid(40)
    # below rounding no step lowers the residual, so the halvings run out
    with pytest.raises(NumericsError, match="diverged after 5 halvings") as err:
        continue_branch(eig, CFG, prof, sigma_target=1e-3, steps=1,
                        n_theta=32, tol=0.0, zgrid=zgb)
    accepted = evals[:-5]                   # the last five are the halvings
    rn = _last_residual(eig, prof, zgb, 1e-3, accepted)
    assert f"residual {rn:.3e} > tol 0" in str(err.value)


def test_build_vorticity_rejects_folding(zg, prof, eig):
    f = _pert(eig, 1.0)    # huge amplitude folds the level sets
    with pytest.raises(NumericsError):
        build_vorticity(f, prof, n_theta=8)
