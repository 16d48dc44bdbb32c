"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  All criteria run on the desk-scale default config
(r1, r2, R1, R2, A, B) = (1, 2, 1.2, 1.5, 0, 0.15), kappa = 0.1, m = 3,
M = 8 (see the README for why B differs from 1).
"""

import numpy as np
import pytest

from axisymmetric import axisymmetric_prime, u_tc
from desk import (DESK_CFG as CFG, DESK_EPS, DESK_KAPPA, DESK_M,
                  OFFMODE_SVD_FLOOR, eigensolution)
from fd_oracle import fd_bvp_solve

from annulus_rotor.config import AnnulusConfig
from annulus_rotor.domain import circulation, lambda0
from annulus_rotor.errors import ConfigError
from annulus_rotor.kernel import (adjoint_kernel, lambda1_closed_form,
                                  operator_residual, singular_values,
                                  solve_lambda1, transversality,
                                  validate_kernel)
from annulus_rotor.linop import CoefficientSet, assemble, assemble_adjoint
from annulus_rotor.nonlinear import (LevelSetPerturbation, _kernel_direction,
                                     continue_branch, h2_band_bound,
                                     linearization_check, sobolev_distance)
from annulus_rotor.poisson import RadialGrid, solve_mode
from annulus_rotor.profile import TrapezoidProfile
from annulus_rotor.quadrature import ZGrid


def _ok(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


_BRANCH_CACHE = {}


BRANCH_ZG = ZGrid(48)


def branch_points(sigma=1e-3, steps=2, n_theta=32, tol=1e-11):
    # solve beyond the criterion tolerance (1e-9) so the bordered Newton
    # actually corrects: the mode-m residual of the kernel ray is cubically
    # small in sigma and already sits below 1e-9 at sigma = 1e-3
    key = (sigma, steps, n_theta)
    if key not in _BRANCH_CACHE:
        eig = eigensolution(DESK_EPS)
        prof = TrapezoidProfile(CFG, DESK_EPS, DESK_KAPPA)
        _BRANCH_CACHE[key] = continue_branch(eig, CFG, prof,
                                             sigma_target=sigma, steps=steps,
                                             n_theta=n_theta, tol=tol,
                                             zgrid=BRANCH_ZG)
    return _BRANCH_CACHE[key]


def test_acceptance_01_lambda0_identity():
    rng = np.random.default_rng(2024)
    count = 0
    worst = 0.0
    while count < 100:
        r1 = rng.uniform(0.3, 1.5)
        r2 = r1 + rng.uniform(0.5, 2.5)
        R1 = rng.uniform(r1 + 0.05, r1 + 0.6 * (r2 - r1))
        R2 = rng.uniform(R1 + 0.05, r2 - 0.05)
        A = rng.uniform(-2.0, 2.0)
        B = rng.uniform(0.05, 2.0) * rng.choice([-1.0, 1.0])
        try:
            cfg = AnnulusConfig(r1, r2, R1, R2, A, B)
        except ConfigError:
            continue
        count += 1
        lam = lambda0(cfg)
        ref = u_tc(cfg, cfg.R2) / cfg.R2
        rel = abs(lam - ref) / max(abs(ref), 1e-30)
        worst = max(worst, rel)
        assert rel <= 1e-13
    _ok(1, f"lambda0 identity over 100 random configs, worst rel {worst:.2e}")


def test_acceptance_02_poisson_correctness():
    cfg = CFG
    grid = RadialGrid.for_profile(cfg, DESK_EPS, (96, 112, 96, 112, 96))
    worst = 0.0
    for n in range(1, 17):
        r = grid.r
        fstar = np.sin(np.pi * (r - cfg.r1) / (cfg.r2 - cfg.r1))
        fp = np.pi / (cfg.r2 - cfg.r1) * np.cos(np.pi * (r - cfg.r1)
                                                / (cfg.r2 - cfg.r1))
        fpp = -(np.pi / (cfg.r2 - cfg.r1)) ** 2 * fstar
        g = fpp + fp / r - (n / r) ** 2 * fstar
        f = solve_mode(n, g, grid)
        rel = np.sqrt(grid.integrate((f - fstar) ** 2)
                      / grid.integrate(fstar ** 2))
        worst = max(worst, rel)
        assert rel <= 1e-7
    # independent finite-difference oracle on a band-source problem
    prof = TrapezoidProfile(cfg, DESK_EPS, DESK_KAPPA)
    eig = eigensolution(DESK_EPS)

    def g_fn(r):
        z = np.clip((r - cfg.R2) / DESK_EPS, -1, 1)
        from annulus_rotor.nonlinear import _interp_gauss
        return prof.derivative(r) * _interp_gauss(eig.zgrid, eig.b0, z)

    grid_f = RadialGrid.for_profile(cfg, DESK_EPS, (128, 256, 160, 256, 128))
    f = solve_mode(DESK_M, g_fn(grid_f.r), grid_f)
    base = np.unique(np.concatenate([
        np.linspace(cfg.r1, cfg.r2, 1024),
        np.linspace(cfg.R1 - 2 * DESK_EPS, cfg.R1 + 2 * DESK_EPS, 512),
        np.linspace(cfg.R2 - 2 * DESK_EPS, cfg.R2 + 2 * DESK_EPS, 512)]))
    rf, ffd = fd_bvp_solve(DESK_M, g_fn, cfg.r1, cfg.r2, grid_nodes=base,
                           richardson=True)
    rel_fd = np.linalg.norm(grid_f.interpolate(f, rf) - ffd) \
        / np.linalg.norm(ffd)
    assert rel_fd <= 1e-6
    # Taylor-Couette recovery: constant source, circulation boundary data
    gam = circulation(cfg)
    w0 = np.full(grid.n, 2.0 * cfg.A)
    du = axisymmetric_prime(grid, w0, gam, cfg.r1, cfg.r2)
    rel_tc = np.max(np.abs(-du - u_tc(cfg, grid.r))) \
        / np.max(np.abs(u_tc(cfg, grid.r)))
    assert rel_tc <= 1e-10
    _ok(2, f"manufactured worst {worst:.2e}, oracle gap {rel_fd:.2e}, "
           f"swirl recovery {rel_tc:.2e}")


def test_acceptance_03_operator_adjoint_duality():
    rng = np.random.default_rng(7)
    zg = ZGrid(96)
    worst = worst_t = 0.0
    for eps in (1e-2, 5e-3):
        prof = TrapezoidProfile(CFG, eps, DESK_KAPPA)
        coeffs = CoefficientSet(prof)
        lam = coeffs.lam0 + 0.03
        for n in range(1, 9):
            op = assemble(n, lam, prof, zg)
            adj = assemble_adjoint(n, lam, prof, zg)
            # weighted adjoint == transpose of the weighted operator
            Mw = op.weighted_matrix()
            gap = np.max(np.abs(adj.weighted_matrix() - Mw.T))
            worst_t = max(worst_t, gap / np.max(np.abs(Mw)))
            assert gap <= 1e-14 * np.max(np.abs(Mw))
            for _ in range(50):
                u = rng.standard_normal((2, zg.n))
                w = rng.standard_normal((2, zg.n))
                lhs = op.inner(op.apply(*u), tuple(w))
                rhs = op.inner(tuple(u), adj.apply(*w))
                scale = op.norm(tuple(u)) * op.norm(tuple(w))
                defect = abs(lhs - rhs) / max(scale, 1e-30)
                worst = max(worst, defect)
                assert defect <= 1e-10
    _ok(3, f"duality defect <= 1e-10 over n=1..8, both eps; worst {worst:.2e}; "
           f"weighted adjoint vs transpose worst {worst_t:.2e}")


def test_acceptance_04_lambda1_root():
    gaps = []
    for kappa in (0.2, 0.1, 0.05):
        prof = TrapezoidProfile(CFG, DESK_EPS, kappa)
        coeffs = CoefficientSet(prof)
        root = solve_lambda1(coeffs)
        lam1 = root["lam1"][DESK_M - 1]
        assert abs(root["residual"][DESK_M - 1]) <= 1e-10
        assert lam1 < root["lambda_star"]
        gaps.append(abs(lam1 - lambda1_closed_form(DESK_M, coeffs)))
    ratios = [a / b for a, b in zip(gaps[:-1], gaps[1:])]
    for r in ratios:
        assert 1.6 <= r <= 2.6
    _ok(4, f"|I-1| <= 1e-10, lam1 < lambda*, closed-form gap ratios "
           f"{[f'{r:.2f}' for r in ratios]} in [1.6, 2.6]")


def test_acceptance_05_kernel():
    lines = []
    for eps in (1e-2, 5e-3):
        eig = eigensolution(eps)
        prof = TrapezoidProfile(CFG, eps, DESK_KAPPA)
        diag = validate_kernel(eig, CFG, prof, M=8)
        assert diag["gap_ratio"] <= 1e-6
        assert all(v["ok"] for v in diag["off_modes"].values())
        # the discrete check: no other mode's operator is near-singular
        for n in range(1, 9):
            if n != DESK_M:
                sv = singular_values(n, eig.lam, prof, eig.zgrid)
                assert sv[-1] >= OFFMODE_SVD_FLOOR * eps * sv[0]
        if eps == 5e-3:
            assert diag["cosine"] >= 1.0 - 1e-4
        lines.append(f"eps={eps:g}: gap {diag['gap_ratio']:.1e}, "
                     f"cos {diag['cosine']:.8f}")
    res = {}
    for eps in (1e-2, 5e-3):
        e = eigensolution(eps, mode="asymptotic")
        prof = TrapezoidProfile(CFG, eps, DESK_KAPPA)
        res[eps] = operator_residual(e, CFG, prof)
    ratio = res[1e-2] / res[5e-3]
    assert ratio >= 6.0
    _ok(5, "; ".join(lines) + f"; cubic-order residual ratio {ratio:.1f} >= 6")


def test_acceptance_06_fixed_point_contraction():
    ratios = {}
    for eps in (1e-2, 5e-3):
        e = eigensolution(eps)
        ratios[eps] = e.diagnostics["fixed_point"]["ratio"]
    assert ratios[1e-2] <= 0.5
    frac = ratios[5e-3] / ratios[1e-2]
    assert 0.3 <= frac <= 0.8
    _ok(6, f"Picard ratios {ratios[1e-2]:.3f} (eps=1e-2), "
           f"{ratios[5e-3]:.3f} (eps=5e-3); halving factor {frac:.2f}")


def test_acceptance_07_adjoint_kernel_expansion():
    out = {}
    for eps in (1e-2, 5e-3):
        e = eigensolution(eps)
        prof = TrapezoidProfile(CFG, eps, DESK_KAPPA)
        out[eps] = adjoint_kernel(e, CFG, prof)
    ratio = out[1e-2]["a_norm_weighted"] / out[5e-3]["a_norm_weighted"]
    assert 1.5 <= ratio <= 2.6
    K1 = out[1e-2]["b_gap_weighted"] / 1e-2
    K2 = out[5e-3]["b_gap_weighted"] / 5e-3
    stable = max(K1, K2) / min(K1, K2)
    assert stable <= 2.5
    _ok(7, f"inner-part halving {ratio:.2f}; outer-gap constants "
           f"{K1:.3f}/{K2:.3f} stable within {stable:.2f}x")


def test_acceptance_08_transversality():
    vals = []
    for eps in (1e-2, 5e-3):
        e = eigensolution(eps)
        prof = TrapezoidProfile(CFG, eps, DESK_KAPPA)
        adj = adjoint_kernel(e, CFG, prof)
        tv = transversality(e, adj, CFG, prof)
        assert abs(tv["T"]) >= 0.5 * abs(tv["leading"])
        vals.append(f"eps={eps:g}: |T|={abs(tv['T']):.4f} vs "
                    f"0.5*leading={0.5 * abs(tv['leading']):.4f}")
    _ok(8, "; ".join(vals))


def test_acceptance_09_linearization():
    eig = eigensolution(DESK_EPS)
    prof = TrapezoidProfile(CFG, DESK_EPS, DESK_KAPPA)
    results = linearization_check(eig, CFG, prof, taus=(1e-4, 5e-5), seed=11)
    worst = 0.0
    worst_ratio = np.inf
    for r in results:
        e1, e2 = r["rel_errors"]
        assert e1 <= 0.02
        ratio = e1 / max(e2, 1e-16)
        worst = max(worst, e1)
        worst_ratio = min(worst_ratio, ratio)
        assert ratio >= 1.5
    _ok(9, f"5 random directions: rel err <= {worst:.2e} at tau=1e-4, "
           f"halving ratio >= {worst_ratio:.2f}")


def test_acceptance_10_branch():
    eig = eigensolution(DESK_EPS)
    pts = branch_points(sigma=1e-3, steps=2, n_theta=32)
    assert all(p.residual <= 1e-9 for p in pts)
    last = pts[-1]
    zg = BRANCH_ZG
    h_in, h_out = _kernel_direction(eig, zg)
    gap = np.sqrt(float(np.dot(zg.w, (last.g_inner / last.sigma - h_in) ** 2)
                        + np.dot(zg.w,
                                 (last.g_outer / last.sigma - h_out) ** 2)))
    assert gap <= 0.05
    lam_gap = abs(last.lam - eig.lam) / abs(eig.lam)
    assert lam_gap <= 0.01
    _ok(10, f"residuals <= 1e-9; |f/sigma - h| = {gap:.3f} <= 0.05; "
            f"rate gap {lam_gap:.2e} <= 1e-2")


def test_acceptance_11_distance_scaling():
    eps_list = (2e-2, 1e-2, 5e-3)
    h1 = []
    for eps in eps_list:
        prof = TrapezoidProfile(CFG, eps, DESK_KAPPA)
        h1.append(sobolev_distance(prof, 1.0)["h1"])
    slope = np.polyfit(np.log(eps_list), np.log(h1), 1)[0]
    assert abs(slope - 0.5) <= 0.05
    prof = TrapezoidProfile(CFG, DESK_EPS, DESK_KAPPA)
    out = sobolev_distance(prof, 1.0)
    bound = h2_band_bound(prof)
    margin = max(out["band_h2_curv_sq"].values()) / bound
    assert margin <= 0.5
    _ok(11, f"H1 slope {slope:.3f} in 0.5 +/- 0.05; curvature band norm at "
            f"{margin:.2f} of the (eps kappa)^(-1/2) bound")


@pytest.mark.slow
def test_acceptance_12_rotation():
    from annulus_rotor.eulersim import initial_state, verify_rotation
    eig = eigensolution(DESK_EPS)
    prof = TrapezoidProfile(CFG, DESK_EPS, DESK_KAPPA)
    pts = branch_points(sigma=1e-3, steps=2, n_theta=32)
    last = pts[-1]
    f = LevelSetPerturbation(m=DESK_M, zgrid=BRANCH_ZG, g_inner=last.g_inner,
                             g_outer=last.g_outer, cfg=CFG, eps=DESK_EPS)
    lam = last.lam
    T = 2.0 * np.pi / (DESK_M * abs(lam))
    state = initial_state(CFG, prof, f, nr=384, ntheta=256)
    out = verify_rotation(state, lam, T, n_checkpoints=16, m=DESK_M)
    # the step moves with the mean rotation: the base swirl's angular CFL
    # limit (504 steps per period) does not set it
    assert out.nsteps <= 32
    rate_gap = abs(out.lam_measured - lam) / abs(lam)
    assert rate_gap <= 0.05
    assert out.return_error <= 0.10
    drift = abs(out.conserved_end["circulation"]
                - out.conserved_start["circulation"])
    assert drift <= 1e-8
    mean_drift = abs(out.conserved_end["mean_vorticity"]
                     - out.conserved_start["mean_vorticity"]) \
        / abs(out.conserved_start["mean_vorticity"])
    assert mean_drift <= 1e-6
    energy_drift = abs(out.conserved_end["energy"]
                       - out.conserved_start["energy"]) \
        / out.conserved_start["energy"]
    assert energy_drift <= 1e-4
    # refinement halving, measured where discretization dominates: at the
    # production resolution the return error (~2e-5) already sits at the
    # branch solution's sigma^2 modeling floor, so the doubling check runs
    # from a coarser baseline
    ret = {}
    for nr, nth in ((96, 64), (192, 128)):
        st = initial_state(CFG, prof, f, nr=nr, ntheta=nth)
        ret[nr] = verify_rotation(st, lam, T, n_checkpoints=8,
                                  m=DESK_M).return_error
    assert ret[192] <= 0.5 * ret[96]
    _ok(12, f"rate gap {rate_gap:.2e}, return error {out.return_error:.2e} "
            f"at 384x256 in {out.nsteps} steps (refinement {ret[96]:.1e} -> "
            f"{ret[192]:.1e}), circulation drift {drift:.1e}")
