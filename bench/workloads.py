"""The benchmark's three workloads: one pass each, with its correctness gate.

Each pass calls the package's public functions the way `scripts/` and the
CLI subcommands do, on the desk configuration.  A pass returns the
observables that must not change under tracing, its accuracy values, the
program-reported counters and the list of gate failures (empty when the
pass is correct).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from annulus_rotor import (LevelSetPerturbation, RunConfig, TrapezoidProfile,
                           ZGrid, adjoint_kernel, build_eigensolution,
                           continue_branch, functional_F, linearization_check,
                           parse_config, sobolev_distance, transversality,
                           validate_kernel)
from annulus_rotor.kernel import operator_residual
from annulus_rotor.nonlinear import _interp_gauss, normalized_kernel

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DESK_CFG = os.path.join("examples_config", "desk.cfg")

# eigen-sweep: the eigen_report.py grid
EIGEN_MODES = (1, 2, 3)
EIGEN_EPS = (1e-2, 5e-3)
LAMBDA_RTOL = 1e-10
RESIDUAL_MAX = 1e-12
COSINE_MIN = 1.0 - 1e-8

# branch: the residual and continue workflows at acceptance 10's settings
RAY_SIGMAS = (1e-3, 5e-4, 2.5e-4)
RAY_N_THETA = 128
BRANCH_SIGMA = 1e-3
BRANCH_N_THETA = 32
BRANCH_NZ = 48
BRANCH_TOL = 1e-11
BRANCH_RESIDUAL_MAX = 1e-9
KERNEL_GAP_MAX = 0.05
BRANCH_RATE_GAP_MAX = 1e-2

# rotate: simulate --use-branch with the CLI's defaults
SIM_NR, SIM_NTHETA, SIM_CHECKPOINTS = 384, 256, 16
ROTATE_LIMITS = {"rate_gap": 0.05, "return_error": 0.10,
                 "circulation_drift": 1e-8, "mean_vorticity_drift": 1e-6,
                 "energy_drift": 1e-4}


def load_spec() -> dict:
    with open(os.path.join(BENCH_DIR, "spec.json")) as fh:
        return json.load(fh)


@dataclass
class Setup:
    """What a CLI call has ready before its workflow starts."""

    run: RunConfig
    profile: TrapezoidProfile
    zgrid: ZGrid


def setup(root: str) -> Setup:
    run = parse_config(os.path.join(root, DESK_CFG))
    return Setup(run=run, profile=TrapezoidProfile.from_run(run),
                 zgrid=ZGrid(run.nz))


def digest(*arrays) -> str:
    """Bit-level fingerprint of float arrays (for traced/untraced identity)."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def lambda_key(m: int, eps: float) -> str:
    return f"m={m},eps={eps!r}"


def accuracy_failures(accuracy: dict) -> list[str]:
    """One-sided gate: an accuracy value may not exceed its reference by
    more than the bound in spec.json (improvements pass)."""
    refs = load_spec()["accuracy"]
    out = []
    for name, value in accuracy.items():
        ref, bound = refs[name]["reference"], refs[name]["bound"]
        if not value <= ref * (1.0 + bound):
            out.append(f"{name} {value:.6g} exceeds the reference {ref:.6g} "
                       f"by more than {bound:.0%}")
    return out


def _branch_perturbation(point, s: Setup, zgrid: ZGrid) -> LevelSetPerturbation:
    return LevelSetPerturbation(m=s.run.m, zgrid=zgrid, g_inner=point.g_inner,
                                g_outer=point.g_outer, cfg=s.run.annulus,
                                eps=s.run.eps)


def eigen_sweep(s: Setup, seed: int) -> dict:
    """find-eigen, validate-kernel, adjoint and transversality per case.

    Every case builds its own profile, as eigen_report.py does, so that no
    profile-level cache is shared across cases that CLI calls would not share.
    """
    run = s.run
    cfg = run.annulus
    refs = load_spec()["reference_lambdas"]
    obs, failures = {}, []
    picard = 0
    for m in EIGEN_MODES:
        for eps in EIGEN_EPS:
            prof = TrapezoidProfile(cfg, eps, run.kappa)
            eig = build_eigensolution(cfg, prof, m, s.zgrid)
            diag = validate_kernel(eig, cfg, prof, M=run.M)
            adj = adjoint_kernel(eig, cfg, prof)
            tv = transversality(eig, adj, cfg, prof)
            res = operator_residual(eig, cfg, prof)
            key = lambda_key(m, eps)
            picard += eig.diagnostics["fixed_point"]["iterations"]
            obs[key] = {"lam": eig.lam, "lam1": eig.lam1, "lam2": eig.lam2,
                        "residual": res, "gap_ratio": diag["gap_ratio"],
                        "cosine": diag["cosine"], "T": tv["T"],
                        "adjoint_sigma_min": adj["sigma_min"],
                        "kernel": digest(eig.a, eig.b)}
            ref = refs[key]
            if abs(eig.lam - ref) > LAMBDA_RTOL * abs(ref):
                failures.append(f"{key}: lambda {eig.lam!r} != reference "
                                f"{ref!r} to {LAMBDA_RTOL:g}")
            if res > RESIDUAL_MAX:
                failures.append(f"{key}: operator residual {res:.3g}")
            if diag["cosine"] < COSINE_MIN:
                failures.append(f"{key}: null-vector cosine {diag['cosine']!r}")
    return {"observables": obs, "accuracy": {}, "failures": failures,
            "counters": {"kernel.picard_iters": picard}}


def branch(s: Setup, seed: int) -> dict:
    """residual along the kernel ray, linearization check, continuation."""
    run = s.run
    cfg = run.annulus
    prof = s.profile
    eig = build_eigensolution(cfg, prof, run.m, s.zgrid)
    ray = []
    for sigma in RAY_SIGMAS:
        f = LevelSetPerturbation.from_kernel(eig, cfg, amplitude=sigma)
        res = functional_F(eig.lam, f, prof, n_theta=RAY_N_THETA)
        ray.append([sigma, res.sup(), res.l2(s.zgrid)])
    lin = linearization_check(eig, cfg, prof, seed=seed)
    zgb = ZGrid(BRANCH_NZ)
    pts = continue_branch(eig, cfg, prof, sigma_target=BRANCH_SIGMA, steps=2,
                          n_theta=BRANCH_N_THETA, zgrid=zgb, tol=BRANCH_TOL)
    dists = [sobolev_distance(prof, 1.0, f=_branch_perturbation(p, s, zgb))
             ["estimate"] for p in pts]
    last = pts[-1]
    final = functional_F(last.lam, _branch_perturbation(last, s, zgb), prof,
                         n_theta=RAY_N_THETA)
    sup = final.sup()

    h_in, h_out = (_interp_gauss(eig.zgrid, h, zgb.z)
                   for h in normalized_kernel(eig))
    nrm = np.sqrt(float(np.dot(zgb.w, h_in ** 2) + np.dot(zgb.w, h_out ** 2)))
    kernel_gap = np.sqrt(
        float(np.dot(zgb.w, (last.g_inner / last.sigma - h_in / nrm) ** 2)
              + np.dot(zgb.w, (last.g_outer / last.sigma - h_out / nrm) ** 2)))
    rate_gap = abs(last.lam - eig.lam) / abs(eig.lam)

    failures = [f"branch point sigma={p.sigma:g}: mode-m residual "
                f"{p.residual:.3g} > {BRANCH_RESIDUAL_MAX:g}"
                for p in pts if not p.residual <= BRANCH_RESIDUAL_MAX]
    if not kernel_gap <= KERNEL_GAP_MAX:
        failures.append(f"|f/sigma - h| = {kernel_gap:.3g}")
    if not rate_gap <= BRANCH_RATE_GAP_MAX:
        failures.append(f"branch rate gap {rate_gap:.3g}")
    accuracy = {"branch_residual_sup": sup}
    failures += accuracy_failures(accuracy)
    obs = {"lam": eig.lam, "ray": ray,
           "linearization": [r["rel_errors"] for r in lin],
           "points": [[p.sigma, p.lam, p.residual] for p in pts],
           "branch": digest(*(g for p in pts for g in (p.g_inner, p.g_outer))),
           "distances": dists, "final_sup": sup,
           "final_l2": final.l2(zgb), "kernel_gap": kernel_gap,
           "rate_gap": rate_gap}
    return {"observables": obs, "accuracy": accuracy,
            "failures": failures, "counters": {
                "kernel.picard_iters":
                    eig.diagnostics["fixed_point"]["iterations"],
                "branch_points": len(pts)}}


def rotate(s: Setup, seed: int) -> dict:
    """simulate --use-branch: branch point, then one pattern period."""
    from annulus_rotor.eulersim import initial_state, verify_rotation
    run = s.run
    cfg = run.annulus
    prof = s.profile
    eig = build_eigensolution(cfg, prof, run.m, s.zgrid)
    zgb = ZGrid(min(run.nz, BRANCH_NZ))
    pts = continue_branch(eig, cfg, prof, sigma_target=run.sigma, steps=2,
                          n_theta=run.n_theta // 4, zgrid=zgb)
    last = pts[-1]
    state = initial_state(cfg, prof, _branch_perturbation(last, s, zgb),
                          nr=SIM_NR, ntheta=SIM_NTHETA)
    T = 2.0 * np.pi / (run.m * abs(last.lam))
    out = verify_rotation(state, last.lam, T, n_checkpoints=SIM_CHECKPOINTS,
                          m=run.m)
    qs, qe = out.conserved_start, out.conserved_end
    measured = {
        "rate_gap": abs(out.lam_measured - last.lam) / abs(last.lam),
        "return_error": out.return_error,
        "circulation_drift": abs(qe["circulation"] - qs["circulation"]),
        "mean_vorticity_drift": abs(qe["mean_vorticity"]
                                    - qs["mean_vorticity"])
        / abs(qs["mean_vorticity"]),
        "energy_drift": abs(qe["energy"] - qs["energy"]) / qs["energy"],
    }
    failures = [f"{k} {measured[k]:.3g} > {lim:g}"
                for k, lim in ROTATE_LIMITS.items() if not measured[k] <= lim]
    accuracy = {k: measured[k] for k in ("rate_gap", "return_error")}
    failures += accuracy_failures(accuracy)
    obs = {"lam": eig.lam, "branch_lam": last.lam, "T": T,
           "lam_measured": out.lam_measured, **measured,
           "phases": digest(out.phases), "series": len(out.series)}
    return {"observables": obs, "accuracy": accuracy,
            "failures": failures, "counters": {
                "kernel.picard_iters":
                    eig.diagnostics["fixed_point"]["iterations"],
                "branch_points": len(pts)}}


WORKLOADS = {"eigen-sweep": eigen_sweep, "branch": branch, "rotate": rotate}
