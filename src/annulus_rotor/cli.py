"""Command line front end: one subcommand per workflow, CSV artifacts.

Exit codes: 0 ok, 2 config error or argument out of domain, 3
numeric/validation failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import RunConfig, parse_config
from .errors import ConfigError, NumericsError, OutOfDomainError
from .kernel import (RATE_GAP_FLOOR, SVD_GAP_TOL, adjoint_kernel,
                     build_eigensolution, operator_residual, singular_values,
                     transversality, validate_kernel)
from .nonlinear import (LevelSetPerturbation, continue_branch, functional_F,
                        linearization_check, sobolev_distance)
from .poisson import RadialGrid, solve_mode
from .profile import TrapezoidProfile
from .quadrature import ZGrid


# largest relative L2 error of a manufactured modal solve that poisson-test
# passes; the default modes 1..16 on the desk grid err by 3e-15 at most
POISSON_TEST_TOL = 1e-10


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, (int, float, np.floating))
                              else str(v) for v in row) + "\n")


def _report(outdir: str, name: str, lines: list[str]) -> None:
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)


def _eigen(run: RunConfig):
    """The annulus, profile, z-grid and eigensolution every command that
    starts from the eigenpair builds."""
    cfg = run.annulus
    profile, zgrid = TrapezoidProfile.from_run(run), ZGrid(run.nz)
    return cfg, profile, zgrid, build_eigensolution(cfg, profile, run.m, zgrid)


def _branch(run: RunConfig, cfg, profile, eig, steps: int) -> list:
    """The branch continued to run.sigma in steps points on a z-grid of at
    most 48 nodes, each point with its level-set perturbation."""
    zgb = ZGrid(min(run.nz, 48))
    return [(p, LevelSetPerturbation(m=run.m, zgrid=zgb, g_inner=p.g_inner,
                                     g_outer=p.g_outer, cfg=cfg, eps=run.eps))
            for p in continue_branch(eig, cfg, profile, sigma_target=run.sigma,
                                     steps=steps, n_theta=run.n_theta // 4,
                                     zgrid=zgb)]


def _write_kernel(path: str, zgrid: ZGrid, eig, adj: dict) -> None:
    """The kernel pair and its adjoint at the z-grid nodes."""
    write_csv(path, ["z", "a", "b", "a_star", "b_star"],
              zip(zgrid.z, eig.a, eig.b, adj["astar"], adj["bstar"]))


def cmd_profile_dump(run: RunConfig, outdir: str, args) -> int:
    profile = TrapezoidProfile.from_run(run)
    table = profile.tabulate(args.points)
    write_csv(os.path.join(outdir, "profile.csv"),
              ["z", "edge", "edge_prime"], table)
    _report(outdir, "profile-dump", [
        f"edge profile tabulated at {args.points} points",
        f"edge(-1)={_fmt(profile.edge(-1.0))} edge(1)={_fmt(profile.edge(1.0))}",
        f"band half-width eps={run.eps}, regularization kappa={run.kappa}",
    ])
    return 0


def cmd_poisson_test(run: RunConfig, outdir: str, args) -> int:
    if args.n_max < 1:
        raise OutOfDomainError(f"--n-max must be at least 1; got {args.n_max}")
    cfg = run.annulus
    grid = RadialGrid.for_profile(cfg, run.eps, run.nodes_per_panel)
    rows = []
    worst = 0.0
    for n in range(1, args.n_max + 1):
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
        rows.append((n, rel))
    write_csv(os.path.join(outdir, "poisson_manufactured.csv"),
              ["mode", "rel_l2_error"], rows)
    _report(outdir, "poisson-test", [
        f"manufactured-solution modal solves, n = 1..{args.n_max}",
        f"worst relative L2 error: {_fmt(worst)}",
        f"radial nodes: {grid.n}",
    ])
    bad = next(((n, rel) for n, rel in rows if rel > POISSON_TEST_TOL), None)
    if bad is not None:
        raise NumericsError(f"mode {bad[0]}: relative L2 error "
                            f"{_fmt(bad[1])} exceeds {POISSON_TEST_TOL:g}")
    return 0


def cmd_find_eigen(run: RunConfig, outdir: str, args) -> int:
    cfg, profile, zgrid, eig = _eigen(run)
    res = operator_residual(eig, cfg, profile)
    rows = []
    for n in range(1, run.M + 1):
        sv = singular_values(n, eig.lam, profile, zgrid)
        rows.append((n, sv[-1], sv[-2], sv[0]))
    write_csv(os.path.join(outdir, "eigen_sigma_table.csv"),
              ["mode", "sigma_min", "sigma_second", "sigma_max"], rows)
    adj = adjoint_kernel(eig, cfg, profile)
    lam_star = eig.diagnostics["lambda1_root"]["lambda_star"]
    _write_kernel(os.path.join(outdir, "eigen_kernel.csv"), zgrid, eig, adj)
    _report(outdir, "find-eigen", [
        f"mode m={run.m}, eps={run.eps}, kappa={run.kappa}",
        f"lambda0={_fmt(eig.lam0)}",
        f"lambda1={_fmt(eig.lam1)} (lambda_star={_fmt(lam_star)})",
        f"lambda2={_fmt(eig.lam2)}",
        f"lambda={_fmt(eig.lam)}",
        f"operator residual (weighted, relative): {_fmt(res)}",
        f"fixed point iterations: {eig.diagnostics['fixed_point']['iterations']}"
        f", contraction ratio: {_fmt(eig.diagnostics['fixed_point']['ratio'])}",
    ])
    return 0


def cmd_validate_kernel(run: RunConfig, outdir: str, args) -> int:
    cfg, profile, zgrid, eig = _eigen(run)
    diag = validate_kernel(eig, cfg, profile, M=run.M)
    rows = [(n, v["rung"], v["gap"], int(v["ok"]))
            for n, v in diag["off_modes"].items()]
    write_csv(os.path.join(outdir, "kernel_offmodes.csv"),
              ["mode", "rung", "gap", "ok"], rows)
    _report(outdir, "validate-kernel", [
        f"sigma_min={_fmt(diag['sigma_min'])}",
        f"sigma_second={_fmt(diag['sigma_second'])}",
        f"gap ratio={_fmt(diag['gap_ratio'])} (tol {SVD_GAP_TOL:g})",
        f"null-vector cosine={_fmt(diag['cosine'])}",
        f"last mode with a rate below the continuum edge: n*={diag['n_star']}",
        f"least rate-slope gap to another mode={_fmt(diag['least_gap'])}",
        f"least rate-slope gap to a mode km={_fmt(diag['least_gap_km'])}",
        f"rate-slope gap to the continuum edge={_fmt(diag['edge_gap'])}",
        f"all off-mode gaps above {RATE_GAP_FLOOR:g} eps",
    ])
    return 0


def cmd_adjoint(run: RunConfig, outdir: str, args) -> int:
    cfg, profile, zgrid, eig = _eigen(run)
    adj = adjoint_kernel(eig, cfg, profile)
    _write_kernel(os.path.join(outdir, "adjoint_kernel.csv"), zgrid, eig,
                  adj)
    _report(outdir, "adjoint", [
        f"adjoint sigma_min={_fmt(adj['sigma_min'])}",
        f"inner part weighted norm={_fmt(adj['a_norm_weighted'])} (O(eps))",
        f"outer gap to leading profile={_fmt(adj['b_gap_weighted'])} (O(eps))",
        f"alignment scale C={_fmt(adj['scale'])}",
    ])
    return 0


def cmd_transversality(run: RunConfig, outdir: str, args) -> int:
    cfg, profile, zgrid, eig = _eigen(run)
    adj = adjoint_kernel(eig, cfg, profile)
    tv = transversality(eig, adj, cfg, profile)
    _report(outdir, "transversality", [
        f"pairing T={_fmt(tv['T'])}",
        f"inner-band term={_fmt(tv['term_inner'])} (O(eps^2))",
        f"outer-band term={_fmt(tv['term_outer'])}",
        f"analytic leading part={_fmt(tv['leading'])}",
        f"sign matches leading: {tv['sign_matches_leading']}",
        f"pencil pairing y diag(r^2) x={_fmt(tv['pencil'])}",
    ])
    return 0


def cmd_residual(run: RunConfig, outdir: str, args) -> int:
    cfg, profile, zgrid, eig = _eigen(run)
    rows = []
    for sigma in args.sigmas:
        f = LevelSetPerturbation.from_kernel(eig, cfg, amplitude=sigma)
        res = functional_F(eig.lam, f, profile, n_theta=run.n_theta // 2)
        rows.append((sigma, res.sup(), res.l2(zgrid)))
    write_csv(os.path.join(outdir, "residual_sweep.csv"),
              ["sigma", "sup_norm", "l2_norm"], rows)
    lin = linearization_check(eig, cfg, profile, seed=run.seed)
    _report(outdir, "residual", [
        "wave residual along the kernel direction:",
        *[f"  sigma={_fmt(s)}: sup={_fmt(a)} l2={_fmt(b)}" for s, a, b in rows],
        "linearization check (rel error per tau):",
        *[f"  {r['taus']}: {[_fmt(e) for e in r['rel_errors']]}"
          for r in lin],
    ])
    return 0


def cmd_continue(run: RunConfig, outdir: str, args) -> int:
    cfg, profile, zgrid, eig = _eigen(run)
    branch = _branch(run, cfg, profile, eig, args.steps)
    rows = [(p.sigma, p.lam, p.residual,
             sobolev_distance(profile, 1.0, f=fb)["estimate"], p.newton_iters)
            for p, fb in branch]
    write_csv(os.path.join(outdir, "branch.csv"),
              ["sigma", "lambda", "residual", "h1_distance", "newton_iters"],
              rows)
    last, fb = branch[-1]
    write_csv(os.path.join(outdir, "branch_profile.csv"),
              ["z", "g_inner", "g_outer"],
              zip(fb.zgrid.z, last.g_inner, last.g_outer))
    _report(outdir, "continue", [
        f"branch continued to sigma={_fmt(last.sigma)} in {len(branch)} steps",
        f"lambda at target: {_fmt(last.lam)} (kernel rate {_fmt(eig.lam)})",
        f"final residual: {_fmt(last.residual)}",
    ])
    return 0


def cmd_distance(run: RunConfig, outdir: str, args) -> int:
    cfg = run.annulus
    rows = []
    for eps in args.eps_list:
        profile = TrapezoidProfile(cfg, eps, run.kappa)
        for s in args.s_list:
            out = sobolev_distance(profile, s)
            rows.append((eps, run.kappa, s, out["estimate"], out["h1"],
                         out["h2"]))
    write_csv(os.path.join(outdir, "distance.csv"),
              ["eps", "kappa", "s", "norm_estimate", "h1", "h2"], rows)
    # log-log slope of the estimate in eps, per s (rows run s fastest)
    n_s = len(args.s_list)
    slopes = [np.polyfit(np.log(args.eps_list),
                         np.log([r[3] for r in rows[j::n_s]]), 1)[0]
              for j in range(n_s)] if len(args.eps_list) > 1 else []
    _report(outdir, "distance", [
        "Sobolev distance sweep (eps, kappa, s, estimate):",
        *[f"  eps={_fmt(r[0])} s={_fmt(r[2])}: {_fmt(r[3])}" for r in rows],
        *[f"fitted slope of log estimate in log eps at s={_fmt(s)}: "
          f"{_fmt(k)}" for s, k in zip(args.s_list, slopes)],
    ])
    return 0


def cmd_simulate(run: RunConfig, outdir: str, args) -> int:
    from .eulersim import initial_state, verify_rotation
    cfg, profile, zgrid, eig = _eigen(run)
    if args.use_branch:
        last, f = _branch(run, cfg, profile, eig, 2)[-1]
        lam = last.lam
    else:
        f = LevelSetPerturbation.from_kernel(eig, cfg, amplitude=run.sigma)
        lam = eig.lam
    state = initial_state(cfg, profile, f, nr=args.nr, ntheta=args.ntheta,
                          dealias=args.dealias)
    T = args.T if args.T is not None else 2.0 * np.pi / (run.m * abs(lam))
    out = verify_rotation(state, lam, T, dt=args.dt,
                          n_checkpoints=args.checkpoints, m=run.m)
    rows = list(zip(out.times, out.phases))
    write_csv(os.path.join(outdir, "rotation_phase.csv"),
              ["t", "phase"], rows)
    qs, qe = out.conserved_start, out.conserved_end
    write_csv(os.path.join(outdir, "simulate_series.csv"),
              ["t", "lam_measured", "return_error", "circulation", "energy"],
              [(row["t"], row["lam_est"], row["return_error"],
                row["circulation"], row["energy"]) for row in out.series])
    if args.snapshots:
        # the stored sector; the field repeats with period 2 pi/m
        grid = state.grid
        rowsnap = []
        for i in range(0, grid.nr, max(grid.nr // 64, 1)):
            for j in range(0, grid.ntheta, max(grid.ntheta // 64, 1)):
                rowsnap.append((grid.r[i], grid.theta[j], state.omega[i, j]))
        write_csv(os.path.join(outdir, "snapshot_t0.csv"),
                  ["r", "theta", "omega"], rowsnap)
    _report(outdir, "simulate", [
        f"expected rate lambda={_fmt(lam)} over T={_fmt(T)}",
        f"time step: dt={_fmt(out.dt)}, {out.nsteps} steps",
        f"measured rate: {_fmt(out.lam_measured)} "
        f"(rel gap {_fmt(abs(out.lam_measured - lam) / abs(lam))})",
        f"period-return error: {_fmt(out.return_error)}",
        f"circulation drift: {_fmt(qe['circulation'] - qs['circulation'])}",
        f"energy drift (rel): "
        f"{_fmt(abs(qe['energy'] - qs['energy']) / qs['energy'])}",
    ])
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="annulus-rotor",
                                 description=__doc__)
    ap.add_argument("--config", required=True, help="key=value config file")
    ap.add_argument("--outdir", default="out", help="output directory")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("profile-dump").add_argument("--points", type=int,
                                                default=4096)
    sp = sub.add_parser("poisson-test")
    sp.add_argument("--n-max", type=int, default=16)
    sub.add_parser("find-eigen")
    sub.add_parser("validate-kernel")
    sub.add_parser("adjoint")
    sub.add_parser("transversality")
    sp = sub.add_parser("residual")
    sp.add_argument("--sigmas", type=float, nargs="+",
                    default=[1e-3, 5e-4, 2.5e-4])
    sp = sub.add_parser("continue")
    sp.add_argument("--steps", type=int, default=4)
    sp = sub.add_parser("distance")
    sp.add_argument("--eps-list", type=float, nargs="+",
                    default=[2e-2, 1e-2, 5e-3])
    sp.add_argument("--s-list", type=float, nargs="+", default=[1.0])
    sp = sub.add_parser("simulate")
    sp.add_argument("--T", type=float, default=None)
    sp.add_argument("--dt", type=float, default=None,
                    help="time step of the integrating-factor RK4, which "
                         "moves with the mean rotation; default 0.8 of the "
                         "limit set by the radial velocity, the residual "
                         "swirl and 1/max|omega|; either way shrunk to a "
                         "whole number of steps over T, no fewer than the "
                         "--checkpoint-every count; a step above that limit "
                         "is a numeric failure")
    sp.add_argument("--nr", type=int, default=384)
    sp.add_argument("--ntheta", type=int, default=256,
                    help="full-circle angular points; the m-fold symmetric "
                         "wave runs on one 2 pi/m sector of about ntheta/m")
    sp.add_argument("--checkpoint-every", dest="checkpoints", type=int,
                    default=16,
                    help="number of checkpoints spread over T (not an "
                         "interval), which is also the least step count")
    sp.add_argument("--use-branch", action="store_true")
    sp.add_argument("--dealias", action="store_true")
    sp.add_argument("--snapshots", action="store_true")
    return ap


_COMMANDS = {
    "profile-dump": cmd_profile_dump,
    "poisson-test": cmd_poisson_test,
    "find-eigen": cmd_find_eigen,
    "validate-kernel": cmd_validate_kernel,
    "adjoint": cmd_adjoint,
    "transversality": cmd_transversality,
    "residual": cmd_residual,
    "continue": cmd_continue,
    "distance": cmd_distance,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        run = parse_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(args.outdir, exist_ok=True)
    try:
        return _COMMANDS[args.command](run, args.outdir, args)
    except OutOfDomainError as exc:
        print(f"argument out of domain: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
