import re
import subprocess
import sys

import numpy as np
import pytest

CONFIG_OK = """\
# desk-scale defaults
r1 = 1.0
r2 = 2.0
R1 = 1.2
R2 = 1.5
A = 0.0
B = 0.15
eps = 1e-2
kappa = 0.1
m = 3
M = 8
sigma = 1e-3
nz = 48
n_theta = 64
"""

MINIMAL = """\
r1 = 1.0
r2 = 2.0
R1 = 1.2
R2 = 1.5
A = 0.0
B = 0.15
"""


def run_cli(tmp_path, config_text, *args):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text)
    out = tmp_path / "out"
    cmd = [sys.executable, "-m", "annulus_rotor", "--config", str(cfg),
           "--outdir", str(out)] + list(args)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    return proc, out


def test_minimal_config_defaults(tmp_path):
    proc, out = run_cli(tmp_path, MINIMAL, "profile-dump", "--points", "64")
    assert proc.returncode == 0, proc.stderr
    assert (out / "profile.csv").exists()


def test_unknown_key_rejected(tmp_path):
    proc, _ = run_cli(tmp_path, MINIMAL + "bogus = 3\n", "profile-dump")
    assert proc.returncode == 2
    assert "bogus" in proc.stderr


def test_ordering_violation_rejected(tmp_path):
    bad = MINIMAL.replace("R1 = 1.2", "R1 = 1.7")
    proc, _ = run_cli(tmp_path, bad, "profile-dump")
    assert proc.returncode == 2
    assert "r1 < R1 < R2 < r2" in proc.stderr


def test_zero_B_rejected(tmp_path):
    bad = MINIMAL.replace("B = 0.15", "B = 0.0")
    proc, _ = run_cli(tmp_path, bad, "profile-dump")
    assert proc.returncode == 2
    assert "B" in proc.stderr


def test_missing_key_rejected(tmp_path):
    proc, _ = run_cli(tmp_path, "r1 = 1.0\nr2 = 2.0\n", "profile-dump")
    assert proc.returncode == 2
    assert "missing" in proc.stderr.lower()


def test_numeric_failure_exit_code(tmp_path):
    # B = 1 has no rate-slope root at kappa = 0.1: bracket failure -> 3
    bad = CONFIG_OK.replace("B = 0.15", "B = 1.0")
    proc, _ = run_cli(tmp_path, bad, "find-eigen")
    assert proc.returncode == 3
    assert "kappa" in proc.stderr or "invalid" in proc.stderr


def test_poisson_subcommand(tmp_path):
    proc, out = run_cli(tmp_path, CONFIG_OK, "poisson-test", "--n-max", "4")
    assert proc.returncode == 0, proc.stderr
    assert (out / "poisson_manufactured.csv").exists()
    body = (out / "poisson_manufactured.csv").read_text().splitlines()
    assert body[0] == "mode,rel_l2_error"
    assert len(body) == 5


def test_find_eigen_outputs(tmp_path):
    proc, out = run_cli(tmp_path, CONFIG_OK, "find-eigen")
    assert proc.returncode == 0, proc.stderr
    assert "lambda0=" in proc.stdout
    assert "lambda1=" in proc.stdout
    assert "lambda2=" in proc.stdout
    assert (out / "eigen_sigma_table.csv").exists()
    assert (out / "eigen_kernel.csv").exists()
    header = (out / "eigen_kernel.csv").read_text().splitlines()[0]
    assert header == "z,a,b,a_star,b_star"


def test_determinism_byte_identical(tmp_path):
    import shutil
    for command, artifact in (("find-eigen", "eigen_kernel.csv"),
                              ("validate-kernel", "kernel_offmodes.csv"),
                              ("adjoint", "adjoint_kernel.csv")):
        proc1, out1 = run_cli(tmp_path, CONFIG_OK, command)
        body1 = (out1 / artifact).read_bytes()
        shutil.rmtree(out1)
        proc2, out2 = run_cli(tmp_path, CONFIG_OK, command)
        body2 = (out2 / artifact).read_bytes()
        shutil.rmtree(out2)
        assert proc1.returncode == proc2.returncode == 0, command
        assert body1 == body2, artifact


def test_validate_kernel_subcommand(tmp_path):
    proc, out = run_cli(tmp_path, CONFIG_OK, "validate-kernel")
    assert proc.returncode == 0, proc.stderr
    assert "gap ratio" in proc.stdout
    assert (out / "kernel_offmodes.csv").exists()


def test_sigma_table_off_modes_match_validate_kernel(tmp_path):
    # the rate ladder's verdicts agree with the discrete check on the
    # find-eigen sigma table: sigma_min >= 1e-3 eps sigma_max at n != m
    eps, m = 1e-2, "3"
    proc, out = run_cli(tmp_path, CONFIG_OK, "find-eigen")
    assert proc.returncode == 0, proc.stderr
    table = [row.split(",") for row in
             (out / "eigen_sigma_table.csv").read_text().splitlines()[1:]]
    proc, out = run_cli(tmp_path, CONFIG_OK, "validate-kernel")
    assert proc.returncode == 0, proc.stderr
    lines = (out / "kernel_offmodes.csv").read_text().splitlines()
    assert lines[0] == "mode,rung,gap,ok"
    offmodes = {row.split(",")[0]: row.split(",")[3] for row in lines[1:]}
    # every mode up to n* + 1 = 10, the first past the continuum edge
    assert sorted(offmodes, key=int) == [str(n) for n in range(1, 11)
                                         if str(n) != m]
    expected = {mode: str(int(float(smin) >= 1e-3 * eps * float(smax)))
                for mode, smin, _, smax in table if mode != m}
    assert len(expected) == 7
    assert {mode: offmodes[mode] for mode in expected} == expected
    assert "n*=9" in proc.stdout


def test_transversality_subcommand(tmp_path):
    proc, out = run_cli(tmp_path, CONFIG_OK, "transversality")
    assert proc.returncode == 0, proc.stderr
    assert "pairing T=" in proc.stdout
    assert "pencil pairing y diag(r^2) x=" in proc.stdout


def test_simulate_subcommand_tiny(tmp_path):
    proc, out = run_cli(tmp_path, CONFIG_OK, "simulate", "--nr", "96",
                        "--ntheta", "32", "--T", "2.0", "--snapshots")
    assert proc.returncode == 0, proc.stderr
    assert "time step: dt=" in proc.stdout and " 16 steps" in proc.stdout
    series = (out / "simulate_series.csv").read_text().splitlines()
    assert series[0] == "t,lam_measured,return_error,circulation,energy"
    assert len(series) >= 3
    snapshot = (out / "snapshot_t0.csv").read_text().splitlines()
    assert snapshot[0] == "r,theta,omega" and len(snapshot) > 1
    # the stored 2 pi/m sector (m = 3)
    assert all(float(row.split(",")[1]) < 2 * np.pi / 3
               for row in snapshot[1:])


def test_distance_subcommand(tmp_path):
    proc, out = run_cli(tmp_path, CONFIG_OK, "distance",
                        "--eps-list", "1e-2", "5e-3", "--s-list", "1.0")
    assert proc.returncode == 0, proc.stderr
    lines = (out / "distance.csv").read_text().splitlines()
    assert lines[0] == "eps,kappa,s,norm_estimate,h1,h2"
    assert len(lines) == 3
    # the H1 estimate scales like eps^(1/2)
    slope = (out / "distance.txt").read_text().splitlines()[-1]
    assert slope.startswith("fitted slope of log estimate in log eps at s=1:")
    assert abs(float(slope.split(": ")[1]) - 0.5) < 0.05


@pytest.mark.parametrize("args,message", [
    (("simulate", "--nr", "96", "--ntheta", "2"), "highest mode 0"),
    (("simulate", "--nr", "4"), "nr must be at least 5"),
    # m = 3: 720 sector columns carry full-circle modes up to 1080, past
    # the Green's stream solve's sinh guard at 864
    (("simulate", "--nr", "96", "--ntheta", "2048"),
     r"ntheta=720 columns .* modes up to 1080, .*ntheta may be at most 577$"),
    (("simulate", "--nr", "8"), r"nr=8 .*r_xi is not positive"),
    (("simulate", "--nr", "96", "--ntheta", "32", "--T", "-1"), r"T=-1\.0"),
    (("simulate", "--nr", "96", "--ntheta", "32", "--dt", "-1"),
     r"dt=-1\.0"),
    (("simulate", "--nr", "96", "--ntheta", "32", "--checkpoint-every", "0"),
     "n_checkpoints=0"),
    (("continue", "--steps", "0"), "steps must be at least 1; got 0"),
    (("distance", "--eps-list", "0.5"), r"eps must lie in .*got 0\.5"),
    (("poisson-test", "--n-max", "0"), "--n-max must be at least 1; got 0"),
], ids=lambda v: "-".join(v) if isinstance(v, tuple) else "")
def test_out_of_domain_arguments_exit_2(tmp_path, args, message):
    proc, _ = run_cli(tmp_path, CONFIG_OK, *args)
    assert proc.returncode == 2
    assert re.search(rf"^argument out of domain: .*{message}", proc.stderr)
    assert "Traceback" not in proc.stderr


def test_simulation_numeric_failure_exits_3(tmp_path):
    # a step above the CFL limit is refused as a numeric failure
    proc, _ = run_cli(tmp_path, CONFIG_OK, "simulate", "--nr", "96",
                      "--ntheta", "32", "--T", "1000", "--dt", "1000",
                      "--checkpoint-every", "1")
    assert proc.returncode == 3
    assert re.match(r"numeric failure: step dt=.* exceeds cfl_limit",
                    proc.stderr)
    assert "Traceback" not in proc.stderr
