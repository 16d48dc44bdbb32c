import os
import subprocess
import sys
import textwrap


def test_wave_and_rotation_load_only_scipy_linalg():
    # one functional_F and a short verify_rotation, in a fresh interpreter
    script = textwrap.dedent("""
        import sys
        sys.path.insert(0, "tests")
        import numpy as np
        from conftest import DESK_CFG, eigensolution
        from annulus_rotor.eulersim import initial_state, verify_rotation
        from annulus_rotor.nonlinear import LevelSetPerturbation, functional_F
        from annulus_rotor.profile import TrapezoidProfile

        eig = eigensolution(1e-2, nz=48)
        prof = TrapezoidProfile(DESK_CFG, 1e-2, 0.1)
        f = LevelSetPerturbation.from_kernel(eig, DESK_CFG, amplitude=1e-3)
        functional_F(eig.lam, f, prof, n_theta=32)
        state = initial_state(DESK_CFG, prof, f, nr=64, ntheta=32)
        verify_rotation(state, eig.lam, 0.5, n_checkpoints=2, m=3)
        print(" ".join(sorted(m for m in sys.modules
                              if m.startswith("scipy."))))
    """)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + env.get("PYTHONPATH", "").split(
            os.pathsep))
    proc = subprocess.run([sys.executable, "-c", script], cwd=root, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "scipy.linalg" in loaded
    for name in ("scipy.fft", "scipy.interpolate", "scipy.integrate",
                 "scipy.optimize"):
        assert name not in loaded
