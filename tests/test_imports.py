import os
import subprocess
import sys
import textwrap


def test_package_and_workflows_load_no_scipy():
    # the package and the simulator imported, then one eigensolution with
    # its kernel checks, adjoint, transversality and operator residual, one
    # F, the linearization check, a short continuation with its Sobolev
    # distances and a short rotation, in a fresh interpreter: no SciPy
    # module is ever loaded, no NumPy submodule first loads inside the
    # workflows, and numpy.random and numpy.ma are never loaded
    script = textwrap.dedent("""
        import sys
        import annulus_rotor
        import annulus_rotor.eulersim
        imported = set(sys.modules)

        from annulus_rotor import (AnnulusConfig, LevelSetPerturbation,
                                   TrapezoidProfile, ZGrid, adjoint_kernel,
                                   build_eigensolution, continue_branch,
                                   functional_F, linearization_check,
                                   sobolev_distance, transversality,
                                   validate_kernel)
        from annulus_rotor.eulersim import initial_state, verify_rotation
        from annulus_rotor.kernel import operator_residual

        cfg = AnnulusConfig(r1=1.0, r2=2.0, R1=1.2, R2=1.5, A=0.0, B=0.15)
        prof = TrapezoidProfile(cfg, 1e-2, 0.1)
        eig = build_eigensolution(cfg, prof, 3, ZGrid(48))
        validate_kernel(eig, cfg, prof)
        adj = adjoint_kernel(eig, cfg, prof)
        transversality(eig, adj, cfg, prof)
        operator_residual(eig, cfg, prof)
        f = LevelSetPerturbation.from_kernel(eig, cfg, amplitude=1e-3)
        functional_F(eig.lam, f, prof, n_theta=32)
        linearization_check(eig, cfg, prof, seed=0)
        zgb = ZGrid(32)
        for p in continue_branch(eig, cfg, prof, sigma_target=1e-3, steps=1,
                                 n_theta=32, zgrid=zgb):
            sobolev_distance(prof, 1.0, f=LevelSetPerturbation(
                m=3, zgrid=zgb, g_inner=p.g_inner, g_outer=p.g_outer,
                cfg=cfg, eps=1e-2))
        state = initial_state(cfg, prof, f, nr=64, ntheta=32)
        verify_rotation(state, eig.lam, 0.5, n_checkpoints=2, m=3)
        print("SCIPY", *sorted(m for m in sys.modules
                               if m.split(".")[0] == "scipy"))
        print("LATE", *sorted(m for m in set(sys.modules) - imported
                              if m.split(".")[0] == "numpy"))
        print("UNUSED", *sorted(m for m in ("numpy.random", "numpy.ma")
                                if m in sys.modules))
    """)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + env.get("PYTHONPATH", "").split(
            os.pathsep))
    proc = subprocess.run([sys.executable, "-c", script], cwd=root, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = dict(line.split(" ", 1) if " " in line else (line, "")
                 for line in proc.stdout.splitlines())
    assert lines["SCIPY"] == ""
    assert lines["LATE"] == ""
    assert lines["UNUSED"] == ""
