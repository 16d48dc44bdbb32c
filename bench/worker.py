"""One benchmark process: set up as a CLI call does, then run one pass.

Prints `READY` once set-up is done (the parent times spawn-to-ready as
set-up time), then, unless `--setup-only`, runs the workload pass and
prints one JSON line with its time, memory, observables, gate failures and,
with `--trace 1`, the per-layer span summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def env_record() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "threads": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "ANNULUS_ROTOR_THREADS")},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def layer_metrics(tracer, pass_s: float, counters: dict) -> dict:
    """The per_layer metrics, by name, from the traced pass."""
    from spans import TARGETS
    summ = tracer.summary()
    out = {}
    for name, _, _ in TARGETS:
        st = summ["layers"][name]
        out[f"{name}.calls"] = st["calls"]
        out[f"{name}.self_s"] = st["self_s"]
    steps = summ["layers"]["eulersim.step"]
    out["eulersim.step.ms_per_call"] = (1e3 * steps["total_s"] / steps["calls"]
                                        if steps["calls"] else 0.0)
    out.update(summ["counts"])
    evals = out["nonlinear.continue_branch.residual_evals"]
    points = counters.get("branch_points", 0)
    out["nonlinear.continue_branch.evals_per_point"] = (evals / points
                                                        if points else 0.0)
    out["kernel.picard_iters"] = counters.get("kernel.picard_iters", 0)
    return {"metrics": out, "root_coverage": summ["root_s"] / pass_s,
            "spans": len(tracer.spans)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the traced pass's spans here")
    args = ap.parse_args(argv)

    import annulus_rotor
    import workloads
    if not os.path.abspath(annulus_rotor.__file__).startswith(
            os.path.join(ROOT, "src") + os.sep):
        print(f"annulus_rotor imported from {annulus_rotor.__file__}, "
              f"not from this checkout", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer().install(clients=[workloads])
    setup = workloads.setup(ROOT)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    run_pass = workloads.WORKLOADS[args.workload]
    if tracer is not None:
        tracer.clear()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        result = run_pass(setup, args.seed)
    except Exception as exc:            # a failed pass is reported, not fatal
        traceback.print_exc()
        result = {"observables": {}, "accuracy": {}, "counters": {},
                  "failures": [f"{type(exc).__name__}: {exc}"]}
    seconds = time.perf_counter() - t0
    record = {"seconds": seconds, "cpu_seconds": time.process_time() - c0,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              **result, "env": env_record()}
    if tracer is not None:
        tracer.uninstall()
        record["trace"] = layer_metrics(tracer, seconds, result["counters"])
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
