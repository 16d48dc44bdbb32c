"""Benchmark entry point: one run of one workload.

    python3 bench/run.py --workload eigen-sweep --seed 0 --seconds 40 --trace 0

Every pass runs in a fresh interpreter, as every CLI call does, with the
thread pins below.  With `--trace 0` the run alternates batches of
set-up-only processes with untraced passes for `--seconds`; it reports the
end-to-end metrics.
With `--trace 1` it runs one untraced and one traced pass, checks that both
give bit-identical observables, and reports the per-layer metrics; the
difference in pass time is the tracing overhead.  Each metric is printed by
name with its unit, then a `RECORD` line with the environment and every
pass, then the result as one JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
        "ANNULUS_ROTOR_THREADS": "1"}
SETUP_BATCH = 6
RUN_LIMIT_S = 170.0
MIN_ROOT_COVERAGE = 0.9
REQUIRED = ("src/annulus_rotor/__init__.py", "examples_config/desk.cfg",
            "BENCHMARK.json")


class ChildError(RuntimeError):
    pass


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ, **PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def spawn(args: list[str], env: dict, deadline: float
          ) -> tuple[float, float, dict | None]:
    """Run one worker; return (spawn-to-ready s, spawn-to-exit s, record).

    The worker is killed at `deadline` (a time.perf_counter value)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        t_ready = time.perf_counter()
        rest = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        code = proc.wait()
        proc.stdout.close()
    t_exit = time.perf_counter()
    if ready.strip() != "READY" or code != 0:
        raise ChildError(f"worker {' '.join(args)} exited with {code}")
    lines = rest.strip().splitlines()
    return t_ready - t0, t_exit - t0, json.loads(lines[-1]) if lines else None


def provenance() -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "annulus_rotor")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {"git_commit": commit, "source_sha256": h.hexdigest()}


def layers_idle(spec: dict, workload: str, metrics: dict) -> list[str]:
    """Layers that should move on this workload but made no traced call."""
    idle = []
    for layer, entry in spec["interaction_map"].items():
        if any(workload in m["workloads"] for m in entry["should_move"]) and \
                not any(metrics.get(f"{fn}.calls", 0) > 0
                        for fn in entry["functions"]):
            idle.append(layer)
    return idle


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0,
                    help="seed of the random linearization directions")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measurement budget (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"benchmark: not a source checkout, missing {missing}",
              file=sys.stderr)
        return 2
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load_json(os.path.join(BENCH, "spec.json"))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    budget = args.seconds if args.seconds is not None else bench["run_seconds"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]
             + bench["per_layer"]}
    env = child_env()
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        spawn(base + ["--setup-only"], env, deadline)   # byte-compile, warm up
        setups, passes = [], []
        if args.trace:
            out_dir = os.path.join(BENCH, "out")
            os.makedirs(out_dir, exist_ok=True)
            spans = os.path.join(
                out_dir, f"trace-{args.workload}-seed{args.seed}.csv.gz")
            for extra in (["--trace", "0"],
                          ["--trace", "1", "--spans", spans]):
                passes.append(spawn(base + extra, env, deadline)[2])
        else:
            # set-up batches bracket every pass, so that the set-up median
            # spans the whole run and not only its first seconds
            start, longest = time.perf_counter(), 0.0
            while True:
                for _ in range(SETUP_BATCH):
                    setups.append(spawn(base + ["--setup-only"], env,
                                        deadline)[0])
                if passes and time.perf_counter() - start + longest > budget:
                    break
                ready_s, wall_s, rec = spawn(base, env, deadline)
                setups.append(ready_s)
                passes.append(rec)
                longest = max(longest, wall_s)
    except ChildError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 3

    good = [p for p in passes if not p["failures"]]
    failed = len(passes) - len(good)
    for p in passes:
        for msg in p["failures"]:
            print(f"gate failure: {msg}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "budget_s": budget,
              "env": {**passes[0]["env"], **provenance(), "seed": args.seed},
              "setup_samples_s": setups,
              "passes": [{k: p[k] for k in ("seconds", "cpu_seconds",
                                            "peak_rss_mb", "failures",
                                            "counters")} for p in passes]}
    if args.trace:
        plain, traced = passes
        trace = traced["trace"]
        problems = []
        if plain["observables"] != traced["observables"] or \
                plain["accuracy"] != traced["accuracy"]:
            problems.append("traced pass changed the observables")
        if trace["root_coverage"] < MIN_ROOT_COVERAGE:
            problems.append(f"top-level spans cover only "
                            f"{trace['root_coverage']:.1%} of the pass")
        idle = layers_idle(spec, args.workload, trace["metrics"])
        if idle:
            problems.append(f"layers that should move made no call: {idle}")
        for msg in problems:
            print(f"trace check failure: {msg}", file=sys.stderr)
        if problems and not traced["failures"]:
            failed += 1
        values = {name: trace["metrics"][name]
                  for name in (m["name"] for m in bench["per_layer"])}
        overhead = traced["seconds"] - plain["seconds"]
        record.update(trace_overhead_s=overhead,
                      trace_overhead_share=overhead / plain["seconds"],
                      root_coverage=trace["root_coverage"],
                      spans=trace["spans"], observables=plain["observables"])
        print(f"tracing overhead: {overhead:.3f} s "
              f"({overhead / plain['seconds']:.1%} of the untraced pass), "
              f"top-level spans cover {trace['root_coverage']:.1%}")
    else:
        values = {"setup_s": statistics.median(setups)}
        if good:
            values["time_to_solution_s"] = statistics.median(
                p["seconds"] for p in good)
            values["peak_rss_mb"] = statistics.median(
                p["peak_rss_mb"] for p in good)
        record["accuracy"] = good[0]["accuracy"] if good else {}
        record["observables"] = good[0]["observables"] if good else {}
        for name, value in record["accuracy"].items():
            print(f"accuracy {name} = {value!r} (gated, see bench/spec.json)")
    record["metrics"] = values
    correct = failed == 0 and len(values) == len(
        bench["per_layer"] if args.trace else bench["end_to_end"])
    record["correct"] = correct
    for name, value in values.items():
        print(f"{name} = {value!r} {units[name]}")
    print("RECORD " + json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": len(passes),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
