"""Run the benchmark over several seeds and keep every run's output.

    python3 bench/sweep.py --out DIR [--workloads eigen-sweep branch rotate]
                           [--seeds 10]
                           [--against OTHER_CHECKOUT OTHER_DIR]

Each run's standard output goes to DIR/<workload>-seed<n>.out (its standard
error beside it as .err).  With `--against`, the same benchmark in another
checkout (a parent commit with this `bench/` copied in) runs for every seed
too, and the two sides alternate which runs first, so that the machine's
drift does not fall on one side.  At the end the sweep prints, per workload
and end-to-end metric, the median, quartiles and quartile distance as a
share of the median, against the metric's bound.  Each DIR is a result set
for `bench/compare.py`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from compare import ROOT, load_set, metric_bounds, spread, summary


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", nargs="+", default=workloads)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--against", nargs=2, metavar=("CHECKOUT", "DIR"))
    args = ap.parse_args(argv)
    sides = [(ROOT, args.out)]
    if args.against:
        sides.append((os.path.abspath(args.against[0]), args.against[1]))
    for _, out_dir in sides:
        os.makedirs(out_dir, exist_ok=True)
    for workload in args.workloads:
        for seed in range(args.seeds):
            for root, out_dir in (sides if seed % 2 == 0 else sides[::-1]):
                stem = os.path.join(out_dir, f"{workload}-seed{seed}")
                with open(stem + ".out", "w") as out, \
                        open(stem + ".err", "w") as err:
                    code = subprocess.run(
                        [sys.executable, os.path.join(root, "bench", "run.py"),
                         "--workload", workload, "--seed", str(seed),
                         "--trace", "0"], cwd=root, stdout=out,
                        stderr=err).returncode
                print(f"{out_dir}: {workload} seed {seed}: exit {code}",
                      flush=True)
    for _, out_dir in sides:
        report(out_dir, args.workloads)
    return 0


def report(out_dir: str, workloads: list[str]) -> None:
    runs = load_set(out_dir)
    print(f"\n{out_dir}\n{'workload':<12} {'metric':<20} {'median':>11} "
          f"{'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}  failed")
    for workload in workloads:
        rs = runs.get(workload, [])
        failed = sum(r["failed"] for r in rs)
        for name, _, bound in metric_bounds():
            vals = [r["values"][name] for r in rs if name in r["values"]]
            if not vals:
                continue
            med, q1, q3 = summary(vals)
            print(f"{workload:<12} {name:<20} {med:>11.5g} {q1:>11.5g} "
                  f"{q3:>11.5g} {spread(vals):>7.2%} {bound:>6.2f}  {failed}")


if __name__ == "__main__":
    sys.exit(main())
