"""Compare two result sets of the benchmark, metric by metric.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

A result set is a directory of `*.out` files, each the standard output of
one `bench/run.py --trace 0` run (as `bench/sweep.py` writes them).  For
every (end-to-end or accuracy metric, workload) the table shows each side's
median and quartiles and a verdict:

- `better`: the change wins at least nine tenths of the runs paired by
  seed and the medians differ by more than the parent's quartile distance;
- `worse`: the change's median exceeds the parent's by more than the bound;
- `unresolved`: a side's quartile distance exceeds the bound, unless every
  change run beats every parent run;
- `no regression`: none of the above;
- `failed`: the change failed more passes or runs than the parent, or
  has no runs of the workload or no value of the metric.

A run whose output holds no result counts as a failed run.  The command
exits with 1 when any row is `worse` or `failed`.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def load_set(directory: str) -> dict:
    """{workload: [{"seed", "failed", "attempted", "values"}]} of a set.

    A `<workload>-seed<n>.out` file without a result (a run that crashed,
    was killed or exited early) counts as one failed run of its workload."""
    runs: dict[str, list] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.out"))):
        with open(path) as fh:
            lines = fh.read().strip().splitlines()
        record = next((json.loads(ln[len("RECORD "):]) for ln in lines
                       if ln.startswith("RECORD ")), None)
        if record is None:
            workload, _, seed = os.path.basename(path)[:-len(".out")] \
                .rpartition("-seed")
            runs.setdefault(workload, []).append(
                {"seed": int(seed), "failed": 1, "attempted": 1, "values": {}})
            continue
        if record["trace"] != 0:
            continue
        result = json.loads(lines[-1])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        values.update(record.get("accuracy", {}))
        runs.setdefault(record["workload"], []).append(
            {"seed": record["seed"], "failed": result["failed"],
             "attempted": result["attempted"], "values": values})
    return runs


def metric_bounds() -> list[tuple[str, str, float]]:
    """(name, unit, bound) of every compared metric: end-to-end, accuracy."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(BENCH, "spec.json")) as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"], m["bound"]) for m in bench["end_to_end"]] \
        + [(n, a["unit"], a["bound"]) for n, a in spec["accuracy"].items()]


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and first and third quartiles (statistics.quantiles, n=4)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values: list[float]) -> float:
    med, q1, q3 = summary(values)
    return (q3 - q1) / med


def verdict(parent: list[tuple[int, float]], change: list[tuple[int, float]],
            bound: float) -> str:
    """Lower is better.  Each side is a list of (seed, value)."""
    pv = [v for _, v in parent]
    cv = [v for _, v in change]
    pmed, pq1, pq3 = summary(pv)
    cmed, _, _ = summary(cv)
    if max(spread(pv), spread(cv)) > bound:
        return "better" if max(cv) < min(pv) else "unresolved"
    if cmed > pmed * (1.0 + bound):
        return "worse"
    by_seed = dict(parent)
    pairs = [(by_seed[s], v) for s, v in change if s in by_seed]
    wins = sum(1 for p, c in pairs if c < p)
    if pairs and wins >= 0.9 * len(pairs) and pmed - cmed > pq3 - pq1:
        return "better"
    return "no regression"


def compare(parent: dict, change: dict) -> list[dict]:
    """One row per (workload, metric).  A workload or metric that has runs
    on the parent side only, or more failed runs on the change side, is
    `failed`; one that exists on neither side is left out."""
    rows = []
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        more_failed = not c_runs or sum(r["failed"] for r in c_runs) > \
            sum(r["failed"] for r in p_runs)
        for name, unit, bound in metric_bounds():
            pv = [(r["seed"], r["values"][name]) for r in p_runs
                  if name in r["values"]]
            cv = [(r["seed"], r["values"][name]) for r in c_runs
                  if name in r["values"]]
            if not pv and not cv:
                continue
            if more_failed or not cv:
                outcome = "failed"
            elif not pv:
                outcome = "unresolved"
            else:
                outcome = verdict(pv, cv, bound)
            rows.append({
                "workload": workload, "metric": name, "unit": unit,
                "bound": bound, "verdict": outcome, "n": (len(pv), len(cv)),
                "parent": summary([v for _, v in pv]) if pv else None,
                "change": summary([v for _, v in cv]) if cv else None})
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    rows = compare(load_set(args.parent), load_set(args.change))
    if not rows:
        print("neither set has a trace-0 run", file=sys.stderr)
        return 2
    print(f"{'workload':<12} {'metric':<20} {'unit':<5} {'bound':>5}  "
          f"{'parent median [q1, q3]':<36} {'change median [q1, q3]':<36} "
          f"{'n':>5}  verdict")
    for r in rows:
        cells = ["{:.4g} [{:.4g}, {:.4g}]".format(*r[side]) if r[side]
                 else "-" for side in ("parent", "change")]
        print(f"{r['workload']:<12} {r['metric']:<20} {r['unit']:<5} "
              f"{r['bound']:>5.2f}  {cells[0]:<36} {cells[1]:<36} "
              f"{r['n'][0]:>2}/{r['n'][1]:<2}  {r['verdict']}")
    return 1 if any(r["verdict"] in ("worse", "failed") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
