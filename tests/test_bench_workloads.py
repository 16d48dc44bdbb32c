"""The benchmark's workloads import package names, private ones among them
(`nonlinear._interp_gauss`, `nonlinear.normalized_kernel`,
`kernel.operator_residual`); the module must still import."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up by name while the class is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_workloads_import_and_match_the_benchmark():
    workloads = _load_workloads()
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = [w["name"] for w in json.load(fh)["workloads"]]
    assert sorted(workloads.WORKLOADS) == sorted(declared)
    assert all(callable(run) for run in workloads.WORKLOADS.values())
