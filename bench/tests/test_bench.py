"""The benchmark's own tests: its definition, its tracer and its compare.

Run with `python -m pytest -q bench/tests` from the repository root.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _json(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def bench():
    return _json(os.path.join(ROOT, "BENCHMARK.json"))


@pytest.fixture(scope="module")
def spec():
    return _json(os.path.join(BENCH, "spec.json"))


def _metrics(bench):
    return bench["end_to_end"] + bench["per_layer"]


def test_metric_names_and_units(bench):
    names = [m["name"] for m in _metrics(bench)] \
        + [w["name"] for w in bench["workloads"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert all(UNIT.match(m["unit"]) for m in _metrics(bench))


def test_benchmark_definition(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == \
        ["eigen-sweep", "branch", "rotate"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(set(m) == {"name", "unit", "better", "bound"}
               for m in bench["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in bench["per_layer"])
    assert 1 <= len(bench["per_layer"]) <= 128
    assert isinstance(bench["run_seconds"], int)


def test_interaction_map_names_exist(bench, spec):
    workloads = {w["name"] for w in bench["workloads"]}
    movable = {m["name"] for m in bench["end_to_end"]} | set(spec["accuracy"])
    per_layer = {m["name"] for m in bench["per_layer"]}
    covered = []
    for entry in spec["interaction_map"].values():
        for effect in entry["should_move"] + entry["should_not_move"]:
            assert effect["metric"] in movable
            assert set(effect["workloads"]) <= workloads
        for fn in entry["functions"]:
            covered += [f"{fn}.calls", f"{fn}.self_s"]
        covered += entry["counters"]
    assert sorted(covered) == sorted(per_layer)
    assert all(a["workload"] in workloads for a in spec["accuracy"].values())


def test_tracer_targets_are_the_mapped_functions(spec):
    from spans import TARGETS
    mapped = [fn for e in spec["interaction_map"].values()
              for fn in e["functions"]]
    assert sorted(name for name, _, _ in TARGETS) == sorted(mapped)


def test_traced_run_agrees_with_untraced():
    import annulus_rotor.kernel
    import workloads
    from spans import Tracer

    s = workloads.setup(ROOT)
    cfg = s.run.annulus

    def case():
        eig = workloads.build_eigensolution(cfg, s.profile, 3, s.zgrid)
        diag = workloads.validate_kernel(eig, cfg, s.profile, M=s.run.M)
        f = workloads.LevelSetPerturbation.from_kernel(eig, cfg,
                                                       amplitude=1e-3)
        res = workloads.functional_F(eig.lam, f, s.profile, n_theta=32)
        return (eig.lam, workloads.digest(eig.a, eig.b), diag["gap_ratio"],
                diag["cosine"], res.sup(), res.l2(s.zgrid))

    plain = case()
    tracer = Tracer().install(clients=[workloads])
    try:
        traced = case()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert plain[0] == _json(os.path.join(BENCH, "spec.json"))[
        "reference_lambdas"]["m=3,eps=0.01"]

    summ = tracer.summary()
    layers = summ["layers"]
    for name in ("kernel.build_eigensolution", "kernel.solve_lambda1",
                 "mollifier.cdf2", "linalg.svd", "linop.assemble",
                 "nonlinear.functional_F", "poisson.solve_full",
                 "poisson.RadialGrid.init"):
        assert layers[name]["calls"] > 0, name
    assert layers["eulersim.step"]["calls"] == 0
    assert summ["counts"]["kernel.lambda1_I_evals"] > 0
    assert summ["counts"]["nonlinear.continue_branch.residual_evals"] == 0
    # self times partition the top-level spans
    total_self = sum(st["self_s"] for st in layers.values())
    assert total_self == pytest.approx(summ["root_s"], rel=1e-9)
    # uninstall restores every binding
    assert workloads.build_eigensolution is \
        annulus_rotor.kernel.build_eigensolution
    assert not hasattr(workloads.build_eigensolution, "__wrapped__")
    assert not hasattr(annulus_rotor.kernel._I_quadrature, "__wrapped__")
    assert not hasattr(annulus_rotor.nonlinear.functional_F, "__wrapped__")


def test_compare_verdicts():
    from compare import verdict
    parent = [(s, 10.0 + 0.01 * s) for s in range(10)]
    assert verdict(parent, [(s, v * 1.01) for s, v in parent], 0.1) == \
        "no regression"
    assert verdict(parent, [(s, v * 1.2) for s, v in parent], 0.1) == "worse"
    assert verdict(parent, [(s, v * 0.8) for s, v in parent], 0.1) == "better"
    noisy = [(s, 10.0 * (1 + 0.1 * (s % 3))) for s in range(10)]
    assert verdict(parent, noisy, 0.1) == "unresolved"
    assert verdict(noisy, [(s, 5.0) for s in range(10)], 0.1) == "better"


def _write_run(directory, workload, seed, seconds, failed=0):
    record = {"workload": workload, "seed": seed, "trace": 0, "accuracy": {}}
    result = {"correct": not failed, "attempted": 2, "failed": failed,
              "metrics": {"setup_s": {"value": 0.4, "unit": "s"},
                          "time_to_solution_s": {"value": seconds,
                                                 "unit": "s"},
                          "peak_rss_mb": {"value": 64.0, "unit": "MB"}}}
    (directory / f"{workload}-seed{seed}.out").write_text(
        f"RECORD {json.dumps(record)}\n{json.dumps(result)}\n")


def test_compare_counts_runs_without_a_result_as_failed(tmp_path):
    from compare import compare, load_set, main
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    for seed in range(4):
        for workload in ("branch", "rotate"):
            _write_run(parent, workload, seed, 15.0 + 0.1 * seed)
        _write_run(change, "branch", seed, 15.0 + 0.1 * seed)
    assert main([str(parent), str(change)]) == 1
    (change / "branch-seed4.out").write_text("")   # a run killed early
    runs = load_set(str(change))
    assert [r["failed"] for r in runs["branch"]] == [0, 0, 0, 0, 1]
    rows = compare(load_set(str(parent)), runs)
    verdicts = {(r["workload"], r["metric"]): r["verdict"] for r in rows}
    # rotate has no run on the change side; branch has one more failure
    assert set(verdicts.values()) == {"failed"}
    assert ("rotate", "time_to_solution_s") in verdicts
    assert main([str(parent), str(parent)]) == 0


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "branch", "--seed",
         "0", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
        capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
