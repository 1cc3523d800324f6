import json
import os
import shutil
import subprocess
import sys

import compare
import run
import tracing
import workloads
from andbox import _kernels_py

ROOT = os.path.dirname(run.HERE)


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_result_lines_carry_exactly_the_declared_metrics():
    b = bench_json()
    assert [(m["name"], m["unit"]) for m in b["end_to_end"]] == [
        (k, run.END_TO_END_UNITS[k]) for k in run.RESULT_LINE
    ]
    emitted = list(tracing.layer_metrics([])) + [
        "trace.overhead_ratio", "run.exhausted_ratio", "run.failed_ratio"
    ]
    assert [(m["name"], m["unit"]) for m in b["per_layer"]] == [
        (k, tracing.unit_of(k)) for k in emitted
    ]
    assert [w["name"] for w in b["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "geometry", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_backend_check_reports_disagreement(tmp_path):
    plan = workloads.and1_search(3, str(tmp_path), warmup=True)
    same = run.backend_check(plan, str(tmp_path), _kernels_py.search_order, _kernels_py.search_order)
    assert same == []

    def off_by_one(masks, budget):
        status, order, nodes = _kernels_py.search_order(masks, budget)
        return status, order, nodes + 1

    bad = run.backend_check(plan, str(tmp_path), _kernels_py.search_order, off_by_one)
    assert len(bad) == len(plan.instances)


def test_compare_refuses_different_backends():
    base = {"meta": {"workload": "geometry", "backend": "pure-python"},
            "end_to_end": {"pass_s": 2.0}, "per_layer": {}}
    new = {"meta": {"workload": "geometry", "backend": "compiled"},
           "end_to_end": {"pass_s": 1.0}, "per_layer": {}}
    try:
        compare.compare(base, new)
    except ValueError as e:
        assert "backend" in str(e)
    else:
        raise AssertionError("compared runs of different backends")
    new["meta"]["backend"] = "pure-python"
    assert compare.compare(base, new) == [("pass_s", 2.0, 1.0, 0.5)]


def test_seed_counts_name_operations_of_the_plans(tmp_path):
    recorded = run.seed_counts()
    for name, build in workloads.WORKLOADS.items():
        plan = build(1, str(tmp_path))
        labels = {op.label for op in plan.ops + plan.reference}
        assert set(recorded[name]) <= labels
