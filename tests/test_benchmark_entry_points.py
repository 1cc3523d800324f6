"""Smoke test of the benchmark's entry points.

Each workload's warm-up plan (the small instances perfbench runs before
timing) goes once through perfbench/run.py's run_pass, and every
operation must come out "ok".  This keeps the library names the
benchmark calls working from the tier-1 suite: among them
fileio.load_corner_boxes, fileio.load_semisquares and the two
intersection-graph functions of andbox.boxes.  It reads perfbench/ and
writes only under pytest's temporary directory.
"""

import os
import sys

import pytest

# run.py imports its sibling modules (oracles, tracing) as top-level ones
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402

from andbox import cli  # noqa: E402


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_warm_up_plan_runs_clean(name, tmp_path):
    plan = workloads.WORKLOADS[name](1, str(tmp_path), warmup=True)
    rows = run.run_pass(plan.ops, cli)
    assert len(rows) == len(plan.ops) > 0
    assert [(label, outcome, reason) for label, _, outcome, reason in rows if outcome != "ok"] == []


def test_geometry_plan_calls_both_intersection_graphs(tmp_path):
    labels = [op.label for op in workloads.geometry(1, str(tmp_path), warmup=True).ops]
    assert any(label.startswith("corner-box graph") for label in labels)
    assert any(label.startswith("semi-square graph") for label in labels)
