"""Smoke test of the benchmark's entry points.

Each workload's warm-up plan (the small instances perfbench runs before
timing) goes once through perfbench/run.py's run_pass, and every
operation must come out "ok".  This keeps the library names the
benchmark calls working from the tier-1 suite: among them
fileio.load_corner_boxes, fileio.load_semisquares and the two
intersection-graph functions of andbox.boxes.  fileio.load_graph is
called only by run.py's backend check, which no warm-up plan reaches, so
every fileio.<name> and boxes.<name> in perfbench's sources is also looked
up directly.  It reads perfbench/ and writes only under pytest's
temporary directory.
"""

import glob
import os
import re
import sys

import pytest

# run.py imports its sibling modules (oracles, tracing) as top-level ones
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402
import workloads  # noqa: E402

from andbox import boxes, cli, fileio  # noqa: E402


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


def test_every_module_name_the_benchmark_uses_exists():
    # a reference is module.name in a source that imports the module from
    # andbox; a quoted "boxes.x" is a metric name, not a lookup
    modules = {"boxes": boxes, "fileio": fileio}
    used = set()
    for path in glob.glob(os.path.join(PERFBENCH, "*.py")):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        for mod in modules:
            if re.search(rf"^\s*from andbox import [^\n]*\b{mod}\b", source, re.M):
                names = re.findall(rf"(?<![\w.\"']){mod}\.(\w+)", source)
                used.update((mod, name) for name in names)
    kept = {("fileio", name) for name in ("load_graph", "load_corner_boxes", "load_semisquares")}
    assert kept <= used
    missing = [(mod, name) for mod, name in sorted(used) if not callable(getattr(modules[mod], name, None))]
    assert missing == []
