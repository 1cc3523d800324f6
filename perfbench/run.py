#!/usr/bin/env python3
"""andbox benchmark harness.

    python3 perfbench/run.py --workload and1-search --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                       # every workload, one process each

One process runs one workload: it writes the workload's input files,
warms up, then runs passes over the workload's fixed operation list (a
closed loop: one client, one thread, each operation starts when the
previous one returns) for as many whole passes as fit in --seconds
(at least one).  A fixed calibration loop runs before every pass and
set-up, and the times on the result line are scaled by it to one host
speed (see calibrate).  Every answer is re-checked exactly, outside the
timed region, by perfbench/oracles.py.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 untraced and traced passes alternate, the workload's reference
instances (too slow for a pass) then run once traced for their work
counts, and the line holds the per-layer metrics.  Results, the instance
manifest and (when traced) the spans are written under
perfbench/results/.  Exit status is 0 only when every answer was right.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import oracles
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOAD_NAMES = ("and1-search", "cand1-central", "geometry")
SETUP_REPEATS = 5
# calibrate() runs CAL_REPEATS times before every pass and every set-up;
# each pass or set-up time is scaled by CAL_REFERENCE_S over the fastest
# of those, i.e. to a host on which calibrate() takes CAL_REFERENCE_S
# (about its time with Python 3.11 on an unloaded 2.1 GHz 2-core x86 VM).
CAL_REPEATS = 3
CAL_REFERENCE_S = 0.015
# What a workload process imports before its first operation.
START = "import sys; sys.path.insert(0, sys.argv[1]); import andbox.cli, andbox._kernels_py, workloads"
END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "slowest_op_s": "s",
    "exhausted_ratio": "1",
    "failed_ratio": "1",
    "peak_rss_mb": "MiB",
}
# The two ratios are 0 on most runs, so they are printed and stored but
# kept off the result line; the traced run reports them as run.*.
RESULT_LINE = ("setup_s", "pass_s", "slowest_op_s", "peak_rss_mb")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES,
                    help="run one workload in this process (default: all, one process each)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def commit_id(root=ROOT) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# one workload in this process

def execute(op, cli):
    """(exit code or None if it raised, stdout or None, returned value)."""
    if op.call is not None:
        try:
            return 0, None, op.call()
        except Exception as e:  # counted as a failed operation
            return None, None, e
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(op.argv)
    except Exception as e:  # counted as a failed operation
        return None, buf.getvalue(), e
    return code, buf.getvalue(), None


def run_pass(ops, cli, tracer=None):
    """Run every operation once; return [(label, seconds, outcome, reason)]."""
    rows = []
    for i, op in enumerate(ops):
        for path in op.outputs:
            if os.path.exists(path):
                os.remove(path)
        if tracer is not None:
            tracer.op = i
        t = time.perf_counter()
        code, stdout, value = execute(op, cli)
        dt = time.perf_counter() - t
        check = (lambda op=op, v=value: op.check(v)) if op.call is not None else op.check
        outcome, reason = oracles.classify(op.expect, op.budgeted, code, stdout, check)
        rows.append((op.label, dt, outcome, reason))
    return rows


def work_counts(ops, spans):
    """Machine-independent work per instance, from one traced pass."""
    per_op = {}
    for s in spans:
        c = per_op.setdefault(s.op, {})
        if s.name == "kernels.search_order":
            c["kernels.nodes"] = c.get("kernels.nodes", 0) + s.counts["nodes"]
        elif s.name == "orders.four_point_check":
            c["orders.four_point_check.calls"] = c.get("orders.four_point_check.calls", 0) + 1
        elif s.name == "feasibility.cand1_recognize" and s.counts:
            c["feasibility.orderings_tried"] = s.counts["orderings_tried"]
            c["feasibility.cases_solved"] = s.counts["cases_solved"]
    return {ops[i].label: c for i, c in sorted(per_op.items()) if c}


def backend_check(plan, graphs_dir, pure, compiled):
    """Pure and compiled kernels must agree on status, order and nodes for
    every recognize-and1 instance of the plan."""
    from andbox import fileio

    mismatches = []
    for inst in plan.instances:
        g = fileio.load_graph(os.path.join(graphs_dir, f"{inst.name}.and"))
        if g.n > 64:
            continue
        masks = [sum(1 << (u - 1) for u in g.neighbors(v)) for v in g.vertices()]
        budget = inst.budget if inst.budget is not None else 10**8
        a = pure(masks, budget)
        b = compiled(masks, budget)
        if (a[0], list(a[1]), a[2]) != (b[0], list(b[1]), b[2]):
            mismatches.append(f"{inst.name}: pure {a[0]},{a[2]} compiled {b[0]},{b[2]}")
    return mismatches


def calibrate() -> float:
    """Seconds for a fixed mix of integer, Fraction and dict work, the
    kinds the program does.

    The host runs everything 1.3-2x slower for seconds to minutes at a
    time.  The benchmark never changes this loop, so its time just
    before a pass measures the host's speed during that pass, and the
    pass's time over it depends far less on the host's load.
    """
    t = time.perf_counter()
    s = 0
    for i in range(60_000):
        s += i * i % 7
    x = Fraction(0)
    for i in range(1, 1_500):
        x += Fraction(1, i) - Fraction(1, i + 1)
    for _ in range(10):  # a small dict, so that peak_rss_mb stays the program's
        d = {}
        for i in range(4_000):
            d[(i * 7919) % 10_007] = [i]
    return time.perf_counter() - t


def host_scale() -> float:
    """Factor that takes a time measured now to the reference host speed."""
    return CAL_REFERENCE_S / min(calibrate() for _ in range(CAL_REPEATS))


def start_seconds(src) -> float:
    """Wall time for a fresh interpreter to start and make the imports of
    a workload process: the start-up part of one set-up."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", START, src], cwd=HERE, check=True)
    return time.perf_counter() - t


def run_workload(args) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "andbox", "cli.py")):
        print(f"error: no andbox sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from andbox import _kernels_py, cli, kernels  # noqa: F401  (imports every layer)

    import workloads

    build = workloads.WORKLOADS[args.workload]
    os.makedirs(RESULTS, exist_ok=True)
    work = os.path.join(RESULTS, f"work-{args.workload}-{os.getpid()}")
    failures = []
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            warm_failures = []
            scale = host_scale()
            started = start_seconds(src)
            t = time.perf_counter()
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            os.makedirs(os.path.join(work, "warm-up"))
            plan = build(args.seed, work)
            warm = build(args.seed, os.path.join(work, "warm-up"), warmup=True)
            for label, _, outcome, reason in run_pass(warm.ops, cli):
                if outcome != "ok":
                    warm_failures.append(f"warm-up {label}: {outcome} {reason}")
            setup_times.append((started + time.perf_counter() - t) * scale)
        failures += warm_failures
        setup_s = statistics.median(setup_times)

        tracer = tracing.Tracer() if args.trace else None
        passes = []  # (traced, rows, layer metrics or None, host scale)
        start = time.perf_counter()
        counts = None
        spans_out = None
        while True:
            scale = host_scale()
            traced = bool(args.trace) and len(passes) % 2 == 1
            if traced:
                tracer.reset()
                tracer.install()
            try:
                rows = run_pass(plan.ops, cli, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            layer = None
            if traced:
                layer = tracing.layer_metrics(tracer.spans)
                if counts is None:
                    counts = work_counts(plan.ops, tracer.spans)
                spans_out = list(tracer.spans)
            passes.append((traced, rows, layer, scale))
            # Stop before a pass that would end past --seconds, judged by
            # the mean pass so far; a traced run needs one pass of each kind.
            elapsed = time.perf_counter() - start
            if len(passes) >= (2 if args.trace else 1) and (
                elapsed * (len(passes) + 1) / len(passes) > args.seconds
            ):
                break

        reference = []
        if args.trace and plan.reference:
            tracer.reset()
            tracer.install()
            try:
                reference = run_pass(plan.reference, cli, tracer)
            finally:
                tracer.uninstall()
            counts.update(work_counts(plan.reference, tracer.spans))

        compiled = None
        try:
            compiled = importlib.import_module("andbox._kernels")
        except ImportError:
            pass
        if compiled is None:
            check_note = "skipped: no compiled kernel can be imported"
        elif args.workload != "and1-search":
            check_note = "skipped: this workload does not call the kernel"
        else:
            bad = backend_check(plan, work, _kernels_py.search_order, compiled.search_order)
            failures += [f"backend mismatch {m}" for m in bad]
            check_note = f"pure and compiled agree on {len(plan.instances) - len(bad)} instances"
    finally:
        shutil.rmtree(work, ignore_errors=True)

    all_rows = [r for _, rows, _, _ in passes for r in rows] + reference
    attempted = len(all_rows)
    failed = sum(1 for r in all_rows if r[2] == "failed")
    exhausted = sum(1 for r in all_rows if r[2] == "exhausted")
    failures += [f"{label}: {reason}" for label, _, outcome, reason in all_rows if outcome == "failed"]
    plain = [(rows, scale) for traced, rows, _, scale in passes if not traced]
    e2e = {
        "setup_s": setup_s,
        "pass_s": statistics.median([sum(r[1] for r in rows) * k for rows, k in plain]),
        "slowest_op_s": statistics.median([max(r[1] for r in rows) * k for rows, k in plain]),
        "exhausted_ratio": exhausted / attempted,
        "failed_ratio": failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    per_layer = {}
    if args.trace:
        layered = [layer for _, _, layer, _ in passes if layer is not None]
        # Counts repeat exactly from pass to pass; keep them whole numbers.
        per_layer = {
            k: (statistics.median_low if isinstance(v, int) else statistics.median)([m[k] for m in layered])
            for k, v in layered[0].items()
        }
        traced_pass = statistics.median([sum(r[1] for r in rows) * k for t, rows, _, k in passes if t])
        per_layer["trace.overhead_ratio"] = traced_pass / e2e["pass_s"]
        per_layer["run.exhausted_ratio"] = e2e["exhausted_ratio"]
        per_layer["run.failed_ratio"] = e2e["failed_ratio"]

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": kernels.backend_name(),
        "backend_check": check_note,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit_id(),
        "passes": len(passes),
        "host_scale": statistics.median([k for _, _, _, k in passes]),
    }
    op_times = zip(*[[r[1] for r in rows] for rows, _ in plain])
    op_rows = [
        (label, min(t), statistics.median(t), outcome, reason)
        for (label, _, outcome, reason), t in zip(passes[0][1], op_times)
    ] + [(label, dt, dt, outcome, reason) for label, dt, outcome, reason in reference]
    report(args, meta, plan, op_rows, e2e, per_layer, counts, failures)
    result = {
        "meta": meta,
        "manifest": [vars(i) for i in plan.instances],
        "end_to_end": e2e,
        "per_layer": per_layer,
        "work_counts": counts,
        "ops": [[label, dt, outcome] for _, rows, _, _ in passes for label, dt, outcome, _ in rows],
        "host_scales": [k for _, _, _, k in passes],
        "failures": failures,
    }
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    if spans_out is not None:
        with open(stem + "-spans.jsonl", "w", encoding="utf-8") as fh:
            for s in spans_out:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op, s.counts]) + "\n")

    chosen = per_layer if args.trace else {k: e2e[k] for k in RESULT_LINE}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": tracing.unit_of(k) if args.trace else END_TO_END_UNITS[k]}
            for k, v in chosen.items()
        },
    }))
    return 0 if not failures else 1


def seed_counts() -> dict:
    """Work counts recorded from a traced run of the seed commit."""
    with open(os.path.join(HERE, "seed_counts.json"), encoding="utf-8") as fh:
        return json.load(fh)


def report(args, meta, plan, op_rows, e2e, per_layer, counts, failures):
    print(f"# andbox benchmark: {args.workload} seed={args.seed} "
          f"backend={meta['backend']} python={meta['python']} nproc={meta['nproc']} "
          f"commit={meta['commit'][:12]} passes={meta['passes']}")
    print(f"# backend check: {meta['backend_check']}")
    print("# manifest: workload instance family n m seed expected budget")
    for i in plan.instances:
        print(f"manifest {args.workload} {i.name} {i.family} {i.n} {i.m} "
              f"{i.seed} {i.expected} {i.budget}")
    print("# operations: fastest and median seconds over untraced passes, not scaled, "
          "outcome of the first pass (reference instances run once)")
    for label, fast, med, outcome, reason in op_rows:
        print(f"op {fast:9.4f} {med:9.4f} {outcome:9} {label} {reason}")
    print(f"# times below scaled to the reference host speed; median scale {meta['host_scale']:.4g}")
    for k, v in e2e.items():
        print(f"metric {k} {v:.6g} {END_TO_END_UNITS[k]}")
    for k in sorted(per_layer):
        print(f"layer {k} {per_layer[k]:.6g} {tracing.unit_of(k)}")
    recorded = seed_counts().get(args.workload, {})
    for label, c in (counts or {}).items():
        seen = " ".join(f"{k}={v}" for k, v in c.items())
        if label in recorded:
            seen += " (seed commit: same)" if recorded[label] == c else f" (seed commit: {recorded[label]})"
        print(f"work {label} {seen}")
    for f in failures:
        print(f"FAILED {f}")


# ---------------------------------------------------------------------------
# every workload, each in a fresh process

def run_all(args) -> int:
    status = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
        path = os.path.join(RESULTS, f"{name}-seed{args.seed}-trace{args.trace}.json")
        if proc.returncode in (0, 1) and os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                summary[name] = json.load(fh)
    key = "per_layer" if args.trace else "end_to_end"
    print(f"# summary ({key})")
    for name, res in summary.items():
        for metric in END_TO_END_UNITS if key == "end_to_end" else sorted(res[key]):
            value = res[key][metric]
            unit = END_TO_END_UNITS.get(metric) or tracing.unit_of(metric)
            print(f"{name:14} {metric:50} {value:14.6g} {unit}")
    print(json.dumps({name: res[key] for name, res in summary.items()}))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
