#!/usr/bin/env python3
"""Compare two result files written by perfbench/run.py.

    python3 perfbench/compare.py BASE.json NEW.json

Prints every metric of both runs and NEW / BASE.  Refuses, with exit
status 2, to compare runs of different workloads or runs whose kernel
backends differ: the pure and compiled kernels are 60-120x apart, so such
a comparison says nothing about a change.
"""

from __future__ import annotations

import json
import sys


def compare(base: dict, new: dict) -> list:
    for key in ("workload", "backend"):
        if base["meta"][key] != new["meta"][key]:
            raise ValueError(
                f"refusing to compare: {key} {base['meta'][key]!r} vs {new['meta'][key]!r}"
            )
    rows = []
    for section in ("end_to_end", "per_layer"):
        for name in sorted(set(base[section]) & set(new[section])):
            a, b = base[section][name], new[section][name]
            rows.append((name, a, b, b / a if a else None))
    return rows


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fa, open(argv[1], encoding="utf-8") as fb:
        base, new = json.load(fa), json.load(fb)
    try:
        rows = compare(base, new)
    except ValueError as e:
        print(e, file=sys.stderr)
        return 2
    for name, a, b, ratio in rows:
        shown = "-" if ratio is None else f"{ratio:.3f}"
        print(f"{name:52} {a:14.6g} {b:14.6g} {shown:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
