"""Compare benchmark runs of a parent tree and a change against BENCHMARK.json's bounds.

    python3 tools/bench_compare.py PARENT_DIR CHANGE_DIR

Each directory holds one file per ``perfbench/run.py --workload all`` run,
holding that run's last line of standard output (one JSON object); the i-th
files of the two directories, in name order, form pair i. For every workload
and end-to-end metric the tool prints each side's median and interquartile
range, the change's median relative to the parent's, and in how many pairs
the change did better. A metric breaches when the change's median is worse
than the parent's, in the metric's ``better`` direction, by more than its
``bound`` (a fraction of the parent median). It is marked unresolved when
the parent's IQR, as a fraction of its median, is wider than the bound, so
the runs cannot tell a change of that size from noise, unless every run of
the change did better than every run of the parent. The tool exits 1 on a
breach, on unequal run counts, on a metric one side lacks, on a run file
with no result line, or on a run whose ``correct`` is false; else 0. It
reads BENCHMARK.json and never writes it.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(run_dir: Path, errors: list[str]) -> list[dict]:
    """The result object of each run file under ``run_dir``, in file-name order;
    a file without one is recorded in ``errors`` and skipped."""
    runs = []
    for p in sorted(run_dir.iterdir()):
        if not p.is_file():
            continue
        lines = p.read_text(encoding="utf-8", errors="replace").strip().splitlines()
        try:
            runs.append(json.loads(lines[-1]))
        except (IndexError, json.JSONDecodeError):
            errors.append(f"{p} has no result line")
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def compare(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> tuple[list, list]:
    """One row per workload and end-to-end metric, and the errors that fail the comparison;
    no rows when either side has no runs."""
    if not parent or not change:
        return [], [f"no runs: {len(parent)} parent, {len(change)} change"]
    errors = []
    if len(parent) != len(change):
        errors.append(f"unequal run counts: {len(parent)} parent, {len(change)} change")
    for side, runs in (("parent", parent), ("change", change)):
        errors += [f"{side} run {i + 1} is not correct" for i, r in enumerate(runs)
                   if not r["correct"]]
    specs = {m["name"]: m for m in end_to_end}
    keys = sorted({k for r in parent + change for k in r["metrics"]
                   if k.rpartition("/")[2] in specs})
    rows = []
    for key in keys:
        sides = [[r["metrics"].get(key, {}).get("value") for r in runs]
                 for runs in (parent, change)]
        if any(v is None for values in sides for v in values):
            errors.append(f"{key}: a run lacks a value")
            continue
        spec = specs[key.rpartition("/")[2]]
        sign = 1.0 if spec["better"] == "lower" else -1.0  # > 0 means worse
        (p1, pm, p3), (c1, cm, c3) = quartiles(sides[0]), quartiles(sides[1])
        change_rel = (cm - pm) / abs(pm)
        wins = sum(sign * (c - p) < 0 for p, c in zip(*sides))
        dominates = max(sign * c for c in sides[1]) < min(sign * p for p in sides[0])
        verdict = "ok"
        if p3 - p1 > spec["bound"] * abs(pm) and not dominates:
            verdict = "unresolved"
        if sign * change_rel > spec["bound"]:
            verdict = "BREACH"
            errors.append(f"{key}: {change_rel:+.1%} is worse than the bound {spec['bound']:.0%}")
        rows.append((key, pm, p1, p3, cm, c1, c3, change_rel, wins, min(map(len, sides)), verdict))
    return rows, errors


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    errors = []
    parent, change = (load_runs(Path(a), errors) for a in argv)
    end_to_end = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    rows, compare_errors = compare(parent, change, end_to_end)
    errors += compare_errors
    print(f"{'workload/metric':<32} {'parent median [IQR]':>28} {'change median [IQR]':>28} "
          f"{'change':>8} {'wins':>6}  verdict")
    for key, pm, p1, p3, cm, c1, c3, change_rel, wins, n, verdict in rows:
        print(f"{key:<32} {f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':>28} "
              f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':>28} {change_rel:>+8.1%} {f'{wins}/{n}':>6}  "
              f"{verdict}")
    for line in errors:
        print(f"FAIL {line}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
