"""Compare benchmark runs of a parent commit and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``run.py`` appends to ``perfbench/.work/results.jsonl``
(one JSON object per run). Only untraced runs are compared. A workload whose
input fingerprint differs between the two sides for the same seed is reported
as INVALID and not compared: the inputs changed, not the program. Otherwise
each end-to-end metric of BENCHMARK.json gets the median of both sides, the
parent's quartile spread and a verdict by the metric's bound:

* ``regression``  the change's median is worse than the parent's by more than the bound;
* ``unresolved``  the parent's own spread is wider than the bound, unless every
  change run is better than every parent run;
* ``ok``          otherwise.

Exits 1 if any workload is INVALID or any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict:
    """workload -> list of untraced run records."""
    runs = defaultdict(list)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            if record["trace"] == 0:
                runs[record["meta"]["workload"]].append(record)
    return runs


def fingerprint_conflicts(parent: list, change: list) -> list[int]:
    seen = {r["meta"]["seed"]: r["meta"]["fingerprint"] for r in parent}
    return sorted({r["meta"]["seed"] for r in change
                   if r["meta"]["seed"] in seen and seen[r["meta"]["seed"]] != r["meta"]["fingerprint"]})


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, float]:
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worse = (c_med - p_med) / p_med if better == "lower" else (p_med - c_med) / p_med
    q = statistics.quantiles(parent, n=4) if len(parent) > 1 else [p_med, p_med, p_med]
    spread = (q[2] - q[0]) / p_med
    all_better = (max(change) < min(parent)) if better == "lower" else (min(change) > max(parent))
    if worse > bound:
        return "regression", spread
    if spread > bound and not all_better:
        return "unresolved", spread
    return "ok", spread


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    parent, change = load(argv[0]), load(argv[1])
    failed = False
    for workload in sorted(set(parent) & set(change)):
        conflicts = fingerprint_conflicts(parent[workload], change[workload])
        if conflicts:
            print(f"{workload}: INVALID, input fingerprints differ for seeds {conflicts}")
            failed = True
            continue
        print(f"{workload}: {len(parent[workload])} parent runs, {len(change[workload])} change runs")
        for m in metrics:
            p = [r["metrics"][m["name"]]["value"] for r in parent[workload] if m["name"] in r["metrics"]]
            c = [r["metrics"][m["name"]]["value"] for r in change[workload] if m["name"] in r["metrics"]]
            if not p or not c:
                print(f"  {m['name']:22s} missing")
                failed = True
                continue
            v, spread = verdict(p, c, m["better"], m["bound"])
            failed |= v == "regression"
            print(f"  {m['name']:22s} parent {statistics.median(p):12.6g}  change {statistics.median(c):12.6g} "
                  f"{m['unit']:16s} parent spread {spread:6.3f}  bound {m['bound']:.2f}  {v}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
