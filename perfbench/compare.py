"""Compare two sets of untraced runs against the bounds in BENCHMARK.json.

A set is a directory of result files.  For each workload and end-to-end
metric the table gives each set's median and quartiles; the spread is the
quartile distance as a share of the median.  Verdicts:

* ``unresolved``: a set's spread is wider than the metric's bound;
* ``B worse`` / ``B better``: B's median moved past the bound;
* ``agree``: the medians lie within the bound of each other.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load_set(directory: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        if result.get("trace") == 0:
            runs.setdefault(result["workload"], []).append(result)
    return runs


def summarize(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list[float], b: list[float], bound: float, better: str) -> tuple[str, float]:
    qa, qb = summarize(a), summarize(b)
    change = (qb[1] - qa[1]) / qa[1]
    if any((q[2] - q[0]) / q[1] > bound for q in (qa, qb)):
        return "unresolved", change
    worse = change > bound if better == "lower" else change < -bound
    improved = change < -bound if better == "lower" else change > bound
    return ("B worse" if worse else "B better" if improved else "agree"), change


def main(dir_a: str, dir_b: str, spec: dict) -> int:
    """Print the table; exit 1 if any pairing is worse or unresolved."""
    set_a, set_b = load_set(dir_a), load_set(dir_b)
    clean = True
    print(f"A = {dir_a}\nB = {dir_b}")
    print(f"{'workload':<15} {'metric':<12} {'A median [q1, q3] (n)':<34} "
          f"{'B median [q1, q3] (n)':<34} {'change':>8} {'bound':>6}  verdict")
    for workload in sorted(set(set_a) | set(set_b)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in set_a.get(workload, [])]
            b = [r["metrics"][name]["value"] for r in set_b.get(workload, [])]
            if not a or not b:
                print(f"{workload:<15} {name:<12} missing in {'A' if not a else 'B'}")
                clean = False
                continue
            outcome, change = verdict(a, b, metric["bound"], metric["better"])
            clean = clean and outcome in ("agree", "B better")
            cells = []
            for values in (a, b):
                q1, med, q3 = summarize(values)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] ({len(values)})")
            print(f"{workload:<15} {name:<12} {cells[0]:<34} {cells[1]:<34} "
                  f"{change:>+8.2%} {metric['bound']:>6.0%}  {outcome}  {metric['unit']}")
    return 0 if clean else 1
