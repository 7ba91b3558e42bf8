"""Compare two result sets of the end-to-end benchmark.

    python benchmarks/e2e/run.py --all --seed 2009 --output A.json   # at the parent
    python benchmarks/e2e/run.py --all --seed 2009 --output B.json   # at the change
    python benchmarks/e2e/compare.py A.json B.json

One row per (workload, end-to-end metric): both values, the ratio B/A with
its base, the bound from ``BENCHMARK.json`` and a verdict:

``ok``          B is within the bound of A
``worse``       B is worse than A by more than the bound
``better``      B is better than A by more than the bound
``unresolved``  the timed passes of a run spread wider than the bound, and
                the two runs' passes overlap — measure again, do not
                call it unchanged
``changed``     a count that repeats exactly for a seed (bytes, modelled
                clock, success rate) differs between two runs of one seed

Exit code 1 if any row is ``worse`` or ``changed``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: repeat exactly between two runs of one seed on the same code
EXACT = ("net_bytes_per_op", "modelled_ms_per_op", "success_rate")


def load_contract() -> Dict[str, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {metric["name"]: metric for metric in json.load(handle)["end_to_end"]}


def pass_spread(values: Optional[List[float]]) -> float:
    """Interquartile range of a run's per-pass readings over their median."""
    if not values or len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(metric: dict, a: float, b: float, passes_a, passes_b, same_seed: bool) -> str:
    name, bound, lower_is_better = metric["name"], metric["bound"], metric["better"] == "lower"
    if name in EXACT and same_seed:
        return "ok" if a == b else "changed"
    worse_by = (b - a) / a if lower_is_better else (a - b) / a
    if max(pass_spread(passes_a), pass_spread(passes_b)) > bound:
        # too noisy for the bound, unless the two runs' passes do not overlap at all
        sign = -1 if lower_is_better else 1
        goodness_a = [sign * value for value in passes_a]
        goodness_b = [sign * value for value in passes_b]
        if min(goodness_b) > max(goodness_a):
            return "better"
        if max(goodness_b) < min(goodness_a):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "ok"


def compare(a: dict, b: dict, contract: Dict[str, dict]) -> List[tuple]:
    rows = []
    same_seed = a.get("seed") == b.get("seed")
    for workload, run_a in a["workloads"].items():
        run_b = b["workloads"].get(workload)
        if run_b is None:
            continue
        for name, metric in contract.items():
            value_a = run_a["end_to_end"][name]["value"]
            value_b = run_b["end_to_end"][name]["value"]
            rows.append((
                workload, name, value_a, value_b, value_b / value_a, metric["bound"],
                verdict(metric, value_a, value_b, run_a["per_pass"].get(name),
                        run_b["per_pass"].get(name), same_seed),
            ))
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    with open(argv[0], encoding="utf-8") as handle:
        a = json.load(handle)
    with open(argv[1], encoding="utf-8") as handle:
        b = json.load(handle)
    rows = compare(a, b, load_contract())
    print(f"A = {argv[0]} (seed {a.get('seed')}, commit {a.get('env', {}).get('commit')})")
    print(f"B = {argv[1]} (seed {b.get('seed')}, commit {b.get('env', {}).get('commit')})")
    print(f"{'workload':<14}{'metric':<20}{'A':>14}{'B':>14}{'B/A':>9}{'bound':>7}  verdict")
    for workload, name, value_a, value_b, ratio, bound, outcome in rows:
        print(f"{workload:<14}{name:<20}{value_a:>14.6g}{value_b:>14.6g}"
              f"{ratio:>8.3f}x{bound:>7.0%}  {outcome}")
    return 1 if any(row[-1] in ("worse", "changed") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
