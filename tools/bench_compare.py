"""Compare two ``BENCH_<label>.json`` files by the benchmark's rules.

    python3 tools/bench_compare.py <parent BENCH json> <change BENCH json>

Runs are paired by (workload, seed); a seed recorded on one side only is
left out, and a run that exited non-zero counts as missing.  For each
workload and each end-to-end metric of this repository's ``BENCHMARK.json``
it prints the parent's and the change's median with quartiles (inclusive
method), the pairs the change won (ties count for neither side), and:

* ``claim``: whether a gain could be claimed, which needs the change to win
  at least 9/10 of the pairs and the medians to differ, in the better
  direction, by more than the parent's interquartile range;
* ``bound``: whether the change's median is no worse than the parent's by
  more than the metric's ``bound`` (relative) in ``BENCHMARK.json``.

``fail_ratio`` is printed per side as its range over the runs.
Standard library only.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _runs(path: str) -> dict:
    """(workload, seed) -> the run's record, for runs that exited 0."""
    runs = json.loads(Path(path).read_text())["runs"]
    return {(r["workload"], r["seed"]): r for r in runs
            if r["exit_code"] == 0}


def _fail_ratio(record: dict) -> float:
    for line in record["lines"]:
        if line.startswith("fail_ratio"):
            return float(line.split()[1])
    return float("nan")


def _spread(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent: dict, change: dict, spec: dict) -> list[str]:
    out = []
    for workload in [w["name"] for w in spec["workloads"]]:
        keys = sorted(k for k in parent.keys() & change.keys()
                      if k[0] == workload)
        out.append(f"{workload}: {len(keys)} pairs "
                   f"(seeds {', '.join(str(k[1]) for k in keys)})")
        if not keys:
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "higher" else -1.0
            a = [parent[k]["result"]["metrics"][name]["value"] for k in keys]
            b = [change[k]["result"]["metrics"][name]["value"] for k in keys]
            wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
            (pa1, pa2, pa3), (pb1, pb2, pb3) = _spread(a), _spread(b)
            claim = wins >= 0.9 * len(keys) \
                and sign * (pb2 - pa2) > pa3 - pa1
            bound_ok = sign * (pb2 - pa2) >= -bound * abs(pa2)
            out.append(
                f"  {name:15s} parent {pa2:.4g} ({pa1:.4g}-{pa3:.4g})  "
                f"change {pb2:.4g} ({pb1:.4g}-{pb3:.4g})  "
                f"{(pb2 / pa2 - 1.0) * 100.0:+.1f}%  wins {wins}/{len(keys)}  "
                f"claim {'yes' if claim else 'no'}  "
                f"bound {bound:g} {'holds' if bound_ok else 'BROKEN'}")
        fa = [_fail_ratio(parent[k]) for k in keys]
        fb = [_fail_ratio(change[k]) for k in keys]
        out.append(f"  fail_ratio      parent {min(fa):.4g}-{max(fa):.4g}  "
                   f"change {min(fb):.4g}-{max(fb):.4g}")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("\n".join(compare(_runs(argv[0]), _runs(argv[1]), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
