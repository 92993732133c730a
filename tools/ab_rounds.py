"""Time two checkouts' library code in one process, round against round.

    python3 tools/ab_rounds.py <checkout A> <checkout B> <sphere-mix|rn-mix> <rounds> <seed>

Loads ``src/radoncomp`` of each checkout under its own module name
(``radoncomp_a``, ``radoncomp_b``) and builds the workload's rounds with this
repository's ``radonbench`` workload module, so both sides get the same
inputs.  Both sides first run one untimed round.  Then round i runs A before
B for even i and B before A for odd i, and each side's time for the round is
the sum of its verdict calls, as ``radonbench/run.py`` times verdicts.  It
prints each side's mean ms per round, the ratio of the means and the rounds
each side won.  No oracle runs, and BLAS is pinned to one thread.

This is a diagnostic, not a claim: both sides share one process, so drift of
the host falls on both alike, which separate benchmark runs cannot promise.
Claims come from ``bench_pairs.py``.  Standard library only; the loaded
checkouts need NumPy.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "RADONCOMP_THREADS"):
    os.environ[_var] = "1"

import importlib.util
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sphere-mix", "rn-mix")


def load(checkout: Path, name: str):
    """The checkout's radoncomp package, imported as module ``name``."""
    pkg = checkout / "src" / "radoncomp"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def round_seconds(workload, rc, seed: int, index: int) -> float:
    """Seconds spent in the verdict calls of one round; a call that raises
    is timed like one that returns."""
    busy = 0.0
    for v in workload.make_round(rc, seed, index):
        t0 = time.perf_counter()
        try:
            v.run()
        except Exception:      # a refusal is an outcome, as in run.py
            pass
        busy += time.perf_counter() - t0
    return busy


def compare(a, b, workload, rounds: int, seed: int) -> dict:
    """Per-round seconds of each side, A/B then B/A in turn, after one
    untimed round of each."""
    for rc in (a, b):
        round_seconds(workload, rc, seed, 0)
    times = {"A": [], "B": []}
    for i in range(rounds):
        order = (("A", a), ("B", b)) if i % 2 == 0 else (("B", b), ("A", a))
        for side, rc in order:
            times[side].append(round_seconds(workload, rc, seed, i))
    return times


def summary(times: dict) -> list[str]:
    a, b = times["A"], times["B"]
    ma, mb = statistics.fmean(a), statistics.fmean(b)
    won = sum(y < x for x, y in zip(a, b))
    return [f"A {ma * 1e3:.2f} ms per round, B {mb * 1e3:.2f} ms per round",
            f"B/A {mb / ma:.4f} (B throughput {(ma / mb - 1.0) * 100.0:+.1f} %)"
            f"  B won {won} of {len(a)} rounds, A won "
            f"{sum(x < y for x, y in zip(a, b))}"]


def main(argv: list[str]) -> int:
    if len(argv) != 5 or argv[2] not in WORKLOADS:
        print(__doc__, file=sys.stderr)
        return 2
    checkouts = [Path(c).resolve() for c in argv[:2]]
    for checkout in checkouts:
        if not (checkout / "src" / "radoncomp" / "__init__.py").is_file():
            print(f"{checkout} has no src/radoncomp", file=sys.stderr)
            return 2
    rounds, seed = int(argv[3]), int(argv[4])
    sys.path.insert(0, str(ROOT / "radonbench"))
    workload = importlib.import_module(argv[2].replace("-", "_"))
    a, b = load(checkouts[0], "radoncomp_a"), load(checkouts[1], "radoncomp_b")
    print(f"{argv[2]} seed {seed}, {rounds} rounds; A {checkouts[0]}, "
          f"B {checkouts[1]}")
    print("\n".join(summary(compare(a, b, workload, rounds, seed))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
