"""Record alternating before/after benchmark pairs of two checkouts.

    python3 tools/bench_pairs.py <parent> <change> <label> <seed> [<seed> ...]

For each seed, in order, runs ``bench_record.py`` on both checkouts: the
parent into ``BENCH_<label>-parent.json`` and the change into
``BENCH_<label>.json``, at the root of this repository.  The side that runs
first swaps from one seed to the next, the parent first for the first seed,
so drift of the host falls on both sides alike; ``bench_compare.py`` then
pairs the runs by seed.  Both checkouts are checked before anything runs: a
checkout that ``bench_record.py`` would refuse stops the tool with exit code
2.  A run that exits non-zero is recorded and printed with its command by
``bench_record.py``; the other runs still go ahead, and the tool exits 1.
Standard library only.
"""

from __future__ import annotations

import sys
from pathlib import Path

import bench_record


def main(argv: list[str]) -> int:
    if len(argv) < 4:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    label, seeds = argv[2], argv[3:]
    for checkout in (parent, change):
        reason = bench_record.refusal(checkout)
        if reason:
            print(reason, file=sys.stderr)
            return 2
    sides = [(parent, f"{label}-parent"), (change, label)]
    code = 0
    for i, seed in enumerate(seeds):
        for checkout, name in sides if i % 2 == 0 else sides[::-1]:
            print(f"# seed {seed}: {name} ({checkout})", flush=True)
            code = max(code, bench_record.main([str(checkout), name, seed]))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
