"""Record benchmark runs of one checkout in ``BENCH_<label>.json``.

    python3 tools/bench_record.py <checkout> <label> <seed> [<seed> ...]

For each workload named in the checkout's ``BENCHMARK.json`` and each seed,
in that order, runs the checkout's own benchmark from its root::

    python3 radonbench/run.py --workload W --seed S --seconds 15 --trace 0

and keeps the last line of its output (the JSON result), its ``provenance``
line and the metric lines above it, which alone carry ``fail_ratio`` and the
sample counts.  The runs are appended to ``BENCH_<label>.json`` at the
root of this repository, so invoking the tool on two checkouts in turn, one
seed at a time, records alternating before/after pairs.  A run that exits
non-zero is recorded with its exit code and the tail of its error output,
printed with its command, and makes the tool exit 1 after the other runs.  A
checkout without ``BENCHMARK.json`` or ``radonbench/run.py`` is refused
with exit code 2 before anything runs or is written.  ``bench_pairs.py``
drives this tool on two checkouts.  Standard library only.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 15


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "radonbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    record = {"workload": workload, "seed": seed, "exit_code": proc.returncode}
    lines = proc.stdout.splitlines()
    if proc.returncode == 0 and len(lines) >= 2:
        record["lines"] = [line for line in lines[:-2]
                           if not line.startswith("#")]
        record["provenance"] = json.loads(lines[-2].split(" ", 1)[1])
        record["result"] = json.loads(lines[-1])
    else:
        record["stderr_tail"] = proc.stderr[-2000:]
    return record


def refusal(checkout: Path) -> str | None:
    """Why checkout cannot be benchmarked, or None when it can."""
    missing = [name for name in ("BENCHMARK.json", "radonbench/run.py")
               if not (checkout / name).is_file()]
    if missing:
        return f"{checkout} is not a benchmark checkout: no {' or '.join(missing)}"
    return None


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    checkout = Path(argv[0]).resolve()
    label, seeds = argv[1], [int(s) for s in argv[2:]]
    reason = refusal(checkout)
    if reason:
        print(reason, file=sys.stderr)
        return 2
    workloads = [w["name"] for w in json.loads(
        (checkout / "BENCHMARK.json").read_text())["workloads"]]
    path = ROOT / f"BENCH_{label}.json"
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    failed = False
    for workload in workloads:
        for seed in seeds:
            record = run_once(checkout, workload, seed)
            runs.append(record)
            path.write_text(json.dumps({"runs": runs}, indent=2) + "\n")
            metrics = record.get("result", {}).get("metrics", {})
            print(f"{workload} seed {seed} exit {record['exit_code']}: "
                  + ", ".join(f"{k} {v['value']:.4g}"
                              for k, v in sorted(metrics.items())), flush=True)
            if record["exit_code"] != 0:
                failed = True
                print(f"FAILED in {checkout}: python3 radonbench/run.py "
                      f"--workload {workload} --seed {seed} --seconds {SECONDS}"
                      f" --trace 0\n{record.get('stderr_tail', '')}",
                      file=sys.stderr, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
