"""Compare the outputs of every shipped scenario config across two checkouts.

    python3 tools/config_compare.py <other checkout>

Runs each ``configs/*.ini`` of this checkout and of the other one through
``python -m radoncomp.cli``, each with its own ``src`` first on the import
path, into a temporary directory, and prints one line per config with both
exit codes (other, then this).  For each output file it then prints
``identical`` when the two files have the same canonical bytes:

* ``report.json`` without its ``timing`` block,
* ``manifest.json`` without ``wall_seconds``,
* every CSV, byte for byte,

both JSON files re-serialized canonically (sorted keys, two-space indent)
after the non-reproducible field is dropped.  Otherwise it prints the
largest |a - b| / max(1, |a|), a from the other checkout and b from this one,
over every number of those JSON files and every CSV cell.

Numbers that moved by more than 1e-13 are listed by location.  Anything else
that differs (a verdict string, a key, a header cell, a missing file) prints
as ``differs`` with its location.  The exit code is 1 when an exit code
differs, an output file or config is missing on one side, a non-numeric leaf
differs, or a number moved by more than 1e-13, and 0 otherwise, so the tool
can gate a change; a change that keeps every shipped output byte-identical
prints ``identical`` for every file.  Standard library only.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The non-reproducible field of each JSON output.
VOLATILE = {"report.json": "timing", "manifest.json": "wall_seconds"}

# Relative moves above this are listed by location.
NOTE = 1e-13


def _kind(config: Path) -> str:
    for line in config.read_text().splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "kind":
            return value.strip()
    raise SystemExit(f"{config}: no 'kind' key")


def run_configs(root: Path, tmp: Path):
    """Run every ``configs/*.ini`` of the checkout at ``root`` with its own
    ``src``, each into ``tmp/<config stem>``; yield (config, exit code, output
    directory) in name order."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    for config in sorted((root / "configs").glob("*.ini")):
        out = tmp / config.stem
        code = subprocess.run(
            [sys.executable, "-m", "radoncomp.cli", _kind(config),
             "--config", str(config), "--out", str(out)],
            env=env, cwd=tmp, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL).returncode
        yield config, code, out


def _canonical(path: Path) -> bytes:
    """The file's bytes, a JSON output's re-serialized canonically without
    its non-reproducible field."""
    data = path.read_bytes()
    if path.name in VOLATILE:
        doc = json.loads(data)
        doc.pop(VOLATILE[path.name], None)
        data = json.dumps(doc, indent=2, sort_keys=True).encode()
    return data


def _walk(doc, where: str):
    if isinstance(doc, dict):
        for key in sorted(doc):
            yield from _walk(doc[key], f"{where}.{key}")
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            yield from _walk(item, f"{where}[{i}]")
    else:
        yield where, doc


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _leaves(path: Path) -> dict:
    """Location -> value of every leaf of a JSON or CSV output file."""
    if path.suffix == ".csv":
        with path.open(newline="") as fh:
            return {f"row {i} col {j}": _cell(text)
                    for i, row in enumerate(csv.reader(fh))
                    for j, text in enumerate(row)}
    doc = json.loads(path.read_text())
    doc.pop(VOLATILE.get(path.name), None)
    return dict(_walk(doc, ""))


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _rel(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    diff = abs(a - b) / max(1.0, abs(a))
    return diff if math.isfinite(diff) else math.inf


def compare(a_path: Path, b_path: Path) -> tuple[str, bool]:
    """One line: ``identical`` for equal canonical bytes, else the largest
    relative difference and where, the numbers that moved by more than
    ``NOTE``, and the first non-numeric difference; and whether there was
    any such move or difference."""
    if _canonical(a_path) == _canonical(b_path):
        return "identical", False
    a, b = _leaves(a_path), _leaves(b_path)
    if a.keys() != b.keys():
        return f"differs: locations {sorted(a.keys() ^ b.keys())[:3]}", True
    worst, where, moved, other = 0.0, "", [], None
    for key, va in a.items():
        vb = b[key]
        if _is_number(va) and _is_number(vb):
            d = _rel(float(va), float(vb))
            if d > worst:
                worst, where = d, key
            if d > NOTE:
                moved.append(key)
        elif va != vb and other is None:
            other = f"{key}: {va!r} vs {vb!r}"
    line = f"max rel diff {worst:.3g}" + (f" at {where}" if where else "")
    if moved:
        line += f"; {len(moved)} above {NOTE:g}: {', '.join(moved[:4])}"
    return line + (f"; differs at {other}" if other else ""), bool(moved or other)


def compare_runs(runs: list[dict]) -> bool:
    """Print the comparison of two runs of the configs, each a dict config
    name -> (exit code, output directory); True when anything differs."""
    failed = False
    for config in sorted(runs[0].keys() | runs[1].keys()):
        if config not in runs[0] or config not in runs[1]:
            print(f"{config} only in {'this' if config in runs[1] else 'other'}")
            failed = True
            continue
        (code_a, out_a), (code_b, out_b) = runs[0][config], runs[1][config]
        print(f"{config} exit {code_a} / {code_b}")
        failed |= code_a != code_b
        for name in sorted({p.name for p in out_a.glob("*")}
                           | {p.name for p in out_b.glob("*")}):
            if not (out_a / name).exists() or not (out_b / name).exists():
                print(f"  {name}: differs: missing on one side")
                failed = True
                continue
            line, differs = compare(out_a / name, out_b / name)
            print(f"  {name}: {line}")
            failed |= differs
    return failed


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/config_compare.py <other checkout>",
              file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for root, name in ((other, "other"), (ROOT, "this")):
            (Path(tmp) / name).mkdir()
            runs.append({c.name: (code, out) for c, code, out
                         in run_configs(root, Path(tmp) / name)})
        return 1 if compare_runs(runs) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
