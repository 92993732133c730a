"""Digest the outputs of every shipped scenario config.

    python3 tools/config_digest.py

Runs each ``configs/*.ini`` of this checkout through ``python -m
radoncomp.cli`` (with this checkout's ``src`` first on the import path) into
a temporary directory, then prints one line per config with its exit code and
one line per output file with a SHA-256:

* ``report.json`` without its ``timing`` block,
* ``manifest.json`` without ``wall_seconds``,
* every CSV, byte for byte.

Both JSON files are re-serialized canonically (sorted keys, two-space
indent) after the non-reproducible field is dropped.  Run it on two
checkouts and diff the printouts to show that a change keeps every shipped
output byte-identical.  Standard library only.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The non-reproducible field of each JSON output.
VOLATILE = {"report.json": "timing", "manifest.json": "wall_seconds"}


def _kind(config: Path) -> str:
    for line in config.read_text().splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "kind":
            return value.strip()
    raise SystemExit(f"{config}: no 'kind' key")


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name in VOLATILE:
        doc = json.loads(data)
        doc.pop(VOLATILE[path.name], None)
        data = json.dumps(doc, indent=2, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


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


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for config, code, out in run_configs(ROOT, Path(tmp)):
            print(f"{config.name} exit {code}")
            for path in sorted(out.glob("*")):
                print(f"  {_digest(path)}  {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
