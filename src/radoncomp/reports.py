"""Report emission: schema-validated report.json, plot-ready CSVs, and a run
manifest.  report.json is byte-reproducible across reruns of the same config
except for the timing block."""

from __future__ import annotations

import json
from importlib import metadata, resources
from pathlib import Path

import numpy as np

from .sphere import SphericalFunction

__all__ = [
    "report_schema", "validate_report", "emit_report",
    "write_sphere_csv", "write_transform_csv",
]


def report_schema() -> dict:
    with resources.files("radoncomp.schemas").joinpath(
            "report.schema.json").open("r", encoding="utf-8") as fh:
        return json.load(fh)


def validate_report(report: dict) -> None:
    import jsonschema

    jsonschema.validate(report, report_schema())


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _library_version() -> str:
    try:
        return metadata.version("radoncomp")
    except metadata.PackageNotFoundError:
        return "unknown"


def emit_report(out_dir: str | Path, scenario: str, inputs: dict,
                certificates: list, norms: dict, margins: dict,
                residuals: dict, wall_seconds: float, exit_code: int,
                notes: str = "", raw_config: dict | None = None) -> dict:
    """Write report.json and manifest.json; returns the report dict."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = {
        "scenario": scenario,
        "exit_code": int(exit_code),
        "inputs": _jsonable(inputs),
        "certificates": [_jsonable(c) for c in certificates],
        "norms": {k: float(v) for k, v in norms.items()},
        "margins": {k: float(v) for k, v in margins.items()},
        "residuals": {k: float(v) for k, v in residuals.items()},
        "notes": notes,
        "timing": {"wall_seconds": float(wall_seconds)},
    }
    validate_report(report)
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest = {
        "scenario": scenario,
        "config": _jsonable(raw_config or {}),
        "library_version": _library_version(),
        "wall_seconds": float(wall_seconds),
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def write_table(path: str | Path, header: str, table) -> None:
    """Write ``header``, then one comma-separated line per row of ``table``
    with every cell as ``repr(float)``.

    Each distinct value is formatted once: values are told apart by bit
    pattern, so -0.0 stays -0.0, and rows are joined one at a time, so no
    string array of the whole table is ever built.
    """
    table = np.ascontiguousarray(table, dtype=float)
    bits, index = np.unique(table.view(np.uint64), return_inverse=True)
    cells = [repr(v) for v in bits.view(float).tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for row in index.reshape(table.shape):
            fh.write(",".join(map(cells.__getitem__, row.tolist())))
            fh.write("\n")


def write_sphere_csv(path: str | Path, f: SphericalFunction) -> None:
    """One row per grid node: x, y, z, quadrature weight, value."""
    grid = f.grid
    write_table(path, "x,y,z,weight,value\n",
                np.column_stack([grid.nodes, grid.weights, f.values]))


def write_transform_csv(path: str | Path, t: np.ndarray,
                        values: np.ndarray, label: str = "value") -> None:
    """1D transform samples: t, value."""
    write_table(path, f"t,{label}\n", np.column_stack([t, values]))
