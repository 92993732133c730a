"""Report emission: schema-validated report.json, plot-ready CSVs, and a run
manifest.  report.json is byte-reproducible across reruns of the same config
except for the timing block."""

from __future__ import annotations

import functools
import json
import numbers
from pathlib import Path

import numpy as np

from . import __version__
from .errors import OutOfRange
from .sphere import SphericalFunction

__all__ = [
    "report_schema", "validate_report", "emit_report",
    "write_sphere_csv", "write_transform_csv",
]


def report_schema() -> dict:
    path = Path(__file__).with_name("schemas") / "report.schema.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# read once per process, used only here; report_schema() stays a fresh dict
_checked_schema = functools.cache(report_schema)

# jsonschema's Draft 2020-12 type rules
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "null": lambda v: v is None,
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: (isinstance(v, numbers.Number)
                         and not isinstance(v, bool)),
    "integer": lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or isinstance(v, float) and v.is_integer()),
}
_KEYWORDS = {"$schema", "$id", "title", "type", "required", "properties",
             "additionalProperties", "items", "anyOf"}


def _conforms(value, schema) -> bool:
    """True when ``value`` meets ``schema``; False when it does not, or when
    the schema uses a keyword outside ``_KEYWORDS``."""
    if isinstance(schema, bool):
        return schema
    if not schema.keys() <= _KEYWORDS:
        return False
    kind = schema.get("type")
    if kind is not None and not (isinstance(kind, str) and kind in _TYPES
                                 and _TYPES[kind](value)):
        return False
    if not any(_conforms(value, s) for s in schema.get("anyOf", [True])):
        return False
    if isinstance(value, list) and "items" in schema:
        return all(_conforms(v, schema["items"]) for v in value)
    if not isinstance(value, dict):
        return True
    props = schema.get("properties", {})
    extra = schema.get("additionalProperties", True)
    return all(k in value for k in schema.get("required", ())) and all(
        _conforms(v, props[k] if k in props else extra)
        for k, v in value.items())


def validate_report(report: dict) -> None:
    """Check ``report`` against report.schema.json; a report the walk does
    not accept goes to jsonschema, which raises its ``ValidationError``."""
    if not _conforms(report, _checked_schema()):
        import jsonschema

        jsonschema.validate(report, _checked_schema())


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


def _strict_json(doc: dict, name: str) -> str:
    """doc as strict JSON text; OutOfRange for a NaN or infinite number."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise OutOfRange(f"{name} would hold a NaN or infinite number") from None


def emit_report(out_dir: str | Path, scenario: str, inputs: dict,
                certificates: list, norms: dict, margins: dict,
                residuals: dict, wall_seconds: float, exit_code: int,
                notes: str = "", raw_config: dict | None = None) -> dict:
    """Write report.json and manifest.json as strict JSON; returns the report
    dict.  OutOfRange, with neither file written, for a NaN or an infinity."""
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
    manifest = {
        "scenario": scenario,
        "config": _jsonable(raw_config or {}),
        "library_version": __version__,
        "wall_seconds": float(wall_seconds),
    }
    texts = {"report.json": _strict_json(report, "report.json"),
             "manifest.json": _strict_json(manifest, "manifest.json")}
    for name, text in texts.items():
        (out / name).write_text(text, encoding="utf-8")
    return report


def write_table(path: str | Path, header: str, table, lead=None,
                index=None) -> None:
    """Write ``header``, then one comma-separated line per entry i of
    ``index`` (each row of ``table`` in turn by default): row i of ``lead``
    when given, then row ``index[i]`` of ``table``, every cell as
    ``repr(float)``.  Each row of ``table`` is formatted once, however often
    ``index`` names it: a sinogram passes its class rows, its directions as
    ``lead`` and their classes as ``index``."""
    lines = [",".join(map(repr, row.tolist())) + "\n"
             for row in np.ascontiguousarray(table, dtype=float)]
    if index is None:
        index = range(len(lines))
    prefix = [""] * len(index) if lead is None else \
        [",".join(map(repr, row)) + "," for row in np.asarray(lead, float).tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for pre, i in zip(prefix, index):
            fh.write(pre + lines[i])


def write_sphere_csv(path: str | Path, f: SphericalFunction) -> None:
    """One row per grid node: x, y, z, quadrature weight, value."""
    grid = f.grid
    write_table(path, "x,y,z,weight,value\n",
                np.column_stack([grid.nodes, grid.weights, f.values]))


def write_transform_csv(path: str | Path, t: np.ndarray,
                        values: np.ndarray, label: str = "value") -> None:
    """1D transform samples: t, value."""
    write_table(path, f"t,{label}\n", np.column_stack([t, values]))
