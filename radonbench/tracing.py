"""Span tracing of radoncomp from outside the package.

``install()`` wraps the public functions of every radoncomp module, and
``Sinogram.to_csv``, so that each call records a span: name, start, end,
parent span and request id.  Modules bind names with ``from .x import y``, so
a wrapper replaces the name in every ``radoncomp.*`` namespace that holds the
original function, not only in the defining module.  Spans stay in memory
until the run ends; ``layer_metrics`` derives the per-layer figures from them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("sphere", "multipliers", "funk", "radon3d", "compare3d",
          "exprlang", "config", "reports", "cli")

# Bandwidths of the 16x32, 32x64, 64x128 and 128x256 grids.
BANDS = (15, 31, 63, 127)

# Public functions traced in addition to each module's __all__.
EXTRA_FUNCTIONS = {"radon3d": ("fourier_along_rays",)}

SHIPPED_CONFIGS = (
    "catalog-verify", "certify-intersection-gaussian", "certify-intersection",
    "certify-pd", "intersection-body", "rn-compare", "rn-counterexample",
    "slicing", "spherical-compare", "spherical-counterexample",
)


def band(l_max: int) -> int:
    """Smallest benchmark bandwidth that covers degree ``l_max``."""
    return next((b for b in BANDS if l_max <= b), BANDS[-1])


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# Per-call work, computed from the call's arguments and result:
# name -> f(args, kwargs, result) -> (bandwidth bucket or None, work count).
def _sphere_grid_band(a, k, r):
    return band(a[0].grid.bandwidth), 0


def _synth_band(a, k, r):
    grid = a[1] if len(a) > 1 else k["grid"]
    return band(grid.bandwidth), 0


def _eval_terms(a, k, r):
    l_max = a[0].l_max
    return band(l_max), len(r) * (l_max + 1) ** 2


def _lp_nodes(a, k, r):
    n_radial = a[2] if len(a) > 2 else k.get("n_radial", 2048)
    return None, n_radial * a[0].grid.n_nodes


def _emit_bytes(a, k, r):
    out = a[0] if a else k["out_dir"]
    return None, _size(os.path.join(out, "report.json")) \
        + _size(os.path.join(out, "manifest.json"))


WORK = {
    "sphere.analyze": _sphere_grid_band,
    "sphere.synthesize": _synth_band,
    "sphere.evaluate_spectrum": _eval_terms,
    "radon3d.radon_transform": lambda a, k, r: (None, r.values.size),
    "radon3d.fourier_along_rays": lambda a, k, r: (None, r.size),
    "compare3d.lp_norm_rn": _lp_nodes,
    "radon3d.Sinogram.to_csv": lambda a, k, r: (None, _size(a[1])),
    "reports.emit_report": _emit_bytes,
    "reports.write_sphere_csv": lambda a, k, r: (None, _size(a[0])),
    "reports.write_transform_csv": lambda a, k, r: (None, _size(a[0])),
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: int = 0
    band: int | None = None
    work: int = 0
    ok: bool = True

    def as_dict(self, sid: int) -> dict:
        return {"id": sid, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "request": self.request, "band": self.band,
                "work": self.work, "ok": self.ok}


@dataclass
class Tracer:
    """In-memory span recorder; one instance per traced run."""

    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    request: int | None = None        # id of the verdict being traced
    _restore: list = field(default_factory=list)

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               request=self.request))
        self.stack.append(sid)
        return sid

    def close(self, sid: int, ok: bool = True) -> None:
        span = self.spans[sid]
        span.end = time.perf_counter()
        span.ok = ok
        self.stack.pop()

    def wrap(self, fn, name: str):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.request is None:      # outside a verdict: not recorded
                return fn(*args, **kwargs)
            sid = self.open(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self.close(sid, ok)
            if work is not None:
                self.spans[sid].band, self.spans[sid].work = \
                    work(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every public radoncomp function by a tracing wrapper."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"radoncomp.{layer}")
            names = list(getattr(mod, "__all__", ())) \
                + list(EXTRA_FUNCTIONS.get(layer, ()))
            for attr in names:
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self.wrap(fn, f"{layer}.{attr}"))
        sino = importlib.import_module("radoncomp.radon3d").Sinogram
        original = sino.__dict__["to_csv"]
        self._restore.append((sino, "to_csv", original))
        sino.to_csv = self.wrap(original, "radon3d.Sinogram.to_csv")
        for modname, mod in list(sys.modules.items()):
            if not (modname == "radoncomp" or modname.startswith("radoncomp.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def dump(self) -> list:
        return [s.as_dict(i) for i, s in enumerate(self.spans)]


def self_times(spans: list) -> list:
    """Each span's duration minus the part its child spans cover.

    Calls are nested and single-threaded, so children never overlap and the
    covered part is the sum of the children's durations.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _ancestor(spans: list, s: dict, name: str) -> bool:
    p = s["parent"]
    while p is not None:
        if spans[p]["name"] == name:
            return True
        p = spans[p]["parent"]
    return False


# Metrics read from a traced run, in a fixed order: name -> unit.
def per_layer_names() -> dict:
    names = {}
    for fn in ("analyze", "synthesize", "evaluate_spectrum"):
        names[f"sphere.{fn}.calls"] = "count"
        names[f"sphere.{fn}.self_s"] = "s"
        for b in BANDS:
            names[f"sphere.{fn}.L{b}.self_s"] = "s"
    names["sphere.evaluate_spectrum.terms"] = "count"
    names["sphere.build_grid.self_s"] = "s"
    names["sphere.lp_norm_sphere.self_s"] = "s"
    names["multipliers.certify_pd_r1.calls"] = "count"
    names["multipliers.certify_pd_r1.self_s"] = "s"
    names["multipliers.fourier_homogeneous.self_s"] = "s"
    for fn in ("verify_comparison_spherical",
               "construct_counterexample_spherical", "slicing_check",
               "intersection_body_of"):
        names[f"funk.{fn}.self_s"] = "s"
    names["funk.sradon_map.calls"] = "count"
    names["funk.sradon_map.self_s"] = "s"
    names["funk.counterexample.sradon_map_per_success"] = "count"
    for fn in ("radon_transform", "fourier_along_rays"):
        names[f"radon3d.{fn}.calls"] = "count"
        names[f"radon3d.{fn}.self_s"] = "s"
        names[f"radon3d.{fn}.samples"] = "count"
    names["radon3d.radon_transform.per_verdict"] = "count"
    for fn in ("certify_intersection_function", "fourier_1d"):
        names[f"radon3d.{fn}.calls"] = "count"
        names[f"radon3d.{fn}.self_s"] = "s"
    names["radon3d.separable_power.self_s"] = "s"
    names["compare3d.lp_norm_rn.calls"] = "count"
    names["compare3d.lp_norm_rn.self_s"] = "s"
    names["compare3d.lp_norm_rn.nodes"] = "count"
    names["compare3d.lp_norm_rn.per_verdict"] = "count"
    for fn in ("verify_comparison_radon", "construct_counterexample_radon",
               "sinogram_dominates"):
        names[f"compare3d.{fn}.self_s"] = "s"
    names["radon3d.Sinogram.to_csv.self_s"] = "s"
    names["radon3d.Sinogram.to_csv.bytes"] = "B"
    for fn in ("emit_report", "write_sphere_csv", "write_transform_csv"):
        names[f"reports.{fn}.self_s"] = "s"
    names["reports.bytes_written"] = "B"
    names["cli.import_s"] = "s"
    names["config.load_config.self_s"] = "s"
    names["exprlang.parse_expr.self_s"] = "s"
    names["exprlang.evaluate.self_s"] = "s"
    names["exprlang.evaluate.calls"] = "count"
    for stem in SHIPPED_CONFIGS:
        names[f"cli.{stem}.s"] = "s"
    names["trace.overhead_ratio"] = "1"
    return names


def layer_metrics(spans: list, n_verdicts: int) -> dict:
    """Per-layer figures from the spans of one traced run.

    ``calls`` counts spans, ``self_s`` sums self times, ``L<b>.self_s``
    splits self time by the bandwidth of the grid (or spectrum) a call works
    on, and work counts (``samples``, ``nodes``, ``terms``, ``bytes``) sum the
    per-call work computed from arguments and results.  The CLI figures that
    need the parent process (``cli.import_s``, ``cli.<config>.s``) and
    ``trace.overhead_ratio`` are filled in by the caller.
    """
    own = self_times(spans)
    calls, self_s, work, by_band = {}, {}, {}, {}
    for s, t in zip(spans, own):
        n = s["name"]
        calls[n] = calls.get(n, 0) + 1
        self_s[n] = self_s.get(n, 0.0) + t
        work[n] = work.get(n, 0) + s["work"]
        if s["band"] is not None:
            key = (n, s["band"])
            by_band[key] = by_band.get(key, 0.0) + t
    out = {}
    for name in per_layer_names():
        parts = name.split(".")
        stat = parts[-1]
        fn = ".".join(parts[:-1])
        if stat == "calls":
            out[name] = calls.get(fn, 0)
        elif stat == "self_s" and parts[-2].startswith("L") \
                and parts[-2][1:].isdigit():
            out[name] = by_band.get((".".join(parts[:-2]),
                                     int(parts[-2][1:])), 0.0)
        elif stat == "self_s":
            out[name] = self_s.get(fn, 0.0)
        elif stat in ("samples", "nodes", "terms", "bytes"):
            out[name] = work.get(fn, 0)
    per = max(n_verdicts, 1)
    out["radon3d.radon_transform.per_verdict"] = \
        calls.get("radon3d.radon_transform", 0) / per
    out["compare3d.lp_norm_rn.per_verdict"] = \
        calls.get("compare3d.lp_norm_rn", 0) / per
    out["reports.bytes_written"] = sum(
        work.get(f"reports.{fn}", 0)
        for fn in ("emit_report", "write_sphere_csv", "write_transform_csv"))
    cx = "funk.construct_counterexample_spherical"
    successes = sum(1 for s in spans if s["name"] == cx and s["ok"])
    wasted = sum(1 for s in spans if s["name"] == "funk.sradon_map"
                 and _ancestor(spans, s, cx))
    out["funk.counterexample.sradon_map_per_success"] = \
        wasted / successes if successes else 0.0
    return out
