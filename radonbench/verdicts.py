"""Verdict records shared by the workloads, and the refusal rule for
ill-posed inputs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


@dataclass
class Verdict:
    """One public library call (or one CLI invocation) and its oracle.

    ``run`` makes the call; ``check(result, exc)`` runs outside the timed
    span and returns None when the outcome is right, else the reason.
    ``ill_posed`` marks inputs whose correct outcome is a refusal.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any, BaseException | None], str | None]
    ill_posed: bool = False


def _all_finite(values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values)


def refused(result, exc, finite_parts: Callable[[Any], tuple]) -> str | None:
    """Oracle for an ill-posed input.

    A refusal is an ``InputInvalid``-family error, or a verdict other than
    positive-definite / intersection-function / inconclusive whose numbers
    are all finite.
    """
    from radoncomp import InputInvalid

    if exc is not None:
        if isinstance(exc, InputInvalid):
            return None
        return f"ill-posed input raised {type(exc).__name__}, not InputInvalid"
    verdict = getattr(result, "verdict", None)
    if verdict in ("positive-definite", "intersection-function",
                   "inconclusive"):
        return f"ill-posed input accepted with verdict {verdict!r}"
    if not _all_finite(finite_parts(result)):
        return f"ill-posed input gave verdict {verdict!r} with non-finite numbers"
    return None


def close(value: float, ref: float, rel: float, what: str,
          scale: float | None = None) -> str | None:
    """None when |value - ref| <= rel * scale (scale defaults to |ref|)."""
    s = abs(ref) if scale is None else scale
    if not (math.isfinite(value) and abs(value - ref) <= rel * max(s, 1e-300)):
        return f"{what}: got {value!r}, expected {ref!r} (rel tol {rel:g})"
    return None


def signature(result, exc) -> str:
    """What a verdict concluded, for comparing traced and untraced runs."""
    if exc is not None:
        return f"raised {type(exc).__name__}"
    if isinstance(result, dict):                  # a CLI invocation
        return f"exit {result['code']}"
    if isinstance(result, tuple):                 # (constructed, report)
        result = result[1]
    fields = ("verdict", "hypothesis_holds", "conclusion_holds", "holds")
    return repr([getattr(result, f) for f in fields if hasattr(result, f)]
                or type(result).__name__)
