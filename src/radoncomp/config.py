"""Scenario configuration: flat INI files with expression-valued entries.

Sections:

    [scenario]   kind (one of the nine scenario kinds), p, q, catalog,
                 lower_branch, tail_correction
    [grid]       n_polar, n_azimuth, n_t (at least 7), r_max (above 0)
    [functions]  expression-valued entries (parsed and checked at load time)
    [tolerances] rel_tol, gap_tol, chain_tol, tail_tol, catalog_tol: optional
                 overrides of tolerances.DEFAULTS above 0, scaled by --tol-scale
    [output]     dir

Any other section or key is refused, since nothing would read it, and so is
a number that is not finite.  Every expression referenced by the scenario is
parsed — and angular expressions are checked for evenness — before any
computation starts.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import InputInvalid
from .exprlang import ExprAst, check_angular_even, parse_expr
from .tolerances import DEFAULTS

__all__ = ["ScenarioConfig", "load_config", "SCENARIO_KINDS"]

SCENARIO_KINDS = (
    "spherical-compare",
    "spherical-counterexample",
    "slicing",
    "rn-compare",
    "rn-counterexample",
    "certify-pd",
    "certify-intersection",
    "intersection-body",
    "catalog-verify",
)

# which [functions] keys each kind needs, and the context each is checked in
_REQUIRED = {
    "spherical-compare": {"f": "angular", "g": "angular"},
    "spherical-counterexample": {"g": "angular"},
    "slicing": {"f": "angular"},
    "rn-compare": {"phi_radial": "radial", "psi_radial": "radial"},
    "rn-counterexample": {"psi_radial": "radial"},
    "certify-pd": {"f": "angular"},
    "certify-intersection": {},          # f_radial or catalog
    "intersection-body": {"rho": "angular"},
    "catalog-verify": {},                # catalog only
}
_OPTIONAL = {
    "rn-compare": {"phi_angular": "angular", "psi_angular": "angular"},
    "rn-counterexample": {"psi_angular": "angular"},
    "certify-intersection": {"f_radial": "radial", "f_angular": "angular"},
}


@dataclass
class ScenarioConfig:
    kind: str
    p: float = 2.0
    q: float = 1.0
    catalog: str = ""
    lower_branch: bool = False
    tail_correction: bool = False
    n_polar: int = 16
    n_azimuth: int = 32
    n_t: int = 2048
    r_max: float = 16.0
    expressions: dict = field(default_factory=dict)   # name -> source text
    asts: dict = field(default_factory=dict)          # name -> ExprAst
    tolerances: dict = field(default_factory=dict)
    output_dir: str = "out"
    raw: dict = field(default_factory=dict)           # echo for the manifest


def _check_expr(name: str, src: str, context: str) -> ExprAst:
    try:
        ast = parse_expr(src)
    except Exception as exc:
        raise InputInvalid(f"expression {name!r} does not parse: {exc}")
    if context == "angular":
        check_angular_even(ast)
    return ast


# typed keys per section, each read as the type of its ScenarioConfig field
_TYPED_KEYS = {"scenario": ("p", "q", "lower_branch", "tail_correction"),
               "grid": ("n_polar", "n_azimuth", "n_t", "r_max")}
# every key a section may hold; [functions] names its own entries, the
# tolerances are the policy's (tolerances.DEFAULTS), and [scenario] seed
# labels a run: only the manifest's echo holds it
_KEYS = {"scenario": ("kind", "catalog", "seed", *_TYPED_KEYS["scenario"]),
         "grid": _TYPED_KEYS["grid"], "functions": None,
         "tolerances": tuple(DEFAULTS),
         "output": ("dir",)}


# Exclusive lower bounds, by key or else by section: every tolerance and
# r_max lie above 0, and n_t above 6, since ray_profile_samples extrapolates
# m(0) from the first three positive offsets.
_ABOVE = {"tolerances": 0.0, "r_max": 0.0, "n_t": 6}


def _typed(section: configparser.SectionProxy, key: str, like):
    """section[key] as the type of `like`, finite and above its bound in
    _ABOVE, or InputInvalid naming the key."""
    kind = type(like)
    try:
        value = section.getboolean(key) if kind is bool else kind(section[key])
    except ValueError:
        raise InputInvalid(f"[{section.name}] {key} = {section[key]!r} is not "
                           f"a valid {kind.__name__}") from None
    bound = _ABOVE.get(key, _ABOVE.get(section.name, -math.inf))
    if not bound < value < math.inf:
        raise InputInvalid(f"[{section.name}] {key} = {value} must be finite"
                           + ("" if bound == -math.inf else f" and above {bound}"))
    return value


def _check_keys(parser: configparser.ConfigParser) -> None:
    """InputInvalid naming the first section or key that nothing reads."""
    for name in parser.sections():
        if name not in _KEYS:
            where = " ".join([f"[{name}]", *list(parser[name])[:1]])
            raise InputInvalid(f"unknown section {where}; sections are "
                               + ", ".join(f"[{s}]" for s in _KEYS))
        keys = _KEYS[name]
        for key in parser[name]:
            if keys is not None and key not in keys:
                raise InputInvalid(f"unknown key [{name}] {key}; [{name}] "
                                   f"takes {', '.join(keys)}")


def load_config(path: str | Path) -> ScenarioConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(str(path))
    if not read:
        raise InputInvalid(f"config file {path} not found or unreadable")
    _check_keys(parser)
    if "scenario" not in parser:
        raise InputInvalid("config must have a [scenario] section")
    sc = parser["scenario"]
    kind = sc.get("kind", "").strip()
    if kind not in SCENARIO_KINDS:
        raise InputInvalid(
            f"unknown scenario kind {kind!r}; known: {', '.join(SCENARIO_KINDS)}")
    cfg = ScenarioConfig(kind=kind)
    cfg.catalog = sc.get("catalog", "").strip()
    for name, keys in _TYPED_KEYS.items():
        for key in keys:
            if name in parser and key in parser[name]:
                setattr(cfg, key, _typed(parser[name], key, getattr(cfg, key)))
    if "functions" in parser:
        cfg.expressions = dict(parser["functions"])
    if "tolerances" in parser:
        cfg.tolerances = {k: _typed(parser["tolerances"], k, 1.0)
                          for k in parser["tolerances"]}
    if "output" in parser:
        cfg.output_dir = parser["output"].get("dir", cfg.output_dir)
    cfg.raw = {s: dict(parser[s]) for s in parser.sections()}

    # parse/type-check every referenced expression up front
    contexts = dict(_REQUIRED[kind])
    for name, context in _OPTIONAL.get(kind, {}).items():
        if name in cfg.expressions:
            contexts[name] = context
    missing = [n for n in _REQUIRED[kind] if n not in cfg.expressions]
    if missing:
        raise InputInvalid(
            f"scenario {kind!r} needs [functions] entries: {', '.join(missing)}")
    if kind == "certify-intersection" and not cfg.catalog \
            and "f_radial" not in cfg.expressions:
        raise InputInvalid(
            "certify-intersection needs either 'catalog' in [scenario] or an "
            "'f_radial' entry in [functions]")
    if kind == "catalog-verify" and not cfg.catalog:
        raise InputInvalid("catalog-verify needs 'catalog' in [scenario]")
    for name, context in contexts.items():
        cfg.asts[name] = _check_expr(name, cfg.expressions[name], context)
    return cfg
