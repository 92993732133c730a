"""Scenario configuration: flat INI files with expression-valued entries.

Sections:

    [scenario]   kind (one of the nine scenario kinds), p, q, and options
    [grid]       n_polar, n_azimuth, l_max, t_max, n_t, r_max
    [functions]  expression-valued entries (parsed and checked at load time)
    [tolerances] optional numeric overrides, scaled by --tol-scale at run time
    [output]     dir

Every expression referenced by the scenario is parsed — and angular
expressions are checked for evenness — before any computation starts.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .errors import InputInvalid
from .exprlang import ExprAst, check_angular_even, parse_expr

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
    l_max: int = 8
    t_max: float = 16.0
    n_t: int = 2048
    r_max: float = 16.0
    expressions: dict = field(default_factory=dict)   # name -> source text
    asts: dict = field(default_factory=dict)          # name -> ExprAst
    tolerances: dict = field(default_factory=dict)
    output_dir: str = "out"
    raw: dict = field(default_factory=dict)           # echo for the manifest

    def tol(self, name: str, default: float, scale: float = 1.0) -> float:
        return float(self.tolerances.get(name, default)) * scale


def _check_expr(name: str, src: str, context: str) -> ExprAst:
    try:
        ast = parse_expr(src)
    except Exception as exc:
        raise InputInvalid(f"expression {name!r} does not parse: {exc}")
    if context == "angular":
        check_angular_even(ast)
    return ast


def load_config(path: str | Path) -> ScenarioConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(str(path))
    if not read:
        raise InputInvalid(f"config file {path} not found or unreadable")
    if "scenario" not in parser:
        raise InputInvalid("config must have a [scenario] section")
    sc = parser["scenario"]
    kind = sc.get("kind", "").strip()
    if kind not in SCENARIO_KINDS:
        raise InputInvalid(
            f"unknown scenario kind {kind!r}; known: {', '.join(SCENARIO_KINDS)}")
    cfg = ScenarioConfig(kind=kind)
    cfg.p = sc.getfloat("p", cfg.p)
    cfg.q = sc.getfloat("q", cfg.q)
    cfg.catalog = sc.get("catalog", "").strip()
    cfg.lower_branch = sc.getboolean("lower_branch", False)
    cfg.tail_correction = sc.getboolean("tail_correction", False)
    if "grid" in parser:
        g = parser["grid"]
        cfg.n_polar = g.getint("n_polar", cfg.n_polar)
        cfg.n_azimuth = g.getint("n_azimuth", cfg.n_azimuth)
        cfg.l_max = g.getint("l_max", cfg.l_max)
        cfg.t_max = g.getfloat("t_max", cfg.t_max)
        cfg.n_t = g.getint("n_t", cfg.n_t)
        cfg.r_max = g.getfloat("r_max", cfg.r_max)
    if "functions" in parser:
        cfg.expressions = dict(parser["functions"])
    if "tolerances" in parser:
        cfg.tolerances = {k: float(v) for k, v in parser["tolerances"].items()}
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
