"""The tolerance policy: every verdict threshold is written once, in
radoncomp.tolerances, and the config loader accepts exactly its keys."""

import ast
from pathlib import Path

from radoncomp import config, tolerances

SRC = Path(__file__).resolve().parent.parent / "src" / "radoncomp"


def _tol_defaults(source: str):
    """(function, parameter, default) for each parameter ending in _tol
    that has a default."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        pairs = list(zip(positional[len(positional) - len(a.defaults):],
                         a.defaults))
        pairs += [(k, d) for k, d in zip(a.kwonlyargs, a.kw_defaults)
                  if d is not None]
        for arg, default in pairs:
            if arg.arg.endswith("_tol"):
                yield getattr(node, "name", "<lambda>"), arg.arg, default


def _is_number(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                    (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) \
        and isinstance(node.value, (int, float)) \
        and not isinstance(node.value, bool)


def test_guard_sees_literal_defaults():
    found = [(f, p) for f, p, d in _tol_defaults(
        "def f(x, rel_tol=1e-9, *, gap_tol=-1e-8, chain_tol=TOL): pass")
        if _is_number(d)]
    assert found == [("f", "rel_tol"), ("f", "gap_tol")]


def test_no_tol_parameter_has_a_literal_default():
    seen, literal = 0, []
    for path in sorted(SRC.glob("*.py")):
        for func, param, default in _tol_defaults(path.read_text()):
            seen += 1
            if _is_number(default):
                literal.append(f"{path.name}: {func}({param}="
                               f"{ast.unparse(default)})")
    assert seen, "no _tol parameter found"
    assert not literal, literal


def test_config_keys_are_the_policy_keys():
    assert config._KEYS["tolerances"] == tuple(tolerances.DEFAULTS)
    assert set(tolerances.DEFAULTS) == {"rel_tol", "gap_tol", "chain_tol",
                                        "tail_tol", "catalog_tol"}
