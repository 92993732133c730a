"""Mini-language for specifying functions in scenario configs.

Grammar (recursive descent, 1-based source positions):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?            # right-associative
    atom    := number | identifier | identifier '(' args ')' | '(' expr ')'

Variables are context-bound: angular expressions see x, y, z (a point on the
unit sphere), radial expressions see r.  Built-in functions: exp, erf, abs,
min, max, legendre(k, u), gauss(width) (a unit-peak Gaussian of the
context's domain variable), bump(a, b) (a smooth bump of the domain variable,
supported on [a, b], peak 1).  Catalog entries are bound by name with hyphens
written as underscores (gauss_r2, erf_type, exp_ell, cauchy_ell, gamma_q(q))
and evaluate their radial closed forms.

Angular expressions are additionally checked for evenness by antipodal
comparison at 64 deterministic sample points (tolerance 1e-10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArityError, ExprSyntaxError, InputInvalid, UnknownIdentifier
from .sphere import erf, legendre

__all__ = [
    "ExprAst", "Num", "Var", "Unary", "BinOp", "Call",
    "parse_expr", "evaluate",
    "angular_context", "radial_context",
    "check_angular_even",
]


# ----------------------------------------------------------------------------
# AST
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ExprAst:
    pos: int                                   # 1-based source position


@dataclass(frozen=True)
class Num(ExprAst):
    value: float


@dataclass(frozen=True)
class Var(ExprAst):
    name: str


@dataclass(frozen=True)
class Unary(ExprAst):
    op: str                                    # '-'
    operand: ExprAst


@dataclass(frozen=True)
class BinOp(ExprAst):
    op: str                                    # '+', '-', '*', '/', '^'
    left: ExprAst
    right: ExprAst


@dataclass(frozen=True)
class Call(ExprAst):
    func: str
    args: tuple


# ----------------------------------------------------------------------------
# Tokenizer
# ----------------------------------------------------------------------------

_OPS = set("+-*/^(),")


@dataclass(frozen=True)
class _Token:
    kind: str                                  # "num" | "ident" | "op" | "end"
    text: str
    pos: int                                   # 1-based


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        pos = i + 1
        if c in _OPS:
            tokens.append(_Token("op", c, pos))
            i += 1
        elif c.isdigit() or c == ".":
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE" and (
                    j + 1 < n and (src[j + 1].isdigit()
                                   or (src[j + 1] in "+-" and j + 2 < n
                                       and src[j + 2].isdigit()))):
                j += 2
                while j < n and src[j].isdigit():
                    j += 1
            text = src[i:j]
            try:
                float(text)
            except ValueError:
                raise ExprSyntaxError(f"malformed number {text!r}", pos)
            tokens.append(_Token("num", text, pos))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("ident", src[i:j], pos))
            i = j
        else:
            raise ExprSyntaxError(f"unexpected character {c!r}", pos)
    tokens.append(_Token("end", "", n + 1))
    return tokens


# ----------------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def _fail_pos(self, t: _Token) -> int:
        # at end of input, point at the last real token (e.g. the unclosed
        # parenthesis) rather than one past the end
        if t.kind == "end" and self.i > 0:
            return self.tokens[self.i - 1].pos
        return t.pos

    def eat(self, text: str) -> _Token:
        t = self.cur
        if t.kind != "op" or t.text != text:
            found = repr(t.text) if t.text else "end of input"
            raise ExprSyntaxError(f"expected {text!r}, found {found}",
                                  self._fail_pos(t))
        self.i += 1
        return t

    def parse(self) -> ExprAst:
        node = self.expr()
        if self.cur.kind != "end":
            raise ExprSyntaxError(f"unexpected {self.cur.text!r}", self.cur.pos)
        return node

    def expr(self, ops: str = "+-") -> ExprAst:
        """A left-associative chain: a sum ('+-') of products ('*/') of
        unaries."""
        def operand():
            return self.unary() if ops == "*/" else self.expr("*/")

        node = operand()
        while self.cur.kind == "op" and self.cur.text in ops:
            op = self.cur
            self.i += 1
            node = BinOp(op.pos, op.text, node, operand())
        return node

    def unary(self) -> ExprAst:
        if self.cur.kind == "op" and self.cur.text == "-":
            op = self.cur
            self.i += 1
            return Unary(op.pos, "-", self.unary())
        return self.power()

    def power(self) -> ExprAst:
        base = self.atom()
        if self.cur.kind == "op" and self.cur.text == "^":
            op = self.cur
            self.i += 1
            return BinOp(op.pos, "^", base, self.unary())  # right-assoc
        return base

    def atom(self) -> ExprAst:
        t = self.cur
        if t.kind == "num":
            self.i += 1
            return Num(t.pos, float(t.text))
        if t.kind == "ident":
            self.i += 1
            if self.cur.kind == "op" and self.cur.text == "(":
                self.eat("(")
                args = [self.expr()]
                while self.cur.kind == "op" and self.cur.text == ",":
                    self.i += 1
                    args.append(self.expr())
                self.eat(")")
                return Call(t.pos, t.text, tuple(args))
            return Var(t.pos, t.text)
        if t.kind == "op" and t.text == "(":
            self.eat("(")
            node = self.expr()
            self.eat(")")
            return node
        found = repr(t.text) if t.text else "end of input"
        raise ExprSyntaxError(f"expected a value, found {found}",
                              self._fail_pos(t))


def parse_expr(src: str) -> ExprAst:
    """Parse source text to a deterministic AST; errors carry 1-based positions."""
    return _Parser(_tokenize(src)).parse()


# ----------------------------------------------------------------------------
# Evaluation contexts
# ----------------------------------------------------------------------------

@dataclass
class EvalContext:
    variables: dict                   # name -> array
    domain_var: str                   # variable gauss/bump act on


def angular_context(x, y, z) -> EvalContext:
    return EvalContext({"x": np.asarray(x, float), "y": np.asarray(y, float),
                        "z": np.asarray(z, float)}, domain_var="z")


def radial_context(r) -> EvalContext:
    return EvalContext({"r": np.asarray(r, float)}, domain_var="r")


# The binary operators of both evaluators: on arrays in _evaluate, and on
# NumPy scalars in _const_value, where 1/0 or an overflow folds to inf or nan
# for the finiteness check instead of raising.
_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
           "^": np.power}
# Built-ins applied elementwise to their evaluated arguments: (arity, function).
_FUNCTIONS = {"exp": (1, np.exp), "erf": (1, erf), "abs": (1, np.abs),
              "min": (2, np.minimum), "max": (2, np.maximum)}
# The largest degree legendre(k, u) takes: its recurrence runs k steps.
_MAX_DEGREE = 1000


def _const_value(node: ExprAst) -> float:
    """Fold a constant argument (a degree, width, bound or q) with the
    evaluator's operators; InputInvalid unless the result is finite."""
    def fold(node):
        if isinstance(node, Num):
            return np.float64(node.value)
        if isinstance(node, Unary):
            return -fold(node.operand)
        if isinstance(node, BinOp):
            return _BINARY[node.op](fold(node.left), fold(node.right))
        raise ExprSyntaxError("expected a constant expression", node.pos)

    value = float(fold(node))
    if not math.isfinite(value):
        raise InputInvalid(f"constant argument at position {node.pos} is "
                           f"{value}, not a finite number")
    return value


def _require_arity(node: Call, n: int) -> None:
    if len(node.args) != n:
        raise ArityError(
            f"{node.func} takes {n} argument{'s' if n != 1 else ''}, "
            f"got {len(node.args)}", node.pos)


def _catalog(ast: Var | Call, ctx: EvalContext) -> np.ndarray:
    """The radial closed form u(|r|) of the catalog entry that ast names,
    hyphens written as underscores (gamma_q(q) passes q); UnknownIdentifier
    when it names none."""
    from .radon3d import CATALOG_NAMES, catalog_entry

    is_var = isinstance(ast, Var)
    name = (ast.name if is_var else ast.func).replace("_", "-")
    if name not in CATALOG_NAMES:
        raise UnknownIdentifier(
            f"unknown variable {ast.name!r} (available: "
            f"{', '.join(sorted(ctx.variables))})" if is_var
            else f"unknown function {ast.func!r}", ast.pos)
    if ctx.domain_var != "r":
        raise InputInvalid(f"catalog entry {name!r} is a radial profile; it "
                           "is only available in radial expressions")
    if not is_var:
        _require_arity(ast, 1)
        name += f"({_const_value(ast.args[0])})"
    return catalog_entry(name).f.blocks[0].profile(np.abs(ctx.variables["r"]))


def evaluate(ast: ExprAst, ctx: EvalContext) -> np.ndarray:
    """Vectorized evaluation over the context's sample arrays.  NumPy's
    floating-point warnings are off: a division by zero or an overflow
    leaves its inf or nan in the values, for the caller's checks to judge."""
    with np.errstate(all="ignore"):
        return _evaluate(ast, ctx)


def _evaluate(ast: ExprAst, ctx: EvalContext) -> np.ndarray:
    if isinstance(ast, Num):
        return np.full_like(next(iter(ctx.variables.values())), ast.value,
                            dtype=float)
    if isinstance(ast, Var):
        if ast.name == "pi":
            return _evaluate(Num(ast.pos, math.pi), ctx)
        if ast.name in ctx.variables:
            return ctx.variables[ast.name].astype(float)
        return _catalog(ast, ctx)
    if isinstance(ast, Unary):
        return -_evaluate(ast.operand, ctx)
    if isinstance(ast, BinOp):
        return _BINARY[ast.op](_evaluate(ast.left, ctx),
                               _evaluate(ast.right, ctx))
    assert isinstance(ast, Call)
    name = ast.func
    if name in _FUNCTIONS:
        arity, fn = _FUNCTIONS[name]
        _require_arity(ast, arity)
        return fn(*(_evaluate(arg, ctx) for arg in ast.args))
    if name == "legendre":
        _require_arity(ast, 2)
        k = _const_value(ast.args[0])
        if k != int(k) or not 0 <= k <= _MAX_DEGREE:
            raise InputInvalid(f"legendre degree must be an integer in "
                               f"[0, {_MAX_DEGREE}], got {k}")
        return legendre(int(k), _evaluate(ast.args[1], ctx))
    if name == "gauss":
        _require_arity(ast, 1)
        width = _const_value(ast.args[0])
        if width <= 0:
            raise InputInvalid(f"gauss width must be positive, got {width}")
        v = ctx.variables[ctx.domain_var]
        return np.exp(-(v / width) ** 2)
    if name == "bump":
        _require_arity(ast, 2)
        a = _const_value(ast.args[0])
        b = _const_value(ast.args[1])
        if not b > a:
            raise InputInvalid(f"bump needs a < b, got [{a}, {b}]")
        v = ctx.variables[ctx.domain_var]
        u = (2.0 * v - a - b) / (b - a)
        out = np.zeros_like(v, dtype=float)
        inside = np.abs(u) < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
        return out
    return _catalog(ast, ctx)


def check_angular_even(ast: ExprAst) -> None:
    """Reject angular expressions without antipodal symmetry, by sampling at
    a golden-angle spiral of 64 directions (it holds no antipodal pair, so
    odd terms cannot cancel in pairs); tolerance 1e-10."""
    n_samples = 64
    i = np.arange(n_samples) + 0.5
    z, phi = 1.0 - 2.0 * i / n_samples, math.pi * (3.0 - math.sqrt(5.0)) * i
    rho = np.sqrt(1.0 - z * z)
    v = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
    plus = evaluate(ast, angular_context(v[:, 0], v[:, 1], v[:, 2]))
    minus = evaluate(ast, angular_context(-v[:, 0], -v[:, 1], -v[:, 2]))
    resid = float(np.max(np.abs(plus - minus)))
    if resid > 1e-10 * max(float(np.max(np.abs(plus))), 1.0):
        raise InputInvalid(
            f"angular expression is not even: antipodal residual {resid:.3e} "
            "exceeds 1e-10")
