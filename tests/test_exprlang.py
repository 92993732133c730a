"""Expression mini-language: tokenizer, parser, precedence, error positions,
evaluation contexts, and the evenness check."""

import math

import numpy as np
import pytest
from scipy.special import erf, eval_legendre

from radoncomp.errors import (
    ArityError,
    ExprSyntaxError,
    InputInvalid,
    UnknownIdentifier,
)
from radoncomp.exprlang import (
    BinOp,
    Call,
    Num,
    Unary,
    Var,
    angular_context,
    check_angular_even,
    evaluate,
    parse_expr,
    radial_context,
)


def num_eval(src, **vars):
    """Evaluate a radial/angular expression at scalar points."""
    if set(vars) == {"r"}:
        ctx = radial_context(np.array([vars["r"]]))
    else:
        ctx = angular_context(np.array([vars["x"]]), np.array([vars["y"]]),
                              np.array([vars["z"]]))
    return float(evaluate(parse_expr(src), ctx)[0])


# ----------------------------------------------------------------------------
# Parsing and precedence
# ----------------------------------------------------------------------------

def test_number_and_variable():
    assert isinstance(parse_expr("3.5"), Num)
    assert isinstance(parse_expr("r"), Var)


def test_precedence_chain():
    # 1 + 2 * 3 ^ 2 = 1 + 2 * 9 = 19
    assert num_eval("1 + 2 * 3 ^ 2", r=0.0) == 19.0
    # unary minus binds tighter than * but looser than ^: -3^2 = -(3^2)
    assert num_eval("-3 ^ 2", r=0.0) == -9.0
    # power is right-associative: 2 ^ 3 ^ 2 = 2 ^ 9
    assert num_eval("2 ^ 3 ^ 2", r=0.0) == 512.0
    assert num_eval("6 - 3 - 2", r=0.0) == 1.0          # left-assoc
    assert num_eval("8 / 4 / 2", r=0.0) == 1.0


def test_parentheses_override():
    assert num_eval("(1 + 2) * 3", r=0.0) == 9.0
    assert num_eval("(-3) ^ 2", r=0.0) == 9.0


def test_ast_positions_are_one_based():
    ast = parse_expr("1 + r")
    assert isinstance(ast, BinOp)
    assert ast.pos == 3              # the operator
    assert ast.left.pos == 1
    assert ast.right.pos == 5


def test_scientific_notation():
    assert num_eval("1.5e-2 + 2E3", r=0.0) == pytest.approx(2000.015)


def test_syntax_error_positions():
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr("1 + * 2")
    assert e.value.position == 5
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr("1 + (")          # end of input: points at the paren
    assert e.value.position == 5
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr("exp(r")          # unclosed call
    assert e.value.position == 5
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr("1 2")
    assert e.value.position == 3
    with pytest.raises(ExprSyntaxError) as e:
        parse_expr("r @ 2")
    assert e.value.position == 3


def test_unknown_identifier_position():
    with pytest.raises(UnknownIdentifier) as e:
        evaluate(parse_expr("1 + nope"), radial_context(np.zeros(1)))
    assert e.value.position == 5


def test_arity_errors():
    with pytest.raises(ArityError):
        evaluate(parse_expr("exp(1, 2)"), radial_context(np.zeros(1)))
    with pytest.raises(ArityError):
        evaluate(parse_expr("min(1)"), radial_context(np.zeros(1)))


# ----------------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------------

def test_contexts_expose_their_variables():
    assert num_eval("x + 2 * y + z", x=1.0, y=2.0, z=3.0) == 8.0
    assert num_eval("z ^ 2", x=0.0, y=0.0, z=3.0) == 9.0
    with pytest.raises(UnknownIdentifier):
        num_eval("x", r=1.0)


def test_pi_constant():
    assert num_eval("2 * pi", r=0.0) == pytest.approx(2.0 * math.pi)


def test_builtin_functions():
    assert num_eval("exp(1)", r=0.0) == pytest.approx(math.e)
    assert num_eval("erf(0.7)", r=0.0) == pytest.approx(float(erf(0.7)))
    assert num_eval("abs(-2)", r=0.0) == 2.0
    assert num_eval("legendre(3, 0.5)", r=0.0) == pytest.approx(
        float(eval_legendre(3, 0.5)))


def test_gauss_acts_on_domain_variable():
    assert num_eval("gauss(2)", r=1.0) == pytest.approx(math.exp(-0.25))
    assert num_eval("gauss(1)", r=2.0) == pytest.approx(math.exp(-4.0))
    # angular domain variable is z
    assert num_eval("gauss(1)", x=0.0, y=0.0, z=0.5) == pytest.approx(
        math.exp(-0.25))
    with pytest.raises(InputInvalid):
        num_eval("gauss(-1)", r=0.0)


def test_bump_support_and_peak():
    assert num_eval("bump(1, 3)", r=2.0) == 1.0     # peak at the midpoint
    assert num_eval("bump(1, 3)", r=0.99) == 0.0
    assert num_eval("bump(1, 3)", r=3.0) == 0.0
    assert 0.0 < num_eval("bump(1, 3)", r=1.5) < 1.0
    with pytest.raises(InputInvalid):
        num_eval("bump(3, 1)", r=0.0)


def test_catalog_bindings_radial_only():
    r = np.array([0.5, 1.0, 2.0])
    got = evaluate(parse_expr("gauss_r2"), radial_context(r))
    assert np.max(np.abs(got - np.exp(-r * r) / r ** 2)) < 1e-10
    got = evaluate(parse_expr("erf_type"), radial_context(r))
    assert np.max(np.abs(got - 2.0 * math.pi * erf(r / 2.0) / r)) < 1e-10
    with pytest.raises(InputInvalid):
        evaluate(parse_expr("erf_type"),
                 angular_context(np.zeros(1), np.zeros(1), np.ones(1)))


def test_gamma_q_call():
    r = np.array([0.5, 1.5])
    got = evaluate(parse_expr("gamma_q(4)"), radial_context(r))
    assert np.all(np.isfinite(got)) and np.all(got > 0.0)
    with pytest.raises(InputInvalid):
        evaluate(parse_expr("gamma_q(2)"),
                 angular_context(np.zeros(1), np.zeros(1), np.ones(1)))


def test_min_max_elementwise():
    r = np.array([0.0, 1.0, 2.0, 3.0])
    assert np.array_equal(evaluate(parse_expr("min(r, 2)"), radial_context(r)),
                          [0.0, 1.0, 2.0, 2.0])
    assert np.array_equal(evaluate(parse_expr("max(r, 2)"), radial_context(r)),
                          [2.0, 2.0, 2.0, 3.0])
    assert num_eval("max(-x, min(y, z))", x=1.0, y=0.5, z=0.25) == 0.25
    with pytest.raises(ArityError):
        evaluate(parse_expr("max(1, 2, 3)"), radial_context(r))


def test_folded_constant_arguments():
    z = np.linspace(-1.0, 1.0, 9)
    ctx = angular_context(np.zeros(9), np.zeros(9), z)
    assert np.array_equal(evaluate(parse_expr("legendre(1+1, z)"), ctx),
                          evaluate(parse_expr("legendre(2, z)"), ctx))
    assert np.array_equal(evaluate(parse_expr("legendre(-(-3)^1, z)"), ctx),
                          evaluate(parse_expr("legendre(3, z)"), ctx))
    assert np.array_equal(evaluate(parse_expr("gauss(2*0.5)"), ctx),
                          evaluate(parse_expr("gauss(1)"), ctx))
    assert num_eval("bump(2/2, 6/2)", r=2.0) == 1.0
    with pytest.raises(ExprSyntaxError):
        evaluate(parse_expr("legendre(r, z)"), ctx)


def test_unknown_function_position():
    with pytest.raises(UnknownIdentifier) as e:
        evaluate(parse_expr("2 * sinh(r)"), radial_context(np.zeros(1)))
    assert e.value.position == 5
    assert "sinh" in str(e.value)


@pytest.mark.parametrize("src, name", [("exp_ell", "exp-ell"),
                                       ("cauchy_ell", "cauchy-ell"),
                                       ("gamma_q(1.5)", "gamma-q(1.5)")])
def test_catalog_bindings_match_catalog_profile(src, name):
    from radoncomp.radon3d import catalog_entry

    r = np.array([0.0, 0.25, 1.0, 3.5, 7.0])
    got = evaluate(parse_expr(src), radial_context(r))
    ref = catalog_entry(name).f.blocks[0].profile(r)
    assert np.all(np.isfinite(ref)) and np.all(ref > 0.0)
    assert np.max(np.abs(got - ref) / ref) < 1e-14
    # the radial variable enters through |r|
    assert np.array_equal(evaluate(parse_expr(src), radial_context(-r)), got)


def test_catalog_names_follow_the_catalog():
    # the names are CATALOG_NAMES with underscores: plain gamma_q is q = 4,
    # as the config's `catalog = gamma-q`, and only gamma_q takes a q
    r = radial_context(np.array([0.5, 1.5]))
    assert np.array_equal(evaluate(parse_expr("gamma_q"), r),
                          evaluate(parse_expr("gamma_q(4)"), r))
    with pytest.raises(InputInvalid):
        evaluate(parse_expr("erf_type(2)"), r)
    with pytest.raises(UnknownIdentifier):
        evaluate(parse_expr("erf_typo"), r)


def test_vectorized_evaluation_shape():
    r = np.linspace(0, 2, 11)
    out = evaluate(parse_expr("exp(-r ^ 2) + 1"), radial_context(r))
    assert out.shape == r.shape
    assert np.max(np.abs(out - (np.exp(-r * r) + 1.0))) < 1e-14


# ----------------------------------------------------------------------------
# Evenness check
# ----------------------------------------------------------------------------

def test_even_expressions_pass():
    check_angular_even(parse_expr("1 + 0.3 * legendre(2, z)"))
    check_angular_even(parse_expr("x ^ 2 + y * z"))
    check_angular_even(parse_expr("abs(x)"))


def test_odd_expression_rejected():
    with pytest.raises(InputInvalid):
        check_angular_even(parse_expr("1 + 0.5 * z"))
    with pytest.raises(InputInvalid):
        check_angular_even(parse_expr("x * y * z"))
    for odd in ("x", "y", "z + z ^ 3", "x ^ 3 * y ^ 2", "1 + 1e-6 * x * y * z"):
        with pytest.raises(InputInvalid):
            check_angular_even(parse_expr(odd))


def test_evenness_check_needs_no_random_numbers(monkeypatch):
    # the sample directions are fixed: the check neither draws from
    # numpy.random nor depends on a seed, and gives the same verdicts
    monkeypatch.setattr(np.random, "default_rng", None)
    check_angular_even(parse_expr("x ^ 2 + y * z"))
    with pytest.raises(InputInvalid):
        check_angular_even(parse_expr("z + z ^ 3"))
