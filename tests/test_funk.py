"""Spherical Radon transform, the comparison verifier/constructor on S^2,
the slicing inequality, intersection bodies and section measures.

Oracles: great-circle trapezoid quadrature (exact for band-limited
integrands), Legendre eigenvalue closed forms, and closed-form sphere
integrals for ellipsoidal radial data.
"""

import math

import numpy as np
import pytest

from conftest import (
    constant_function,
    grid_function,
    random_even_spectrum,
    random_positive_even,
)
from radoncomp.errors import (
    ConstructionFailed,
    DegenerateInput,
    DominationFails,
    InputInvalid,
    NotApplicable,
    NotPositive,
    OutOfRange,
)
from radoncomp.funk import (
    FOUR_PI,
    StarBody,
    construct_counterexample_spherical,
    intersection_body_of,
    slicing_check,
    sradon_direct,
    sradon_map,
    sradon_spectral,
    verify_comparison_spherical,
)
from radoncomp.multipliers import certify_pd_r1
from radoncomp.sphere import (
    HarmonicSpectrum,
    SphericalFunction,
    analyze,
    degree_values_rows,
    evaluate_spectrum,
    first_minimum,
    lp_norm_sphere,
    synthesize,
)
from radoncomp.tolerances import DEFAULTS


def zonal(grid, a, k=2):
    """1 + a * P_k(z) with an exact band-limited spectrum attached."""
    z = grid.nodes[:, 2]
    from scipy.special import eval_legendre

    f = SphericalFunction(grid, 1.0 + a * eval_legendre(k, z), parity="even")
    f.spectrum = analyze(f, grid.bandwidth)
    return f


S2_ENTRY_POINTS = {
    "certify_pd_r1": lambda f, g: certify_pd_r1(f, 1.0),
    "verify": lambda f, g: verify_comparison_spherical(f, g, 2.0),
    "construct": lambda f, g: construct_counterexample_spherical(f, 2.0),
    "slicing": lambda f, g: slicing_check(f, 2.0),
    "star_body": lambda f, g: StarBody(f),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("entry", sorted(S2_ENTRY_POINTS))
def test_non_finite_samples_refused(grid16, entry, bad):
    # one bad node; without the gate NaN slips past the positivity checks
    f = zonal(grid16, 0.8)
    f.values = f.values.copy()
    f.values[57] = bad
    with pytest.raises(InputInvalid):
        S2_ENTRY_POINTS[entry](f, zonal(grid16, 0.1))


# ----------------------------------------------------------------------------
# The transform
# ----------------------------------------------------------------------------

def test_sradon_constant(grid16):
    # great circles have length 2 pi
    f = constant_function(grid16, 1.0)
    f.spectrum = analyze(f, 4)
    assert math.isclose(sradon_direct(f, np.array([0.3, -0.5, 0.8])),
                        2.0 * math.pi, rel_tol=1e-12)
    rf = sradon_map(f)
    assert np.max(np.abs(rf.values - 2.0 * math.pi)) < 1e-12


def test_sradon_spectral_matches_direct(grid18):
    rng = np.random.default_rng(42)
    spec = random_even_spectrum(rng, 10)
    f = synthesize(spec, grid18, parity="even")
    rspec = sradon_spectral(spec)
    for seed in range(4):
        xi = np.random.default_rng(seed).standard_normal(3)
        xi /= np.linalg.norm(xi)
        direct = sradon_direct(f, xi)
        spectral = float(evaluate_spectrum(rspec, xi[None, :])[0])
        assert math.isclose(direct, spectral, rel_tol=1e-10, abs_tol=1e-10)


def test_sradon_annihilates_odd(grid16):
    f = grid_function(grid16, lambda u: u[:, 2] ** 3)
    rf = sradon_map(f)
    assert np.max(np.abs(rf.values)) < 1e-12


def test_sradon_output_is_even(grid16):
    rng = np.random.default_rng(1)
    f = random_positive_even(rng, grid16)
    rf = sradon_map(f)
    assert rf.antipodal_residual() < 1e-12


def test_sradon_fubini(grid16):
    # integral of the transform equals 2 pi times the integral of f
    rng = np.random.default_rng(9)
    f = random_positive_even(rng, grid16)
    rf = sradon_map(f)
    assert math.isclose(rf.integral(), 2.0 * math.pi * f.integral(),
                        rel_tol=1e-12)


# ----------------------------------------------------------------------------
# Verifier
# ----------------------------------------------------------------------------

def test_verify_affirmative_zonal(grid16):
    f = zonal(grid16, 0.2)
    g = SphericalFunction(grid16, 1.1 * f.values, parity="even")
    rep = verify_comparison_spherical(f, g, 2.0)
    assert rep.hypothesis_holds and rep.conclusion_holds
    assert rep.domination_margin >= -1e-12
    assert rep.lp_f <= rep.lp_g
    assert rep.chain["parseval_pairing_margin"] >= -1e-12
    assert rep.chain["holder_margin"] >= -1e-12


def test_verify_p1_needs_no_certificate(grid16):
    f = zonal(grid16, 0.2)
    g = SphericalFunction(grid16, f.values + 0.05, parity="even")
    rep = verify_comparison_spherical(f, g, 1.0)
    assert rep.certificate is None
    assert rep.conclusion_holds
    assert rep.chain["fubini_residual_f"] < 1e-12


def test_verify_p1_conclusion_tolerance_is_on_the_norm_scale(grid16):
    """At p = 1 domination decides: Rg - Rf = -2 pi * 7.5e-10 is accepted
    against rel_tol * max|Rg| = 2 pi * 1e-9, so the norm gap 4 pi * 7.5e-10
    must be judged against rel_tol * ||g||_1 (about 4 pi * 1e-9), not
    against the transform's tolerance, which it exceeds."""
    f = constant_function(grid16, 1.0)
    g = constant_function(grid16, 1.0 - 7.5e-10)
    rep = verify_comparison_spherical(f, g, 1.0)
    assert -DEFAULTS["rel_tol"] * 2.0 * math.pi < rep.domination_margin < 0.0
    assert rep.lp_f - rep.lp_g > DEFAULTS["rel_tol"] * 2.0 * math.pi
    assert rep.hypothesis_holds and rep.conclusion_holds


def test_verify_small_p_reverse_holder_branch(grid16):
    g = zonal(grid16, 0.2)
    f = SphericalFunction(grid16, 0.9 * g.values, parity="even")
    rep = verify_comparison_spherical(f, g, 0.5)
    assert rep.hypothesis_holds and rep.conclusion_holds
    assert "reverse_holder_margin" in rep.chain


def test_verify_domination_failure_raises(grid16):
    f = zonal(grid16, 0.2)
    g = SphericalFunction(grid16, 0.9 * f.values, parity="even")
    with pytest.raises(DominationFails):
        verify_comparison_spherical(f, g, 2.0)


def test_verify_rejects_nonpositive(grid16):
    f = grid_function(grid16, lambda u: u[:, 2] ** 2 - 0.5)
    g = constant_function(grid16, 1.0)
    with pytest.raises(NotPositive):
        verify_comparison_spherical(f, g, 2.0)


def test_verify_failed_hypothesis_reported_not_raised(grid16):
    # a = 0.8 > threshold: the hypothesis on f fails but domination holds
    f = zonal(grid16, 0.8)
    g = SphericalFunction(grid16, 1.05 * f.values, parity="even")
    rep = verify_comparison_spherical(f, g, 2.0)
    assert rep.hypothesis_holds is False
    assert rep.conclusion_holds is False


# ----------------------------------------------------------------------------
# Counterexample constructor
# ----------------------------------------------------------------------------

def test_counterexample_postconditions(grid16):
    g = zonal(grid16, 0.8)
    f, rep = construct_counterexample_spherical(g, 2.0)
    assert rep.hypothesis_holds is False
    assert f.min() > 0.0
    # domination holds on the grid ...
    rf, rg = sradon_map(f), sradon_map(g)
    assert float(np.min(rg.values - rf.values)) >= -1e-9 * rg.max_abs()
    # ... while the norm comparison fails strictly
    assert lp_norm_sphere(f, 2.0) > lp_norm_sphere(g, 2.0) + 1e-8
    assert rep.chain["norm_gap"] > 1e-8


def test_counterexample_maps_base_once(grid16, monkeypatch):
    # R(base) is taken once, before the epsilon halvings; an unreachable
    # norm gap makes the search run all 21 of them
    from radoncomp import funk

    mapped = []
    inner = funk.sradon_map
    monkeypatch.setattr(funk, "sradon_map",
                        lambda f: mapped.append(f) or inner(f))
    base = zonal(grid16, 0.8)
    with pytest.raises(ConstructionFailed):
        construct_counterexample_spherical(base, 2.0, gap_tol=1e9)
    assert len(mapped) == 22 and sum(f is base for f in mapped) == 1


def test_counterexample_small_p_roles_swap(grid16):
    # at p = 1/4 the hypothesis is the -3/4 power of the base; a deep zonal
    # valley (base small near the poles) makes that power fail certification
    base = zonal(grid16, -0.9)
    cand, rep = construct_counterexample_spherical(base, 0.25)
    # for 0 < p < 1 the base plays f and the constructed function plays g
    assert rep.lp_f > rep.lp_g + 1e-8
    rf, rg = sradon_map(base), sradon_map(cand)
    assert float(np.min(rg.values - rf.values)) >= -1e-9 * rg.max_abs()


def test_counterexample_not_applicable_when_certified(grid16):
    with pytest.raises(NotApplicable):
        construct_counterexample_spherical(zonal(grid16, 0.2), 2.0)


def test_counterexample_rejects_bad_p(grid16):
    # the exponent errors of construct_counterexample_radon
    with pytest.raises(NotApplicable):
        construct_counterexample_spherical(zonal(grid16, 0.8), 1.0)
    with pytest.raises(OutOfRange):
        construct_counterexample_spherical(zonal(grid16, 0.8), 0.0)


# S^2 entry points that take an exponent: an infinite p is refused before any
# work, or it turns into norms of 1 and a verdict on them
S2_EXPONENT_ENTRY_POINTS = {
    "lp_norm_sphere": lambda f, p: lp_norm_sphere(f, p),
    "verify": lambda f, p: verify_comparison_spherical(
        f, SphericalFunction(f.grid, 2.0 * f.values, parity="even"), p),
    "construct": lambda f, p: construct_counterexample_spherical(f, p),
    "slicing": lambda f, p: slicing_check(f, p),
}


@pytest.mark.parametrize("entry", sorted(S2_EXPONENT_ENTRY_POINTS))
def test_infinite_exponent_refused(grid16, entry):
    with pytest.raises(OutOfRange, match="p must be positive and finite"):
        S2_EXPONENT_ENTRY_POINTS[entry](zonal(grid16, 0.8), math.inf)


# ----------------------------------------------------------------------------
# Slicing
# ----------------------------------------------------------------------------

def test_slicing_equality_for_constant(grid16):
    f = constant_function(grid16, 1.0)
    f.spectrum = analyze(f, 4)
    rep = slicing_check(f, 2.0)
    # both sides are sqrt(4 pi)
    assert math.isclose(rep.lhs, math.sqrt(FOUR_PI), rel_tol=1e-12)
    assert math.isclose(rep.rhs, math.sqrt(FOUR_PI), rel_tol=1e-12)
    assert rep.hypothesis_holds and rep.holds


def test_slicing_margin_nonnegative_when_certified(grid16):
    f = zonal(grid16, 0.3)
    rep = slicing_check(f, 2.0)
    assert rep.hypothesis_holds
    assert rep.margin >= -1e-9 * abs(rep.rhs)


def test_slicing_lower_branch(grid16):
    f = zonal(grid16, 0.2)
    rep = slicing_check(f, 0.5, lower_branch=True)
    assert rep.lower_branch
    assert rep.holds


def _radon_of_one(grid, order):
    """R1 on the grid, its spectrum summed over the nodes in the given order."""
    L = grid.bandwidth
    y = degree_values_rows(np.eye((L + 1) ** 2), grid.nodes).sum(axis=0)
    coeffs = y[:, order] @ grid.weights[order]
    return synthesize(sradon_spectral(HarmonicSpectrum(L, coeffs)), grid).values


def test_slicing_direction_ignores_roundoff_ties(grid16):
    """Rf of f = 1 equals 2 pi at every node up to roundoff; noise of that
    size and a reversed quadrature sum keep the first node within tolerance
    of the maximum, which is the direction the report names."""
    f = constant_function(grid16, 1.0)
    rf = sradon_map(f).values
    tol = DEFAULTS["rel_tol"] * np.max(np.abs(rf))
    best = first_minimum(-rf, tol)
    nodes = np.arange(grid16.n_nodes)
    noise = np.random.default_rng(11).uniform(-1e-15, 1e-15, rf.size)
    assert first_minimum(-(rf + noise), tol) == best
    assert first_minimum(-_radon_of_one(grid16, nodes), tol) == best
    assert first_minimum(-_radon_of_one(grid16, nodes[::-1]), tol) == best
    np.testing.assert_array_equal(slicing_check(f, 2.0).extremal_direction,
                                  grid16.nodes[best])


# ----------------------------------------------------------------------------
# Intersection bodies and section measures
# ----------------------------------------------------------------------------

def test_intersection_body_of_ball(grid16):
    # the unit ball: sections are unit disks, rho_IB = pi ... as a radial
    # function the intersection body of B^3 is the ball of radius pi
    body = StarBody(constant_function(grid16, 1.0), name="B")
    ib = intersection_body_of(body)
    assert np.max(np.abs(ib.radial.values - math.pi)) < 1e-12
    assert ib.meta["spectral_identity_residual"] < 1e-10


def test_intersection_body_zonal_positive(grid16):
    body = StarBody(zonal(grid16, 0.3))
    ib = intersection_body_of(body)
    assert ib.radial.min() > 0.0
    assert ib.meta["spectral_identity_residual"] < 1e-10


def test_star_body_rejects_asymmetric(grid16):
    with pytest.raises(DegenerateInput):
        StarBody(grid_function(grid16, lambda u: 1.0 + 0.3 * u[:, 2]))
    with pytest.raises(NotPositive):
        StarBody(grid_function(grid16, lambda u: u[:, 2] ** 2 - 0.5))
