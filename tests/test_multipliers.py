"""Fourier multipliers of homogeneous extensions and positive-definiteness
certification of f^q * r^{-1} distributions.

Independent oracles used here:
  * direct numerical radial integral 2 int_0^inf cos(s) / s^p ds (regularized)
    reproduces lambda(1-analog) structure at k = 0 through the closed form
    lambda(3, 0, p) = pi^{3/2} 2^{3-p} Gamma((3-p)/2) / Gamma(p/2);
  * great-circle quadrature for the spherical-transform eigenvalues;
  * Legendre closed form P_k(0) = (-1)^{k/2} (k-1)!! / k!!.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.special import gamma, gammaln

from conftest import random_positive_even
from radoncomp.errors import NotPositive, OutOfRange
from radoncomp.multipliers import (
    certify_pd_r1,
    fourier_homogeneous,
    funk_eigenvalue,
    funk_eigenvalues,
    multiplier,
    multiplier_table,
    spherical_parseval_check,
)
from radoncomp.sphere import (
    HarmonicSpectrum,
    SphericalFunction,
    analyze,
    grid_function,
    synthesize,
)


def double_factorial_pk0(k):
    """P_k(0) for even k via the double-factorial closed form."""
    num, den = 1.0, 1.0
    for j in range(1, k, 2):
        num *= j
    for j in range(2, k + 1, 2):
        den *= j
    return (-1.0) ** (k // 2) * num / den


# ----------------------------------------------------------------------------
# The multiplier itself
# ----------------------------------------------------------------------------

def test_multiplier_k0_gamma_closed_form():
    for p in (0.5, 1.0, 1.5, 2.0, 2.5):
        ref = math.pi ** 1.5 * 2.0 ** (3.0 - p) \
            * gamma((3.0 - p) / 2.0) / gamma(p / 2.0)
        assert math.isclose(multiplier(3, 0, p), ref, rel_tol=1e-13)


def test_multiplier_sign_alternates_in_k():
    vals = [multiplier(3, k, 1.5) for k in (0, 2, 4, 6)]
    assert vals[0] > 0 > vals[1]
    assert vals[2] > 0 > vals[3]


def test_multiplier_duality_even_degrees():
    # lambda(3,k,p) * lambda(3,k,3-p) = (2 pi)^3 for all even k, 0 < p < 3
    for k in range(0, 66, 2):
        for p in (0.5, 1.0, 1.5, 2.0, 2.5):
            prod = multiplier(3, k, p) * multiplier(3, k, 3.0 - p)
            assert math.isclose(prod, (2.0 * math.pi) ** 3, rel_tol=1e-10), \
                (k, p)


def test_multiplier_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        multiplier(3, 1, 1.5)       # odd degree
    with pytest.raises(OutOfRange):
        multiplier(3, -2, 1.5)
    with pytest.raises(OutOfRange):
        multiplier(3, 0, 0.0)
    with pytest.raises(OutOfRange):
        multiplier(3, 0, 3.0)


def test_multiplier_table_zero_on_odd():
    table = multiplier_table(3, 7, 1.0)
    assert np.all(table[1::2] == 0.0)
    assert all(table[k] == multiplier(3, k, 1.0) for k in range(0, 8, 2))


def test_multiplier_large_degree_finite():
    v = multiplier(3, 200, 1.5)
    assert np.isfinite(v) and v != 0.0


# ----------------------------------------------------------------------------
# Spherical-transform eigenvalues
# ----------------------------------------------------------------------------

def test_funk_eigenvalue_closed_form():
    for k in range(0, 20, 2):
        assert math.isclose(funk_eigenvalue(k),
                            2.0 * math.pi * double_factorial_pk0(k),
                            rel_tol=1e-13)
    assert abs(funk_eigenvalue(3)) < 1e-14   # odd degrees are annihilated
    # the whole table up to k = 4096 against P_{2m}(0) = (-1)^m C(2m, m) / 4^m,
    # rounded once from the exact fraction; the recurrence's error grows
    # linearly in k
    table = funk_eigenvalues(4096)
    assert len(table) == 4097 and not table.flags.writeable
    for k in range(4097):
        assert funk_eigenvalue(k) == table[k]
        if k % 2:
            assert table[k] == 0.0, k
        else:
            exact = (-1) ** (k // 2) * math.comb(k, k // 2) / 4 ** (k // 2)
            assert math.isclose(table[k], 2.0 * math.pi * exact,
                                rel_tol=1e-15 + 1e-16 * k), k


def test_multiplier_matches_gammaln_form():
    # math.lgamma in place of scipy's gammaln: the same log-Gamma formula
    for k in range(0, 257, 2):
        for p in (0.25, 0.5, 1.0, 1.5, 2.0, 2.75):
            sign = -1.0 if (k // 2) % 2 else 1.0
            ref = sign * math.exp(1.5 * math.log(math.pi)
                                  + (3.0 - p) * math.log(2.0)
                                  + gammaln((k + 3.0 - p) / 2.0)
                                  - gammaln((k + p) / 2.0))
            assert math.isclose(multiplier(3, k, p), ref, rel_tol=1e-12), (k, p)


def test_multiplier_table_matches_mpmath_to_k_512():
    # the table steps lambda(k+2) = -lambda(k) (k+3-p)/(k+p) from k = 0, a
    # few roundings per step; exp of the log-Gamma difference is off by
    # about 1e-13 near k = 256
    import mpmath

    with mpmath.workdps(40):
        for p in (0.25, 0.5, 1.0, 1.3, 1.5, 2.0, 2.75, 2.999):
            table, q = multiplier_table(3, 512, p), mpmath.mpf(p)
            for k in range(0, 513, 2):
                ref = (-1) ** (k // 2) * mpmath.pi ** 1.5 * 2 ** (3 - q) \
                    * mpmath.gamma((k + 3 - q) / 2) / mpmath.gamma((k + q) / 2)
                assert abs(table[k] - ref) <= (2e-15 + 4e-17 * k) * abs(ref), \
                    (k, p)
            assert not np.any(table[1::2])


def test_section_identity_lambda_at_p2():
    # lambda(3, k, 2) = pi * (2 pi P_k(0)) for even k
    for k in range(0, 66, 2):
        assert math.isclose(multiplier(3, k, 2.0),
                            math.pi * funk_eigenvalue(k), rel_tol=1e-10), k


# ----------------------------------------------------------------------------
# Degreewise transform of spectra
# ----------------------------------------------------------------------------

def test_fourier_homogeneous_involution(grid16):
    rng = np.random.default_rng(2)
    f = random_positive_even(rng, grid16, l_max=6)
    spec = analyze(f, 6)
    twice = fourier_homogeneous(fourier_homogeneous(spec, 1.2), 3.0 - 1.2)
    assert np.max(np.abs(twice.coeffs
                         - (2.0 * math.pi) ** 3 * spec.coeffs)) \
        < 1e-10 * np.max(np.abs(spec.coeffs))


def test_fourier_homogeneous_rejects_odd_content(grid16):
    f = grid_function(grid16, lambda u: 1.0 + 0.5 * u[:, 2])
    spec = analyze(f, 4)
    with pytest.raises(OutOfRange):
        fourier_homogeneous(spec, 1.0)


def test_spherical_parseval_residual_small(grid16):
    rng = np.random.default_rng(4)
    f = random_positive_even(rng, grid16, l_max=5)
    g = random_positive_even(rng, grid16, l_max=5)
    assert spherical_parseval_check(f, g, 1.3) < 1e-10


# ----------------------------------------------------------------------------
# Positive-definiteness certification
# ----------------------------------------------------------------------------

def test_certify_pd_constant_is_positive_definite(grid16):
    from radoncomp.sphere import constant_function

    cert = certify_pd_r1(constant_function(grid16, 1.0), 1.0)
    assert cert.is_positive_definite
    # transform of the constant 1 is lambda(3, 0, 1) / sqrt(4 pi) * Y_00 = 4 pi
    assert np.max(np.abs(cert.transform_data.values - 4.0 * math.pi)) < 1e-10


def test_certify_pd_zonal_threshold(grid16):
    """1 + a P_2(z): transform is 4 pi - 8 pi a P_2(z); the verdict flips from
    positive to not positive definite as a crosses 1/2 (up to the grid's
    polar-node coverage of the poles)."""
    z = grid16.nodes[:, 2]

    def f_a(a):
        return SphericalFunction(grid16, 1.0 + a * 0.5 * (3 * z * z - 1.0),
                                 parity="even")

    assert certify_pd_r1(f_a(0.3), 1.0).is_positive_definite
    cert = certify_pd_r1(f_a(0.8), 1.0)
    assert cert.verdict == "not-positive-definite"
    # witness sits at the poles, where -P_2 attains its minimum
    assert abs(cert.witness_point[2]) > 0.95


def test_certify_pd_witness_ignores_roundoff_ties(grid16):
    """For f = 1 the transform is constant; the witness stays the first node
    when f carries noise at roundoff level."""
    n = grid16.n_nodes
    noise = np.random.default_rng(5).uniform(-1e-15, 1e-15, n)
    for values in (np.ones(n), 1.0 + noise):
        cert = certify_pd_r1(SphericalFunction(grid16, values, parity="even"), 1.0)
        np.testing.assert_array_equal(cert.witness_point, grid16.nodes[0])
        assert cert.witness_value == np.min(cert.transform_data.values)


def test_certify_pd_transform_closed_form(grid16):
    z = grid16.nodes[:, 2]
    a = 0.8
    f = SphericalFunction(grid16, 1.0 + a * 0.5 * (3 * z * z - 1.0),
                          parity="even")
    cert = certify_pd_r1(f, 1.0)
    ref = 4.0 * math.pi - 8.0 * math.pi * a * 0.5 * (3 * z * z - 1.0)
    assert np.max(np.abs(cert.transform_data.values - ref)) < 1e-9


@pytest.mark.parametrize("q", [math.nan, math.inf])
def test_certify_pd_refuses_non_finite_power(grid16, q):
    # a power that is not finite leaves no transform to judge: f^q is all 0,
    # 1, inf or NaN, so it is refused, not reported "inconclusive"
    z = grid16.nodes[:, 2]
    f = SphericalFunction(grid16, 1.0 + 0.15 * (3 * z * z - 1.0), parity="even")
    with pytest.raises(OutOfRange, match="q must be finite"):
        certify_pd_r1(f, q)


@pytest.mark.parametrize("q", [1e6 - 1.0, -1e6])
def test_certify_pd_refuses_overflowing_power(grid16, q):
    # f runs over [0.85, 1.3], so f^q overflows where f > 1 (q > 0) or
    # f < 1 (q < 0): refused, not "inconclusive" with a NaN witness
    z = grid16.nodes[:, 2]
    f = SphericalFunction(grid16, 1.0 + 0.15 * (3 * z * z - 1.0), parity="even")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange, match="out of double range"):
            certify_pd_r1(f, q)


def test_certify_pd_rejects_nonpositive(grid16):
    z = grid16.nodes[:, 2]
    f = SphericalFunction(grid16, z * z)       # vanishes near the equator? no:
    # z*z > 0 on Gauss-Legendre nodes, so force an actual zero crossing
    f = SphericalFunction(grid16, z * z - 0.5)
    with pytest.raises(NotPositive):
        certify_pd_r1(f, 1.0)


def test_certificate_json_shape(grid16):
    from radoncomp.sphere import constant_function

    cert = certify_pd_r1(constant_function(grid16, 1.0), 1.0)
    d = cert.to_json_dict()
    assert set(d) == {"verdict", "witness_point", "witness_value", "tolerance"}
    assert isinstance(d["witness_point"], list) and len(d["witness_point"]) == 3
