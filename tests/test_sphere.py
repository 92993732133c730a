"""Harmonic analysis on S^2: grid construction, analysis/synthesis round
trips, off-grid evaluation, norms, and the reverse Hoelder check."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import eval_legendre, sph_harm_y

from conftest import random_even_spectrum
from radoncomp import sphere
from radoncomp.errors import (
    BandwidthExceeded,
    InvalidGrid,
    OutOfRange,
)
from radoncomp.sphere import (
    FOUR_PI,
    HarmonicSpectrum,
    SphericalFunction,
    analyze,
    analyze_rows,
    build_grid,
    constant_function,
    degree_values_rows,
    evaluate_spectrum,
    first_minimum,
    gauss_legendre,
    grid_function,
    legendre,
    lp_norm_sphere,
    normalized_legendre_table,
    synthesize,
)


# ----------------------------------------------------------------------------
# Grid
# ----------------------------------------------------------------------------

def test_grid_weights_sum_to_sphere_area(grid16):
    assert math.isclose(float(np.sum(grid16.weights)), FOUR_PI, rel_tol=1e-14)


def test_grid_shapes_and_bandwidth(grid16):
    assert grid16.n_nodes == 16 * 32
    assert grid16.nodes.shape == (512, 3)
    # exact analysis degree: limited by both polar and azimuthal resolution
    assert grid16.bandwidth == min(16 - 1, 32 // 2 - 1) == 15


def test_grid_nodes_are_unit_vectors(grid16):
    norms = np.linalg.norm(grid16.nodes, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-14


def test_grid_antipode_map_is_exact(grid16):
    assert np.max(np.abs(grid16.nodes + grid16.nodes[grid16.antipode])) < 1e-14
    # involution
    assert np.array_equal(grid16.antipode[grid16.antipode],
                          np.arange(grid16.n_nodes))


def test_grid_is_cached():
    assert build_grid(16, 32) is build_grid(16, 32)


def test_first_minimum_takes_first_tied_node():
    values = np.array([3.0, 1.0 + 1e-12, 1.0, 2.0, 1.0])
    assert first_minimum(values, 1e-9) == 1
    assert first_minimum(values, 0.0) == 2
    assert first_minimum(-values, 1e-9) == 0


def test_invalid_grid_rejected():
    with pytest.raises(InvalidGrid):
        build_grid(1, 32)
    with pytest.raises(InvalidGrid):
        build_grid(8, 7)   # odd azimuth count breaks the antipode map
    with pytest.raises(InvalidGrid):
        build_grid(8, 2)


def test_quadrature_exact_on_polynomial(grid16):
    # integral over S^2 of z^2 is 4 pi / 3; of x*y is 0
    z2 = float(grid16.weights @ grid16.nodes[:, 2] ** 2)
    xy = float(grid16.weights @ (grid16.nodes[:, 0] * grid16.nodes[:, 1]))
    assert math.isclose(z2, FOUR_PI / 3.0, rel_tol=1e-13)
    assert abs(xy) < 1e-14


# ----------------------------------------------------------------------------
# Gauss-Legendre rule vs a 40-digit reference
# ----------------------------------------------------------------------------

RULE_SIZES = [1, 2, 3, 16, 17, 64, 401, 2048]


def _reference_node(n, x0):
    """At 40 digits: one Newton step on the recurrence from x0, and the
    weight 2 / ((1 - x^2) P_n'(x)^2) at the refined root."""
    def legendre(x):
        older, p = mpmath.mpf(1), x
        for k in range(1, n):
            older, p = p, ((2 * k + 1) * x * p - k * older) / (k + 1)
        return p, n * (older - x * p) / (1 - x * x)

    with mpmath.workdps(40):
        x = mpmath.mpf(x0)
        p, dp = legendre(x)
        x -= p / dp
        return x, 2 / ((1 - x * x) * legendre(x)[1] ** 2)


@pytest.mark.parametrize("n", RULE_SIZES)
def test_gauss_legendre_matches_reference(n):
    """Every node in [0, 1) (the rule is checked antisymmetric below), and at
    n = 2048 the four outermost and the two central ones: within 2e-16 of a
    root of P_n, weight within 1e-10 relative.  With the strict order checked
    below, n distinct roots are all the roots, in order."""
    x, w = gauss_legendre(n)
    assert x.shape == w.shape == (n,)
    half = range(n // 2, n)
    for i in half if n <= 401 else [n // 2, n - 4, n - 3, n - 2, n - 1]:
        ref_x, ref_w = _reference_node(n, x[i])
        assert abs(float(ref_x - x[i])) <= 2e-16, (n, i)
        assert abs(float((ref_w - w[i]) / ref_w)) <= 1e-10, (n, i)


@pytest.mark.parametrize("n", sorted(set(RULE_SIZES) | set(range(4, 40))))
def test_gauss_legendre_ascending_antisymmetric_weights_sum_to_two(n):
    x, w = gauss_legendre(n)
    assert np.all(np.diff(x) > 0.0) and x[0] > -1.0 and x[-1] < 1.0
    np.testing.assert_array_equal(x, -x[::-1])
    np.testing.assert_array_equal(w, w[::-1])
    assert np.all(w > 0.0)
    assert abs(math.fsum(w) - 2.0) <= 4e-16


def test_gauss_legendre_exact_on_chebyshev_polynomials():
    """n = 2048 integrates T_m, m <= 2n - 1 = 4095, to 1e-13 (leggauss: 4e-13).

    Rounding the nodes to float64 alone moves the sum by up to 2.3e-14 near
    m = 4095, and cos(m arccos x) adds its own rounding, so 1e-13 is the
    bound that rounding leaves room for."""
    x, w = gauss_legendre(2048)
    theta = np.arccos(x)
    m = np.arange(4096)
    exact = np.zeros(m.size)
    exact[::2] = 2.0 / (1.0 - m[::2] ** 2.0)
    for block in np.split(m, 8):
        quad = np.cos(np.outer(block, theta)) @ w
        assert np.max(np.abs(quad - exact[block])) <= 1e-13, block[0]


def test_gauss_legendre_rejects_empty_rule():
    with pytest.raises(ValueError):
        gauss_legendre(0)


# ----------------------------------------------------------------------------
# Normalized Legendre table vs scipy oracle
# ----------------------------------------------------------------------------

def test_normalized_legendre_matches_scipy():
    x = np.linspace(-0.99, 0.99, 7)
    q = normalized_legendre_table(60, x)
    theta = np.arccos(x)
    for k in range(61):
        for m in range(0, k + 1):
            # scipy's spherical harmonic at phi=0 gives
            # (-1)^m-free normalized associated Legendre up to the CS phase
            ref = sph_harm_y(k, m, theta, 0.0).real * (-1.0) ** m
            assert np.max(np.abs(q[m, k] - ref)) < 1e-12, (k, m)


def test_legendre_matches_scipy():
    """P_k for k = 0..256 on [-1, 1], endpoints and 0 included: one pass for
    an array of degrees, row by row for one degree, point by point for
    scalars.  The recurrence's error grows linearly in k."""
    x = np.r_[-1.0, np.linspace(-0.999, 0.999, 41), 0.0, 1.0]
    k = np.arange(257)
    rows = legendre(k[:, None], x)
    assert rows.shape == (257, len(x))
    err = np.max(np.abs(rows - eval_legendre(k[:, None], x)), axis=1)
    assert np.all(err <= 1e-14 * (k + 1)), int(np.argmax(err / (k + 1)))
    assert np.array_equal(rows[:, -1], np.ones(257))            # P_k(1) = 1
    assert np.array_equal(rows[:, 0], (-1.0) ** k)              # P_k(-1)
    assert np.array_equal(rows[1::2, -2], np.zeros(128))        # odd P_k(0)
    assert legendre(k[:0, None], x).shape == (0, len(x))       # no degrees
    for deg in (0, 1, 2, 7, 64, 256):
        assert np.array_equal(legendre(deg, x), rows[deg])
        for j in (0, 10, 21, 42, 43):
            value = legendre(deg, float(x[j]))
            assert np.ndim(value) == 0 and value == rows[deg, j]


def _frozen_legendre(n, x):
    """sphere.legendre as it was before its rows were updated in place: a
    fresh array per step, run from k = 1 with P_{-1} = 0.  Frozen as an
    oracle for its bits, on which gauss_legendre and exprlang rest."""
    x = np.asarray(x, dtype=np.result_type(x, 1.0))
    n = np.asarray(n)
    wanted = set(n.ravel().tolist())
    out = np.ones(np.broadcast_shapes(n.shape, x.shape), dtype=x.dtype)
    older, p = np.zeros_like(x), np.ones_like(x)
    for k in range(1, max(wanted, default=0) + 1):
        older, p = p, ((2 * k - 1) * (x * p) - (k - 1) * older) / k
        if k in wanted:
            np.copyto(out, p, where=n == k)
    return out[()]


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_legendre_keeps_the_frozen_bits(dtype):
    """Bit for bit (NaN and the sign of zero included) against the frozen
    recurrence: scalar and array degrees, scalar and array x, at +-1, +-0,
    |x| > 1 (overflowing for n = 1000), NaN and points inside."""
    x = np.array([-1.0, 1.0, 0.0, -0.0, 1.5, -3.0, 40.0, np.nan, 0.3, -0.7],
                 dtype=dtype)
    degrees = [0, 1, 2, 3, 64, 1000]

    def same(got, want):
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).dtype == np.asarray(want).dtype == dtype
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    with np.errstate(all="ignore"):
        for n in degrees:
            same(legendre(n, x), _frozen_legendre(n, x))
            for v in x:
                same(legendre(n, v), _frozen_legendre(n, v))
        for n in (np.array(degrees)[:, None], np.array(degrees[::-1])):
            xs = x if n.ndim == 2 else x[:len(degrees)]
            same(legendre(n, xs), _frozen_legendre(n, xs))
            same(legendre(n, x[3]), _frozen_legendre(n, x[3]))


def test_basis_orthonormality(grid16):
    """Quadrature Gram matrix of the basis is the identity up to bandwidth."""
    l_max = 8
    nb = (l_max + 1) ** 2
    B = np.empty((nb, grid16.n_nodes))
    for j in range(nb):
        unit = np.zeros(nb)
        unit[j] = 1.0
        B[j] = synthesize(HarmonicSpectrum(l_max, unit), grid16).values
    gram = (B * grid16.weights) @ B.T
    assert np.max(np.abs(gram - np.eye(nb))) < 1e-12


# ----------------------------------------------------------------------------
# Analysis / synthesis
# ----------------------------------------------------------------------------

def test_round_trip_band_limited(grid16):
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal((grid16.bandwidth + 1) ** 2)
    spec = HarmonicSpectrum(grid16.bandwidth, coeffs)
    f = synthesize(spec, grid16)
    back = analyze(f, grid16.bandwidth)
    assert np.max(np.abs(back.coeffs - coeffs)) < 1e-11


def test_analyze_constant(grid16):
    f = constant_function(grid16, 3.0)
    spec = analyze(f, 4)
    # only the degree-0 coefficient survives: 3 * sqrt(4 pi)
    assert math.isclose(spec.coeff(0, 0), 3.0 * math.sqrt(FOUR_PI),
                        rel_tol=1e-14)
    assert np.max(np.abs(spec.coeffs[1:])) < 1e-13


def test_bandwidth_exceeded_raises(grid16):
    f = constant_function(grid16, 1.0)
    with pytest.raises(BandwidthExceeded):
        analyze(f, grid16.bandwidth + 1)


def test_evaluate_spectrum_matches_synthesis(grid16):
    rng = np.random.default_rng(11)
    spec = HarmonicSpectrum(6, rng.standard_normal(49))
    on_grid = synthesize(spec, grid16).values
    off = evaluate_spectrum(spec, grid16.nodes)
    assert np.max(np.abs(on_grid - off)) < 1e-12


def _real_basis(l_max, pts):
    """Rows Y_j at the points, from scipy's complex harmonics (independent of
    the package's Legendre table and block layout)."""
    theta = np.arccos(np.clip(pts[:, 2], -1.0, 1.0))
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    rows = []
    for k in range(l_max + 1):
        block = {}
        for m in range(k + 1):
            y = sph_harm_y(k, m, theta, phi) * (-1.0) ** m   # drop CS phase
            block[m] = y.real if m == 0 else math.sqrt(2.0) * y.real
            if m:
                block[-m] = math.sqrt(2.0) * y.imag
        rows.extend(block[m] for m in range(-k, k + 1))
    return np.array(rows)


def test_evaluate_spectrum_matches_real_basis():
    rng = np.random.default_rng(24)
    spec = HarmonicSpectrum(24, rng.standard_normal(625))
    pts = rng.standard_normal((200, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    ref = spec.coeffs @ _real_basis(24, pts)
    assert np.max(np.abs(evaluate_spectrum(spec, pts) - ref)) < 1e-12


def test_analyze_rows_matches_analyze(grid16):
    rng = np.random.default_rng(9)
    values = rng.standard_normal((grid16.n_nodes, 5))
    rows = analyze_rows(grid16, values, 10)
    assert rows.shape == (121, 5)
    for c in range(5):
        one = analyze(SphericalFunction(grid16, values[:, c]), 10).coeffs
        assert np.max(np.abs(rows[:, c] - one)) < 1e-14


@pytest.mark.parametrize("L", [15, 31, 63])
def test_analyze_rows_matches_direct_quadrature(L):
    """analyze_rows against the quadrature sums sum_nodes w f Y_j, with Y_j
    from evaluate_spectrum of single modes: one and three columns, at the
    grid's bandwidth and below it (a slice of the grid's table)."""
    grid = build_grid(L + 1, 2 * L + 2)
    rng = np.random.default_rng(L)
    values = rng.standard_normal((grid.n_nodes, 3))
    for l_max in (L, L // 2):
        nb = (l_max + 1) ** 2
        modes = sorted({0, l_max * l_max, nb - 1,
                        *rng.choice(nb, 6, replace=False).tolist()})
        basis = np.array([evaluate_spectrum(
            HarmonicSpectrum.mode(math.isqrt(j), j), grid.nodes) for j in modes])
        direct = (basis * grid.weights) @ values
        scale = np.max(np.abs(direct))
        got = analyze_rows(grid, values, l_max)[modes]
        assert np.max(np.abs(got - direct)) <= 1e-13 * scale, l_max
        got = analyze_rows(grid, values[:, 0], l_max)[modes]
        assert np.max(np.abs(got - direct[:, 0])) <= 1e-13 * scale, l_max


def test_round_trip_at_bandwidth_127():
    grid = build_grid(128, 256)
    coeffs = np.random.default_rng(127).standard_normal(128 ** 2)
    back = analyze(synthesize(HarmonicSpectrum(127, coeffs), grid))
    assert back.l_max == 127
    assert np.max(np.abs(back.coeffs - coeffs)) < 1e-12


def test_one_legendre_table_per_grid(grid16):
    # lower degree caps slice the grid's one cached table
    sphere._grid_tables.cache_clear()
    f = SphericalFunction(grid16, np.random.default_rng(3).standard_normal(
        grid16.n_nodes))
    analyze(f, 14)
    analyze(f, 15)
    assert sphere._grid_tables.cache_info().currsize == 1
    assert np.array_equal(sphere._tables(grid16, 14)[0],
                          normalized_legendre_table(14, grid16.x))


def test_evaluate_spectrum_legendre_axis():
    # degree-k zonal harmonic evaluated along z equals its closed form
    k = 6
    nb = (k + 1) ** 2
    unit = np.zeros(nb)
    unit[k * k + k] = 1.0
    spec = HarmonicSpectrum(k, unit)
    z = np.linspace(-1.0, 1.0, 9)
    pts = np.stack([np.sqrt(1 - z * z), np.zeros_like(z), z], axis=1)
    ref = math.sqrt((2 * k + 1) / FOUR_PI) * eval_legendre(k, z)
    assert np.max(np.abs(evaluate_spectrum(spec, pts) - ref)) < 1e-12


# ----------------------------------------------------------------------------
# Spectrum helpers
# ----------------------------------------------------------------------------

def test_flat_index_layout():
    spec = HarmonicSpectrum(3, np.arange(16.0))
    assert spec.coeff(0, 0) == 0.0
    assert spec.coeff(1, -1) == 1.0
    assert spec.coeff(1, 0) == 2.0
    assert spec.coeff(1, 1) == 3.0
    assert spec.coeff(3, -3) == 9.0


def test_degrees_per_coefficient():
    spec = HarmonicSpectrum(2, np.zeros(9))
    assert list(spec.degrees()) == [0, 1, 1, 1, 2, 2, 2, 2, 2]


def test_even_part_residual():
    rng = np.random.default_rng(3)
    even = random_even_spectrum(rng, 5)
    assert even.even_part_residual() == 0.0
    coeffs = np.zeros(36)
    coeffs[0] = 1.0
    coeffs[2] = 0.5       # degree-1 content
    assert math.isclose(HarmonicSpectrum(5, coeffs).even_part_residual(), 0.5)


def test_degree_values_sum_to_spectrum():
    rng = np.random.default_rng(5)
    spec = HarmonicSpectrum(6, rng.standard_normal(49))
    pts = rng.standard_normal((40, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    rows = degree_values_rows(spec.coeffs, pts)
    assert rows.shape == (7, 40)
    assert np.max(np.abs(rows.sum(axis=0) - evaluate_spectrum(spec, pts))) < 1e-13
    basis = _real_basis(6, pts)
    for k in range(7):
        block = spec.degrees() == k
        assert np.max(np.abs(rows[k] - spec.coeffs[block] @ basis[block])) < 1e-13
    even = spec.even_part()
    assert np.array_equal(even.coeffs[spec.degrees() % 2 == 0],
                          spec.coeffs[spec.degrees() % 2 == 0])
    assert even.even_part_residual() == 0.0


def test_mode_round_trip(grid16):
    l_max = 6
    unit = np.eye((l_max + 1) ** 2)
    for j in range((l_max + 1) ** 2):
        mode = synthesize(HarmonicSpectrum.mode(l_max, j), grid16)
        got = analyze(mode, l_max).coeffs
        assert np.max(np.abs(got - unit[j])) < 1e-13, j


def test_live_modes_skip_negligible():
    coeffs = np.zeros(36)
    coeffs[0] = 1.0        # degree 0
    coeffs[2] = 0.5        # degree 1
    coeffs[5] = 1e-15      # degree 2, below 1e-14 of the largest
    coeffs[20] = -0.3      # degree 4
    coeffs[30] = 1e-3      # degree 5
    spec = HarmonicSpectrum(5, coeffs)
    assert spec.live_modes() == [0, 2, 20, 30]


def test_antipodal_residual_even_vs_odd(grid16):
    even = grid_function(grid16, lambda u: u[:, 2] ** 2)
    odd = grid_function(grid16, lambda u: u[:, 2])
    assert even.antipodal_residual() < 1e-14
    assert odd.antipodal_residual() > 1.0


# ----------------------------------------------------------------------------
# Norms, reverse Hoelder
# ----------------------------------------------------------------------------

def test_lp_norm_constant(grid16):
    f = constant_function(grid16, 2.0)
    for p in (0.5, 1.0, 2.0, 3.0):
        assert math.isclose(lp_norm_sphere(f, p), 2.0 * FOUR_PI ** (1.0 / p),
                            rel_tol=1e-13)


def test_lp_norm_rejects_nonpositive_p(grid16):
    # the exponent error of lp_norm_rn
    with pytest.raises(OutOfRange):
        lp_norm_sphere(constant_function(grid16, 1.0), 0.0)


def test_lp_norm_root_out_of_double_range_refused(grid16):
    # (4 pi)^(1/p) overflows at p = 1e-300: it raised a raw OverflowError
    with pytest.raises(OutOfRange, match="out of double range"):
        lp_norm_sphere(constant_function(grid16, 0.5), 1e-300)


def test_lp_norm_monotone_in_p_on_probability_scale(grid16):
    # on a probability space, ||f||_p is nondecreasing in p; rescale weights
    rng = np.random.default_rng(5)
    vals = 1.0 + 0.5 * rng.random(grid16.n_nodes)
    f = SphericalFunction(grid16, vals)
    norms = [lp_norm_sphere(f, p) * FOUR_PI ** (-1.0 / p)
             for p in (0.5, 1.0, 2.0, 4.0)]
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))
