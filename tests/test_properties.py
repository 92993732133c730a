"""Randomized invariants checked with hypothesis: spectral round trips,
multiplier duality, transform symmetries, the
elementwise erf and the catalog closed forms."""

import functools
import math

import mpmath
import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import random_even_spectrum
from radoncomp.multipliers import multiplier
from radoncomp.radon3d import (
    SeparableFunction,
    catalog_entry,
    fourier_1d,
    fourier_along_rays,
    radial_profile,
    radon_transform,
    separable_power,
    separable_radial,
    symmetric_nodes,
)
from radoncomp.sphere import (
    HarmonicSpectrum,
    SphericalFunction,
    analyze,
    build_grid,
    erf,
    evaluate_spectrum,
    synthesize,
)
from radoncomp.funk import sradon_direct, sradon_map
from radoncomp.multipliers import funk_eigenvalue

GRID = build_grid(16, 32)
GRID64 = build_grid(64, 128)      # bandwidth 63

SETTINGS = dict(deadline=None, max_examples=25)


@given(seed=st.integers(0, 2 ** 31 - 1), l_max=st.integers(0, 8))
@settings(**SETTINGS)
def test_analyze_synthesize_round_trip(seed, l_max):
    rng = np.random.default_rng(seed)
    spec = random_even_spectrum(rng, l_max)
    f = synthesize(spec, GRID, parity="even")
    back = analyze(f, l_max)
    assert np.max(np.abs(back.coeffs - spec.coeffs)) \
        < 1e-10 * max(1.0, float(np.max(np.abs(spec.coeffs))))


@given(seed=st.integers(0, 2 ** 31 - 1), l_max=st.integers(0, 63))
@settings(**SETTINGS)
def test_high_bandwidth_round_trip_and_point_evaluation(seed, l_max):
    """analyze(synthesize(a)) = a, and the point evaluator reproduces grid
    synthesis at every node, on the 64x128 grid up to its bandwidth."""
    rng = np.random.default_rng(seed)
    spec = HarmonicSpectrum(l_max, rng.standard_normal((l_max + 1) ** 2))
    f = synthesize(spec, GRID64)
    scale = max(1.0, float(np.max(np.abs(f.values))))
    assert np.max(np.abs(analyze(f, l_max).coeffs - spec.coeffs)) \
        < 1e-10 * max(1.0, float(np.max(np.abs(spec.coeffs))))
    assert np.max(np.abs(evaluate_spectrum(spec, GRID64.nodes) - f.values)) \
        < 1e-11 * scale


@given(seed=st.integers(0, 2 ** 31 - 1), n_polar=st.sampled_from([16, 32, 64]),
       data=st.data())
@settings(**SETTINGS)
def test_parseval(seed, n_polar, data):
    """The grid quadrature of |f|^2 equals the sum of squared coefficients for
    a random spectrum of any degree up to the bandwidth, on each grid size
    the benchmark uses (|f|^2 then has degree <= 2L, which the grid
    integrates exactly)."""
    grid = build_grid(n_polar, 2 * n_polar)
    l_max = data.draw(st.integers(0, grid.bandwidth), label="l_max")
    coeffs = np.random.default_rng(seed).standard_normal((l_max + 1) ** 2)
    f = synthesize(HarmonicSpectrum(l_max, coeffs), grid)
    energy = float(coeffs @ coeffs)
    assert abs(float(grid.weights @ f.values ** 2) - energy) <= 1e-12 * energy


@given(seed=st.integers(0, 2 ** 31 - 1), k=st.integers(0, 31).map(lambda i: 2 * i))
@settings(**SETTINGS)
def test_funk_eigenvalue_identity(seed, k):
    """A degree-k function is an eigenfunction of the great-circle transform
    with eigenvalue 2 pi P_k(0), through analysis and synthesis on the grid
    and through direct circle quadrature of the point evaluator."""
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(64 ** 2)
    coeffs[k * k:(k + 1) ** 2] = rng.standard_normal(2 * k + 1)
    spec = HarmonicSpectrum(63, coeffs)
    f = SphericalFunction(GRID64, synthesize(spec, GRID64).values)
    lam = funk_eigenvalue(k)
    scale = float(np.max(np.abs(f.values)))
    assert np.max(np.abs(sradon_map(f).values - lam * f.values)) < 1e-10 * scale
    xi = rng.standard_normal(3)
    xi /= np.linalg.norm(xi)
    direct = sradon_direct(f, xi)
    assert abs(direct - lam * float(evaluate_spectrum(spec, xi[None, :])[0])) \
        < 1e-10 * scale


@given(k=st.integers(0, 40).map(lambda i: 2 * i),
       p=st.floats(0.1, 2.9, allow_nan=False))
@settings(**SETTINGS)
def test_multiplier_duality_property(k, p):
    prod = multiplier(3, k, p) * multiplier(3, k, 3.0 - p)
    assert math.isclose(prod, (2.0 * math.pi) ** 3, rel_tol=1e-9)


@given(seed=st.integers(0, 2 ** 31 - 1))
@settings(**SETTINGS)
def test_sinogram_even_and_mass_preserving(seed):
    """For a random positive mixture of Gaussians the sinogram row is even in
    t and each row integrates to the full spatial integral of f."""
    rng = np.random.default_rng(seed)
    amps = rng.uniform(0.2, 1.0, size=3)
    widths = rng.uniform(0.7, 1.5, size=3)

    def radial(r):
        r = np.asarray(r, float)
        return sum(a * np.exp(-(r / w) ** 2) for a, w in zip(amps, widths))

    def fr(r):
        r = np.asarray(r, float)
        return sum(a * math.pi ** 1.5 * w ** 3 * np.exp(-(w * r) ** 2 / 4.0)
                   for a, w in zip(amps, widths))

    f = separable_radial(radial, GRID, fourier_radial=fr)
    sino = radon_transform(f)
    assert sino.evenness_residual() < 1e-9
    mass_ref = sum(a * (math.pi * w * w) ** 1.5 for a, w in zip(amps, widths))
    masses = sino.masses()
    assert np.max(np.abs(masses - mass_ref)) < 1e-8 * mass_ref


@given(seed=st.integers(0, 2 ** 31 - 1), l_max=st.integers(0, 6))
@settings(**SETTINGS)
def test_spherical_transform_parity(seed, l_max):
    """The great-circle transform of any function is even, and only the even
    part of the input contributes."""
    rng = np.random.default_rng(seed)
    vals = 1.0 + 0.3 * np.tanh(GRID.nodes @ rng.standard_normal(3))
    from radoncomp.sphere import SphericalFunction

    f = SphericalFunction(GRID, vals)
    even = SphericalFunction(GRID, 0.5 * (vals + vals[GRID.antipode]),
                             parity="even")
    rf, reven = sradon_map(f), sradon_map(even)
    assert rf.antipodal_residual() < 1e-10
    assert np.max(np.abs(rf.values - reven.values)) \
        < 1e-10 * max(1.0, float(np.max(np.abs(rf.values))))


def _p2_axis_sinogram(nu):
    """R f for f = e^{-r^2} P_2(<x/|x|, nu>), and P_2(<xi, nu>) at its
    directions xi."""
    def p2(c):
        return 1.5 * c * c - 0.5

    ang = SphericalFunction(GRID, p2(GRID.nodes @ nu), parity="even")
    f = SeparableFunction([(radial_profile(lambda r: np.exp(-r * r)), ang)])
    sino = radon_transform(f)
    return sino.values, p2(sino.directions @ nu)


@functools.lru_cache(maxsize=1)
def _p2_polar_profile():
    values, a = _p2_axis_sinogram(np.array([0.0, 0.0, 1.0]))
    return (a @ values) / (a @ a)


@given(seed=st.integers(0, 2 ** 31 - 1))
@settings(**SETTINGS)
def test_radon_rotation_equivariance(seed):
    """Rotating the axis of f = u(r) P_2(<theta, nu>) rotates its sinogram:
    every row is P_2(<xi, nu>) g(t), with one g for every axis nu."""
    nu = np.random.default_rng(seed).standard_normal(3)
    values, a = _p2_axis_sinogram(nu / np.linalg.norm(nu))
    g = _p2_polar_profile()
    scale = float(np.max(np.abs(g)))
    assert np.max(np.abs(values - np.outer(a, g))) < 1e-10 * scale


def _two_term(A, a, c, k, nu):
    """A e^{-a r^2} + c r^2 e^{-k r^2} P_2(<x/|x|, nu>) as two one-row terms."""
    one = SphericalFunction(GRID, np.ones(GRID.n_nodes), parity="even")
    p2 = SphericalFunction(GRID, c * (1.5 * (GRID.nodes @ nu) ** 2 - 0.5),
                           parity="even")
    return SeparableFunction([
        (radial_profile(lambda r: A * np.exp(-a * r * r)), one),
        (radial_profile(lambda r: r * r * np.exp(-k * r * r)), p2)])


def _slice_gap(f):
    """Largest |1D transform of a sinogram row - f^ along its ray| over the
    hemisphere directions and omega in [0, 8], and the largest |f^| there."""
    sino = radon_transform(f)
    omega = fourier_1d(sino.values[0], sino.dt)[0]
    keep = (omega >= 0.0) & (omega <= 8.0)
    rows = np.array([fourier_1d(row, sino.dt)[1][keep] for row in sino.values])
    ray = fourier_along_rays(f, sino.directions, omega[keep])
    return float(np.max(np.abs(rows - ray))), float(np.max(np.abs(ray)))


@given(seed=st.integers(0, 2 ** 31 - 1))
@settings(deadline=None, max_examples=10)
def test_fourier_slice(seed):
    """The 1D transform in t of R f(t, theta) is f^(omega theta), for input
    terms (one row each) and for a fitted function (one block of many rows)."""
    rng = np.random.default_rng(seed)
    A, a = rng.uniform(0.5, 2.0), rng.uniform(0.8, 1.2)
    k, c = 1.2 * a, A * a * rng.uniform(0.2, 0.6)
    nu = rng.standard_normal(3)
    f = _two_term(A, a, c, k, nu / np.linalg.norm(nu))
    gap, scale = _slice_gap(f)
    assert gap <= 1e-8 * scale
    gap, scale = _slice_gap(separable_power(f, 2.0))
    assert gap <= 1e-5 * scale


@given(r=st.lists(st.floats(0.0, 60.0, allow_subnormal=False),
                  min_size=1, max_size=16))
@settings(**SETTINGS)
def test_erf_matches_mpmath(r):
    """The elementwise erf, and the catalog closed forms built on it: the
    erf-type radial function 2 pi erf(r/2) / r and the gauss-r2 transform
    2 pi^2 erf(r/2) / r, against 30-digit references.  Subnormal r are not
    drawn: r / 2 then drops bits before erf sees it."""
    r = np.array(r)
    mpmath.mp.dps = 30
    ref = lambda c, x: float(c * mpmath.erf(mpmath.mpf(x) / 2) / mpmath.mpf(x)) \
        if x > 1e-300 else float(c / mpmath.sqrt(mpmath.pi))
    assert np.allclose(erf(r), [float(mpmath.erf(x)) for x in r],
                       rtol=4.5e-16, atol=0.0)
    u = catalog_entry("erf-type", GRID).f.blocks[0].profile
    assert np.allclose(u(r), [ref(2 * mpmath.pi, x) for x in r],
                       rtol=1e-15, atol=0.0)
    fhat = catalog_entry("gauss-r2", GRID).f.fourier_radial
    assert np.allclose(fhat(r), [ref(2 * mpmath.pi ** 2, x) for x in r],
                       rtol=1e-15, atol=0.0)


# Largest relative error of the 1D transform of m = 8 pi^2 h on the nodes
# (n nodes on [-R, R), spacing dt): the Gaussian is resolved to roundoff; the
# kink of e^{-|r|} at 0 costs about dt^2 / 7 and its truncation e^{-R}; the
# truncated tail of 1 / (1 + r^2) has mass about 2 / R against pi.
CATALOG_TRANSFORM_ERROR = {
    "erf-type": lambda R, dt: 1e-14,
    "exp-ell": lambda R, dt: dt * dt / 4.0 + 2.0 * math.exp(-R),
    "cauchy-ell": lambda R, dt: 1.0 / R,
}


@given(name=st.sampled_from(sorted(CATALOG_TRANSFORM_ERROR)),
       r_max=st.floats(6.0, 64.0), n=st.sampled_from([1024, 2048, 4096]))
@settings(**SETTINGS)
def test_catalog_ray_profile_transforms(name, r_max, n):
    """fourier_1d of m = 8 pi^2 h on the entry's nodes matches the entry's
    closed-form transform of m."""
    entry = catalog_entry(name, GRID, r_max=r_max, n=n)
    t, dt = symmetric_nodes(n, r_max), 2.0 * r_max / n
    omega, mhat = fourier_1d(8.0 * math.pi ** 2 * entry.h_eval(t), dt)
    ref = entry.mhat_eval(omega)
    assert np.max(np.abs(mhat - ref)) \
        <= CATALOG_TRANSFORM_ERROR[name](r_max, dt) * np.max(np.abs(ref))
