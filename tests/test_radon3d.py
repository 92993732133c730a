"""Classical Radon transform on R^3, Fourier-slice machinery, certification,
and the worked-example catalog.

Closed-form oracles used throughout:
  * R[e^{-|x|^2}](t) = pi e^{-t^2}
  * (e^{-|x|^2})^(xi) = pi^{3/2} e^{-|xi|^2/4}
  * 1D transform of e^{-t^2} is sqrt(pi) e^{-omega^2/4}
  * plane sections of the unit ball have area pi (1 - t^2)
  * the ray profile of the Gaussian is m(r) = pi^{3/2} r^2 e^{-r^2/4} with 1D
    transform pi^{3/2} * 2 sqrt(pi) (2 - 4 omega^2) e^{-omega^2}
"""

import math
import tracemalloc

import jsonschema
import numpy as np
import pytest

from radoncomp import radon3d
from radoncomp.errors import (
    CertificateRequired,
    DecayTooSlow,
    GridTooCoarse,
    InputInvalid,
)
from radoncomp.radon3d import (
    CATALOG_NAMES,
    RELATION_CONSTANT,
    RadialProfile,
    SeparableFunction,
    _cumulative_simpson,
    _degree_plane_integral,
    catalog_entry,
    certify_intersection_function,
    classification_witness,
    cubic_spline,
    erfc,
    fourier_1d,
    fourier_along_rays,
    hemisphere_indices,
    mollified_ball,
    radial_profile,
    radon_direct_point,
    radon_transform,
    ray_profile_samples,
    separable_power,
    separable_radial,
    spherical_jn,
    symmetric_nodes,
)
from radoncomp.reports import validate_report
from radoncomp.sphere import SphericalFunction, build_grid
from scipy.special import erf, eval_legendre


def gaussian(grid=None, closed_form=True):
    fr = (lambda r: math.pi ** 1.5 * np.exp(-np.asarray(r, float) ** 2 / 4.0)) \
        if closed_form else None
    return separable_radial(lambda r: np.exp(-np.asarray(r, float) ** 2),
                            grid, fourier_radial=fr, name="gaussian")


# ----------------------------------------------------------------------------
# 1D grid and transforms
# ----------------------------------------------------------------------------

def test_symmetric_nodes_contain_zero():
    t = symmetric_nodes(2048, 16.0)
    assert t[1024] == 0.0
    assert math.isclose(t[1] - t[0], 32.0 / 2048)
    assert t[0] == -16.0 and t[-1] < 16.0


def test_fourier_1d_gaussian_closed_form():
    t = symmetric_nodes()
    omega, spec = fourier_1d(np.exp(-t * t), t[1] - t[0])
    ref = math.sqrt(math.pi) * np.exp(-omega * omega / 4.0)
    assert np.max(np.abs(spec - ref)) < 1e-12


# ----------------------------------------------------------------------------
# NumPy splines, cumulative Simpson, j_k and erfc against SciPy and mpmath
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("n", [4, 5, 6, 7, 64, 1025, 4096])
@pytest.mark.parametrize("rows", [1, 3, 40])
def test_cubic_spline_matches_scipy(n, rows):
    from scipy.interpolate import CubicSpline

    rng = np.random.default_rng(n * 100 + rows)
    y = rng.standard_normal((rows, n))
    for x in (np.linspace(-16.0, 16.0, n),                 # uniform
              np.cumsum(rng.uniform(0.5, 1.5, n))):        # unequal cells
        xq = np.concatenate([x, rng.uniform(x[0], x[-1], 300)])
        got, want = cubic_spline(x, y), CubicSpline(x, y, axis=-1)
        for nu in (0, 1):
            scale = np.max(np.abs(want(xq, nu)))
            assert np.max(np.abs(got(xq, nu) - want(xq, nu))) <= 1e-13 * scale
        assert got(xq[:5]).shape == (rows, 5)
    # one row given as a 1D array evaluates to xq's own shape
    assert cubic_spline(x, y[0])(xq[-300:].reshape(2, 150)).shape == (2, 150)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 2048, 2049])
def test_cumulative_simpson_bit_equal_to_scipy(n):
    from scipy.integrate import cumulative_simpson

    rng = np.random.default_rng(n)
    x = symmetric_nodes(n, 16.0)
    y = rng.standard_normal((2, n))
    assert np.array_equal(_cumulative_simpson(x, y),
                          cumulative_simpson(y, x=x, axis=-1, initial=0.0))


def test_spherical_jn_matches_scipy_on_0_300():
    from scipy.special import spherical_jn as scipy_jn

    x = np.linspace(0.0, 300.0, 120001)
    for k in range(13):
        got, want = spherical_jn(k, x), scipy_jn(k, x)
        # x > k: SciPy's own recurrence; x <= k: its Bessel-J call is the
        # less accurate side (see the mpmath check below)
        assert np.max(np.abs(got - want)[x > k], initial=0.0) <= 1e-15, k
        assert np.max(np.abs(got - want)) <= 3e-15, k
        assert got[0] == (1.0 if k == 0 else 0.0)
    assert spherical_jn(2, np.ones((3, 4))).shape == (3, 4)


def test_spherical_jn_matches_mpmath_near_x_equals_k():
    import mpmath

    with mpmath.workdps(40):
        for k in range(1, 13):
            x = np.linspace(max(k - 3.0, 0.05), k + 0.5, 41)
            ref = np.array([float(mpmath.sqrt(mpmath.pi / (2 * mpmath.mpf(v)))
                                  * mpmath.besselj(k + 0.5, mpmath.mpf(v)))
                            for v in x])
            assert np.max(np.abs(spherical_jn(k, x) - ref)) <= 6e-16, k


def test_erfc_is_math_erfc_elementwise():
    x = np.linspace(-6.0, 30.0, 1001).reshape(7, -1)
    assert np.array_equal(erfc(x), np.vectorize(math.erfc)(x))
    assert erfc(x).dtype == float


# ----------------------------------------------------------------------------
# Profiles and separable functions
# ----------------------------------------------------------------------------

def test_radial_profile_interpolation_and_tags():
    prof = RadialProfile(np.exp(-np.linspace(0, 16, 512) ** 2), 16.0)
    r = np.array([0.0, 0.5, 1.3, 20.0])
    assert np.max(np.abs(prof(r) - np.array(
        [1.0, math.exp(-0.25), math.exp(-1.69), 0.0]))) < 1e-6
    with pytest.raises(InputInvalid):
        RadialProfile(np.zeros(4), 1.0, decay="exponential")


def test_multi_row_profile_matches_its_rows():
    # q rows on one grid share one spline and evaluate as the rows alone do;
    # an evaluator stands for a single row
    r = np.linspace(0.0, 16.0, 512)
    rows = np.stack([np.exp(-r * r), r * r * np.exp(-r * r)])
    x = np.array([0.0, 0.3, 2.5, 20.0])
    for u, got in zip(rows, RadialProfile(rows, 16.0, "algebraic")(x)):
        assert np.array_equal(got, RadialProfile(u, 16.0, "algebraic")(x))
    with pytest.raises(InputInvalid):
        RadialProfile(rows, 16.0, evaluator=lambda r: r)


def test_separable_function_point_evaluation(grid16):
    f = gaussian(grid16)
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    ref = np.exp(-np.sum(pts ** 2, axis=1))
    assert np.max(np.abs(f(pts) - ref)) < 1e-9
    assert f.is_radial


def test_separable_function_rejects_odd_angular(grid16):
    ang = SphericalFunction(grid16, grid16.nodes[:, 2].copy())
    prof = RadialProfile(np.exp(-np.linspace(0, 16, 64)), 16.0)
    with pytest.raises(InputInvalid):
        SeparableFunction([(prof, ang)])


def test_terms_with_different_r_max_refused(grid16):
    # lp_norm_rn and min_on_sample_grid integrate up to the function's r_max;
    # terms sampled to different radii would make that depend on term order
    one = SphericalFunction(grid16, np.ones(grid16.n_nodes), parity="even")
    near = radial_profile(lambda r: np.exp(-r * r), r_max=8.0, n=1024)
    far = radial_profile(lambda r: np.exp(-(r - 10.0) ** 2), r_max=16.0)
    for terms in ([(near, one), (far, one)], [(far, one), (near, one)]):
        with pytest.raises(InputInvalid, match="r_max 8 and 16"):
            SeparableFunction(terms)


def test_separable_scaled(grid16):
    f = gaussian(grid16).scaled(3.0)
    assert math.isclose(float(f(np.zeros((1, 3)))[0]), 3.0, rel_tol=1e-9)
    assert math.isclose(f.fourier_radial(np.array([0.0]))[0],
                        3.0 * math.pi ** 1.5, rel_tol=1e-12)


def test_separable_power_identity_preserves_closed_form(grid16):
    f = gaussian(grid16)
    assert separable_power(f, 1.0) is f


def test_separable_power_square(grid16):
    f = gaussian(grid16)
    sq = separable_power(f, 2.0)
    r = np.array([0.0, 0.7, 1.5])
    assert np.max(np.abs(sq.values_polar(r)[:, 0] - np.exp(-2 * r * r))) < 1e-9


def test_separable_power_rejects_growing(grid16):
    with pytest.raises(InputInvalid):
        separable_power(gaussian(grid16), -1.0)


# ----------------------------------------------------------------------------
# Radon transform
# ----------------------------------------------------------------------------

def test_radon_gaussian_closed_form(grid16):
    sino = radon_transform(gaussian(grid16))
    ref = math.pi * np.exp(-sino.t ** 2)
    assert np.max(np.abs(sino.values - ref[None, :])) < 1e-8
    assert sino.evenness_residual() < 1e-10
    assert sino.mass_residual() < 1e-10


def test_radon_mass_equals_full_integral(grid16):
    # every sinogram row integrates to the integral of f: pi^{3/2} here
    sino = radon_transform(gaussian(grid16))
    assert np.max(np.abs(sino.masses() - math.pi ** 1.5)) < 1e-9


def test_radon_ball_section_area(grid16):
    ball = mollified_ball(1.0, 1e-2, grid=grid16)
    t = np.linspace(-1.5, 1.5, 61)
    sino = radon_transform(ball, t=t)
    ref = math.pi * np.clip(1.0 - t * t, 0.0, None)
    # the mollified edge smooths the section area in a band of width ~ the
    # mollification scale around |t| = 1; compare away from that band
    interior = np.abs(np.abs(t) - 1.0) > 0.1
    assert np.max(np.abs(sino.values[0, interior] - ref[interior])) < 1e-3
    assert np.max(np.abs(sino.values[0] - ref)) < 5e-2


def test_radon_direct_matches_fast_path(grid16):
    f = gaussian(grid16)
    theta = np.array([0.3, -0.4, 0.866])
    for t in (0.0, 0.5, 1.25):
        direct = radon_direct_point(f, t, theta)
        assert math.isclose(direct, math.pi * math.exp(-t * t),
                            rel_tol=1e-9, abs_tol=1e-10)


def test_radon_nonradial_vs_direct(grid16):
    # u(r) * (1 + 0.5 P_2(z)): the degree-expanded path must agree with the
    # brute-force plane integral
    prof = RadialProfile(np.exp(-np.linspace(0, 16, 2048) ** 2), 16.0,
                         evaluator=lambda r: np.exp(-np.asarray(r) ** 2))
    ang = SphericalFunction(
        grid16, 1.0 + 0.5 * eval_legendre(2, grid16.nodes[:, 2]),
        parity="even")
    f = SeparableFunction([(prof, ang)])
    t_grid = np.array([0.0, 0.4, 1.1])
    for theta in (np.array([0.0, 0.0, 1.0]), np.array([1.0, 1.0, 0.5])):
        theta = theta / np.linalg.norm(theta)
        sino = radon_transform(f, t=t_grid, directions=theta[None, :])
        for j, t in enumerate(t_grid):
            direct = radon_direct_point(f, float(t), theta)
            assert math.isclose(sino.values[0, j], direct,
                                rel_tol=1e-6, abs_tol=1e-9), (theta, t)


def _simpson_plane_integral(profile, k, t_abs):
    """Per offset: scipy's simpson over the nodes s >= |t| of
    u(s) s P_k(t/s), plus the trapezoid cell [|t|, first node]."""
    from scipy.integrate import simpson

    s = profile.r
    su = s * profile.samples
    out = np.zeros(len(t_abs))
    for i, ta in enumerate(t_abs):
        ss = s[s >= ta]
        if ta >= s[-1]:
            continue
        vals = su[s >= ta] * eval_legendre(
            k, np.divide(ta, ss, out=np.ones_like(ss), where=ss > 0))
        if len(ss) > 2:
            out[i] = simpson(vals, x=ss)
        elif len(ss) == 2:
            out[i] = 0.5 * (vals[0] + vals[1]) * (ss[1] - ss[0])
        if ss[0] > ta:
            out[i] += 0.5 * (np.interp(ta, s, su) + vals[0]) * (ss[0] - ta)
    return 2.0 * math.pi * out


@pytest.mark.parametrize("k", [2, 4, 8, 12, 30, 60])
def test_degree_plane_integral_matches_per_offset_simpson(k):
    prof = radial_profile(lambda r: r * r * np.exp(-r * r))
    dr = prof.dr
    # |t| = 0, nodes, points between nodes, the last cells (odd and even
    # suffix lengths down to one node), and |t| >= R
    t_abs = np.concatenate([
        [0.0], np.arange(1, 300, 7) * dr, (np.arange(1, 300, 11) + 0.37) * dr,
        16.0 - np.array([3.5, 3.0, 2.5, 2.0, 1.5, 1.0, 0.5]) * dr,
        [16.0, 16.5]])
    got = _degree_plane_integral(prof, k, t_abs)
    want = _simpson_plane_integral(prof, k, t_abs)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _frozen_block_kernel(profile, k, t_abs):
    """The P_k(t/s) plane integral as it was built before its weight rows
    were made in place: fresh arrays for every step of every 64-offset block,
    and the Legendre recurrence run from k = 1 with P_{-1} = 0.  Frozen as an
    oracle: the kernel must keep these bits."""
    s, n, dr = profile.r, profile.samples.shape[-1], profile.dr
    su = s * np.atleast_2d(profile.samples)
    first = np.searchsorted(s, t_abs)
    odd = np.r_[np.where((n - 1 - np.arange(n - 1)) % 2, 4.0, 2.0), 1.0]
    even = np.r_[odd[1:], 0.0]
    even[-3:] += np.array([-0.25, 2.0, 1.25])[-n:]
    out = np.zeros((len(su), len(t_abs)))
    for lo in range(0, len(t_abs), 64):
        ta, j0 = t_abs[lo:lo + 64, None], first[lo:lo + 64, None]
        c0 = min(int(j0.min()), n - 1)
        J, ss = np.arange(c0, n), s[c0:]
        x = np.divide(ta, ss, out=np.ones((len(ta), n - c0)), where=ss > 0)
        x[J < j0] = 0.0
        older, p = np.zeros_like(x), np.ones_like(x)
        for j in range(1, k + 1):
            older, p = p, ((2 * j - 1) * (x * p) - (j - 1) * older) / j
        cnt = n - j0[:, 0]
        w = np.where((cnt % 2 == 1)[:, None], odd[c0:], even[c0:])
        w = np.where(J > j0, w, J == j0)
        w[cnt == 2, -2:] = 1.5
        w[cnt < 2] = 0.0
        ta, j0 = ta[:, 0], np.minimum(j0[:, 0], n - 1)
        i = np.maximum(j0 - 1, 0)
        f = (ta - s[i]) / dr
        cell = su[:, i] * (1.0 - f) + su[:, i + 1] * f \
            + su[:, j0] * p[np.arange(len(ta)), j0 - c0]
        out[:, lo:lo + 64] = ((w * p) @ su[:, c0:].T).T * (dr / 3.0) \
            + 0.5 * cell * np.maximum(s[j0] - ta, 0.0)
    return 2.0 * math.pi * out


@pytest.mark.parametrize("k", [2, 4, 8, 30])
def test_degree_plane_integral_keeps_the_frozen_bits(k):
    """Bit for bit against the frozen kernel: the full |t| grid of
    radon_transform and the edge offsets (t = 0, nodes, suffixes of one and
    two nodes, |t| >= R), one and three profile rows, odd and even n."""
    t_abs = np.unique(np.abs(symmetric_nodes()))
    assert len(t_abs) == 1025
    for n in (2048, 2047):
        r = np.linspace(0.0, 16.0, n)
        rows = np.array([r * r * np.exp(-1.2 * r * r), np.exp(-r * r),
                         (1.0 + r) * np.exp(-0.5 * r * r)])
        dr = 16.0 / (n - 1)
        edge = np.concatenate([
            [0.0], np.arange(1, 300, 7) * dr, (np.arange(1, 300, 11) + 0.37) * dr,
            16.0 - np.array([3.5, 3.0, 2.5, 2.0, 1.5, 1.0, 0.5]) * dr,
            [16.0, 16.5]])
        for samples in (rows[0], rows):
            prof = radial_profile(samples=samples, n=n)
            for t in (t_abs, edge):
                got = _degree_plane_integral(prof, k, t)
                want = _frozen_block_kernel(prof, k, t)
                assert np.array_equal(got, want), (n, samples.ndim, len(t))
                assert np.array_equal(np.signbit(got), np.signbit(want))


def test_degree_plane_integral_memory_bound():
    """One 2048 x 1025 call holds at most 4 MB at once (the fresh arrays of
    every block step peaked at 8.1 MB)."""
    prof = radial_profile(lambda r: r * r * np.exp(-1.2 * r * r))
    t_abs = np.unique(np.abs(symmetric_nodes()))
    _degree_plane_integral(prof, 2, t_abs)
    tracemalloc.start()
    try:
        _degree_plane_integral(prof, 2, t_abs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4_000_000, peak


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_degree_plane_integral_short_profiles(n):
    prof = radial_profile(lambda r: np.exp(-r * r), r_max=2.0, n=n)
    t_abs = np.array([0.0, 0.3, 0.5, 1.0, 1.7, 2.0, 3.0])
    want = _simpson_plane_integral(prof, 2, t_abs)
    assert np.max(np.abs(_degree_plane_integral(prof, 2, t_abs) - want)) \
        <= 1e-13 * np.max(np.abs(want))


def test_radon_rejects_algebraic_decay(grid16):
    f = catalog_entry("erf-type", grid16).f
    with pytest.raises(DecayTooSlow):
        radon_transform(f)


# ----------------------------------------------------------------------------
# Fourier along rays
# ----------------------------------------------------------------------------

def test_fourier_along_ray_gaussian_numeric(grid16):
    # numeric radial path (no closed form attached) vs the analytic transform
    f = gaussian(grid16, closed_form=False)
    r = np.linspace(0.0, 8.0, 33)
    ref = math.pi ** 1.5 * np.exp(-r * r / 4.0)
    got = fourier_along_rays(f, np.array([[0.0, 0.0, 1.0]]), r)[0]
    assert np.max(np.abs(got - ref)) < 1e-9


def test_fourier_slice_identity(grid16):
    # 1D transform of a sinogram row equals the 3D transform along the ray
    f = gaussian(grid16, closed_form=False)
    sino = radon_transform(f)
    omega, row_hat = fourier_1d(sino.values[0], sino.dt)
    pos = (omega >= 0) & (omega <= 8.0)
    ray = fourier_along_rays(f, sino.directions[:1], omega[pos])[0]
    assert np.max(np.abs(row_hat[pos] - ray)) < 1e-8


def test_ray_profile_even_and_matches_closed_form(grid16):
    f = gaussian(grid16)
    r_nodes, m = ray_profile_samples(f, np.array([[0.0, 0.0, 1.0]]))
    ref = math.pi ** 1.5 * r_nodes ** 2 * np.exp(-r_nodes ** 2 / 4.0)
    assert np.max(np.abs(m[0] - ref)) < 1e-9
    n = len(r_nodes)
    assert np.max(np.abs(m[0, 1:] - m[0, 1:][::-1])) < 1e-12  # even in r


def _trapezoid_sine_reference(profile, r_vals):
    """The sine kernel as a trapezoid formula: the (rows x radii x s)
    integrand built in full and summed by np.trapezoid, with the same
    singular-origin extrapolation, endpoint correction and algebraic tail."""
    s, u = profile.r, np.atleast_2d(profile.samples)
    singular = ~np.isfinite(u[:, 0])
    with np.errstate(invalid="ignore"):
        w = s * u
    w[singular, 0] = 0.0
    out = np.zeros((len(u), len(r_vals)))
    nz = r_vals != 0.0
    rr = r_vals[nz]
    integ = np.sin(np.outer(rr, s)) * w[:, None, :]
    integ[singular, :, 0] = 1.5 * integ[singular, :, 1] \
        - 0.6 * integ[singular, :, 2] + 0.1 * integ[singular, :, 3]
    vals = np.trapezoid(integ, s, axis=-1)
    ds = s[1] - s[0]
    wp_end = ((3.0 * w[:, -1] - 4.0 * w[:, -2] + w[:, -3]) / (2.0 * ds))[:, None]
    gp_end = wp_end * np.sin(rr * s[-1]) + w[:, -1:] * rr * np.cos(rr * s[-1])
    vals -= np.where(singular[:, None], 0.0,
                     (ds * ds / 12.0) * (gp_end - w[:, :1] * rr))
    if profile.decay == "algebraic":
        vals += w[:, -1:] * np.cos(rr * s[-1]) / rr \
            - wp_end * np.sin(rr * s[-1]) / (rr * rr)
    out[:, nz] = 4.0 * math.pi * vals / rr
    out[:, ~nz] = 4.0 * math.pi * np.trapezoid(s * w, s, axis=-1)[:, None]
    return out


def _trapezoid_jk_reference(profile, k, r_vals):
    """The j_k kernel as a trapezoid formula over every row at once: rows
    that end at 0 continue with 0 on the 32x extension whenever any row is
    tailed, and every j_k block is built per call."""
    s_int, u_int = s, u = profile.r, np.atleast_2d(profile.samples)
    tail_c = u[:, -1] * s[-1] if profile.decay == "algebraic" \
        else np.zeros(len(u))
    tailed = np.any(tail_c != 0.0)
    if tailed:
        ds = s[1] - s[0]
        basis = lambda x: np.stack([1.0 / x, 1.0 / x ** 3, 1.0 / x ** 5])
        fit = np.linalg.lstsq(basis(s[-len(s) // 4:]).T, u[:, -len(s) // 4:].T,
                              rcond=None)[0] * (tail_c != 0.0)
        tail_c = fit[0]
        s_ext = s[-1] + ds * np.arange(1, int(31.0 * len(s)) + 1)
        s_int = np.concatenate([s, s_ext])
        u_int = np.hstack([u, fit.T @ basis(s_ext)])
    w = u_int * s_int * s_int
    ww = w * radon3d._trapezoid_weights(s_int)
    radial = np.empty((len(u), len(r_vals)))
    for lo in range(0, len(r_vals), 64):
        rr = r_vals[lo:lo + 64]
        jk = spherical_jn(k, np.outer(rr, s_int))
        part = ww @ jk.T
        if tailed:
            ds = s_int[1] - s_int[0]
            end = jk[:, -3:] * w[:, None, -3:]
            part -= (ds / 24.0) * (3.0 * end[..., 2] - 4.0 * end[..., 1]
                                   + end[..., 0])
            nz = rr > 0.0
            part[:, nz] += np.outer(
                tail_c, radon3d._bessel_tail_xjk(k, rr[nz] * s_int[-1])
                / rr[nz] ** 2)
        radial[:, lo:lo + 64] = part
    return radial


@pytest.mark.parametrize("k", [0, 2, 4])
@pytest.mark.parametrize("decay", ["schwartz", "algebraic"])
def test_ray_kernels_match_trapezoid_reference(k, decay):
    # rows: regular, singular at the origin (c/s^2), algebraic, and one that
    # ends at 0, which stays untailed while the algebraic tag tails the rest
    s = np.linspace(0.0, 16.0, 1024)
    with np.errstate(divide="ignore"):
        u = np.array([np.exp(-s * s), np.exp(-s * s) / (s * s),
                      1.0 / (1.0 + s * s), np.maximum(1.0 - s / 8.0, 0.0) ** 3])
    r_vals = np.r_[0.0, symmetric_nodes(1024, 16.0)[513:]]
    profile = RadialProfile(u, 16.0, decay)
    if k == 0:
        got = radon3d._radial_fourier(profile, r_vals)
        want = _trapezoid_sine_reference(profile, r_vals)
    else:
        # j_k(0) = 0, so the origin sample never enters; the reference forms
        # u s^2 at s = 0 and needs it finite
        got = radon3d._degree_radial_fourier(profile, k, r_vals)
        want = _trapezoid_jk_reference(
            RadialProfile(np.where(np.isfinite(u), u, 0.0), 16.0, decay),
            k, r_vals)
    assert np.all(np.isfinite(got))
    scale = np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-14 * scale)


def test_second_certificate_on_one_grid_builds_no_table(grid16, monkeypatch):
    from test_compare3d import _nonradial_psi, _record_bessel_tables

    shapes = _record_bessel_tables(monkeypatch)     # also empties the cache
    certify_intersection_function(_nonradial_psi(grid16))
    built = list(shapes)
    # the sine table and one j_2 table, the latter in blocks of 64 radii
    assert radon3d._kernel_table.cache_info().misses == 2
    assert len(built) == 16 and all(rows <= 64 for rows, _ in built)
    z = grid16.nodes[:, 2]
    other = SeparableFunction([
        (radial_profile(lambda r: 2.0 * np.exp(-2.0 * r * r)),
         SphericalFunction(grid16, np.ones(grid16.n_nodes), parity="even")),
        (radial_profile(lambda r: r * r * np.exp(-r * r)),
         SphericalFunction(grid16, 0.5 * (1.5 * z * z - 0.5), parity="even"))])
    certify_intersection_function(other)
    assert shapes == built
    info = radon3d._kernel_table.cache_info()
    assert (info.misses, info.hits) == (2, 2)


def test_kernel_tables_read_only_and_bounded():
    radon3d._kernel_table.cache_clear()
    s = np.linspace(0.0, 4.0, 33)
    for i in range(radon3d._KERNEL_TABLES + 3):
        r = np.linspace(0.0, 1.0 + i, 70)
        for k in (0, 2):
            table = radon3d._kernel_table(k, r.tobytes(), s.tobytes())
            x = np.outer(r, s)
            assert np.array_equal(table, np.sin(x) if k == 0 else spherical_jn(k, x))
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1.0
    info = radon3d._kernel_table.cache_info()
    assert info.maxsize == radon3d._KERNEL_TABLES == info.currsize


def test_singular_degree2_origin_transform_is_finite(grid16):
    # e^{-r^2} + 0.1 e^{-r^2}/r^2 P_2(z): the degree-2 profile is infinite at
    # r = 0, but u s^2 = 0.1 e^{-s^2} is not and j_2(0) = 0.  Along z,
    #   f^(r) = pi^{3/2} e^{-r^2/4} - 0.4 pi int_0^inf e^{-s^2} j_2(rs) ds.
    from scipy.integrate import quad
    from scipy.special import spherical_jn as scipy_jn

    z = grid16.nodes[:, 2]
    with np.errstate(divide="ignore"):
        f = SeparableFunction([
            (radial_profile(lambda r: np.exp(-r * r)),
             SphericalFunction(grid16, np.ones(grid16.n_nodes), parity="even")),
            (radial_profile(lambda r: np.exp(-r * r) / (r * r)),
             SphericalFunction(grid16, 0.1 * (1.5 * z * z - 0.5),
                               parity="even"))])
    r = np.linspace(0.0, 8.0, 17)
    ref = [math.pi ** 1.5 * math.exp(-x * x / 4.0) - 0.4 * math.pi * quad(
        lambda s: math.exp(-s * s) * scipy_jn(2, x * s), 0.0, 10.0,
        epsabs=1e-14, limit=200)[0] for x in r]
    got = fourier_along_rays(f, np.array([[0.0, 0.0, 1.0]]), r)[0]
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
    # m = r^2 f^ grows like r: the grid cannot hold it, so no verdict
    with pytest.raises(GridTooCoarse):
        certify_intersection_function(f)


def test_certification_refuses_non_finite_transform(grid16):
    def fhat(r):
        r = np.asarray(r, float)
        return np.where(r < 8.0, math.pi ** 1.5 * np.exp(-r * r / 4.0), np.nan)

    f = separable_radial(lambda r: np.exp(-np.asarray(r, float) ** 2), grid16,
                         fourier_radial=fhat)
    with pytest.raises(InputInvalid, match="non-finite"):
        certify_intersection_function(f)


# ----------------------------------------------------------------------------
# Certification
# ----------------------------------------------------------------------------

def test_certify_gaussian_negative_with_witness(grid16):
    cert = certify_intersection_function(gaussian(grid16))
    assert cert.verdict == "not-intersection-function"
    assert not cert.is_intersection_function
    c = cert.per_direction[0]
    assert abs(float(c.witness_point)) > 1.0 / math.sqrt(2.0)
    omega, mhat = c.transform_data
    ref = math.pi ** 1.5 * 2.0 * math.sqrt(math.pi) \
        * (2.0 - 4.0 * omega ** 2) * np.exp(-omega ** 2)
    assert np.max(np.abs(mhat - ref)) < 1e-6 * np.max(np.abs(ref))


def test_certify_exp_ell_positive(grid16):
    # m = 8 pi^2 e^{-|r|} has a kink at the origin; the even-extension
    # extrapolation there carries an O(dr) error, so the positivity tolerance
    # must sit above that discretization floor for kinked profiles
    cert = certify_intersection_function(catalog_entry("exp-ell", grid16).f,
                                         rel_tol=1e-4)
    assert cert.is_intersection_function
    assert cert.witness_direction is None


def test_certify_erf_type_positive(grid16):
    cert = certify_intersection_function(catalog_entry("erf-type", grid16).f)
    assert cert.is_intersection_function


def test_grid_spacing_is_two_r_over_n(grid16):
    # at a non-dyadic r_max the rounded nodes give t[1] - t[0] = 2R/n
    # - 3e-16 (9e-14 relative); the transforms use 2R/n itself, so the
    # erf-type ray-profile transform stays within a few ulps of its closed form
    r_max, n = 6.747, 4096
    t = symmetric_nodes(n, r_max)
    assert t[1] - t[0] != 2.0 * r_max / n
    sino = radon_transform(gaussian(grid16), t=t)
    assert sino.dt == 2.0 * r_max / n
    entry = catalog_entry("erf-type", grid16, r_max=r_max, n=n)
    cert = certify_intersection_function(entry.f, r_max=r_max, n=n)
    omega, mhat = cert.per_direction[0].transform_data
    ref = entry.mhat_eval(omega)
    assert np.max(np.abs(mhat - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_certify_cauchy_ell_needs_tail_correction():
    grid = build_grid(16, 32)
    entry = catalog_entry("cauchy-ell", grid, r_max=256.0, n=32768)
    with pytest.raises(GridTooCoarse):
        certify_intersection_function(entry.f, r_max=256.0, n=32768)
    cert = certify_intersection_function(entry.f, r_max=256.0, n=32768,
                                         tail_correction=True)
    assert cert.is_intersection_function
    omega, mhat = cert.per_direction[0].transform_data
    ref = 8.0 * math.pi ** 3 * np.exp(-np.abs(omega))
    assert np.max(np.abs(mhat - ref)) < 1e-4 * np.max(ref)


def test_certify_gamma_family_threshold(grid16):
    # e^{-|r|^q} has a non-negative 1D transform exactly for q <= 2; the
    # kinked origin needs the same relaxed tolerance as exp-ell, while the
    # q = 4 failure is macroscopic (witness depth ~ 10% of the peak)
    ok = certify_intersection_function(
        catalog_entry("gamma-q(1.5)", grid16).f, rel_tol=1e-4)
    assert ok.is_intersection_function
    bad = certify_intersection_function(
        catalog_entry("gamma-q(4.0)", grid16).f, rel_tol=1e-4)
    assert bad.verdict == "not-intersection-function"


def test_certify_json_shape(grid16):
    bad = certify_intersection_function(gaussian(grid16))
    good = certify_intersection_function(
        catalog_entry("gamma-q(1.5)", grid16).f, rel_tol=1e-4)
    d_bad, d_good = bad.to_json_dict(), good.to_json_dict()
    for d in (d_bad, d_good):
        assert set(d) == {"verdict", "witness_point", "witness_value",
                          "tolerance"}
    assert d_bad["verdict"] == "not-intersection-function"
    assert len(d_bad["witness_point"]) == 3
    assert d_bad["witness_value"] < -d_bad["tolerance"] < 0.0
    assert d_good["witness_point"] is None
    report = {"scenario": "certify-intersection", "inputs": {},
              "certificates": [d_bad, d_good], "norms": {}, "margins": {},
              "residuals": {}, "timing": {"wall_seconds": 0.0}}
    validate_report(report)
    # the nested per-direction shape is not a report certificate
    report["certificates"] = [{"verdict": bad.verdict,
                               "witness_direction": d_bad["witness_point"],
                               "per_direction": [d_bad]}]
    with pytest.raises(jsonschema.ValidationError):
        validate_report(report)


@pytest.mark.parametrize("d, n", [(1, 2048), (7, 2048), (256, 2048),
                                  (3, 32768)])
def test_fourier_1d_of_a_table_is_fourier_1d_of_each_row(d, n):
    rng = np.random.default_rng(d)
    t = symmetric_nodes(n, 16.0)
    table = rng.standard_normal((d, n)) * np.exp(-t * t / 16.0)
    omega, got = fourier_1d(table, 32.0 / n)
    for row, want in zip(table, got):
        om, one = fourier_1d(row, 32.0 / n)
        assert np.array_equal(om, omega)
        assert np.array_equal(one.view(np.int64), want.view(np.int64))


def test_certificate_transforms_all_directions_in_one_call(grid16,
                                                           monkeypatch):
    from test_compare3d import _nonradial_psi

    calls = []
    inner = radon3d.fourier_1d

    def counted(values, dt):
        calls.append(np.shape(values))
        return inner(values, dt)

    monkeypatch.setattr(radon3d, "fourier_1d", counted)
    cert = certify_intersection_function(_nonradial_psi(grid16))
    assert calls == [(8, 2048)]       # one row per polar ring of P_2(z)
    assert cert.mhat.shape == (256, 2048) and len(cert.per_direction) == 256


def test_certificate_from_a_table():
    # rows 0 and 2 fail; row 1 passes with a tolerance wide enough to cover
    # the lowest dip of the table, row 3 passes with room to spare
    omega = np.linspace(-2.0, 2.0, 5)
    mhat = np.array([[1.0, -0.5, 2.0, 1.0, 0.0],
                     [0.5, 1.0, 3.0, -4.0, 0.5],
                     [1.0, 0.2, 2.0, -1.0, 0.0],
                     [1.0, 1.0, 2.0, 1.0, 0.5]])
    tolerance = np.array([0.1, 5.0, 0.1, 0.1])
    directions = np.eye(4, 3)
    cert = radon3d.IntersectionCertificate(directions, omega, mhat, tolerance)
    assert cert.verdict == "not-intersection-function"
    assert not cert.is_intersection_function
    np.testing.assert_array_equal(cert.witness_direction, directions[2])
    d = cert.to_json_dict()
    assert d["witness_point"] == [0.0, 0.0, 1.0]
    assert (d["witness_value"], d["tolerance"]) == (-4.0, 5.0)
    per = cert.per_direction
    assert [c.verdict for c in per] == ["not-positive-definite",
                                        "positive-definite",
                                        "not-positive-definite",
                                        "positive-definite"]
    assert [c.witness_value for c in per] == list(mhat.min(axis=1))
    assert [c.witness_point for c in per] == [-1.0, 1.0, 1.0, 2.0]
    np.testing.assert_array_equal(per[1].transform_data[1], mhat[1])
    passing = radon3d.IntersectionCertificate(directions, omega, mhat[[1, 3]],
                                              tolerance[[1, 3]])
    assert passing.is_intersection_function
    assert passing.witness_direction is None
    assert passing.to_json_dict()["witness_value"] == -4.0


# ----------------------------------------------------------------------------
# Classification witness
# ----------------------------------------------------------------------------

def test_classification_witness_requires_certificate(grid16):
    f = gaussian(grid16)
    cert = certify_intersection_function(f)
    with pytest.raises(CertificateRequired):
        classification_witness(f, cert)


def test_classification_witness_pairing(grid16):
    f = catalog_entry("exp-ell", grid16).f
    cert = certify_intersection_function(f, rel_tol=1e-4)
    report = classification_witness(f, cert, n_tests=3)
    assert report["max_residual"] < 1e-4
    # kink-limited certification: the densities (the certificate's rows) are
    # non-negative up to the same discretization floor
    for density in cert.mhat:
        assert np.min(density) / max(np.max(density), 1e-300) >= -1e-4


# ----------------------------------------------------------------------------
# Catalog
# ----------------------------------------------------------------------------

def test_catalog_names_and_unknown(grid16):
    assert set(CATALOG_NAMES) == {"gauss-r2", "erf-type", "exp-ell",
                                  "cauchy-ell", "gamma-q"}
    with pytest.raises(InputInvalid):
        catalog_entry("no-such-entry", grid16)


def test_catalog_gauss_r2_closed_forms(grid16):
    entry = catalog_entry("gauss-r2", grid16)
    r = np.array([0.5, 1.0, 2.0])
    ref_f = np.exp(-r * r) / r ** 2
    assert np.max(np.abs(entry.f.values_polar(r)[:, 0] - ref_f)) < 1e-10
    ref_hat = 2.0 * math.pi ** 2 * erf(r / 2.0) / r
    assert np.max(np.abs(entry.f.fourier_radial(r) - ref_hat)) < 1e-12


def test_catalog_transforms_share_one_guard(grid16):
    # f^ = 8 pi^2 h / r^2 in every entry with an interior profile h: +inf at
    # r <= 0 and where the quotient overflows, the quotient itself elsewhere
    r = np.array([-1.0, 0.0, 1e-200, 1e-150, 1e-100, 1.0])
    for name in ("erf-type", "exp-ell", "cauchy-ell", "gamma-q(1.5)"):
        entry = catalog_entry(name, grid16)
        fhat = entry.f.fourier_radial(r)
        assert np.all(np.isposinf(fhat[:3])), name
        ref = 8.0 * math.pi ** 2 * entry.h_eval(r[3:]) / r[3:] ** 2
        assert np.array_equal(fhat[3:], ref), name


def test_catalog_erf_type_interior_relation(grid16):
    # the data row and the function satisfy r^2 f^ = 8 pi^2 ghat exactly
    entry = catalog_entry("erf-type", grid16)
    t = symmetric_nodes()
    om, ghat = fourier_1d(entry.g_eval(t), t[1] - t[0])
    nz = om != 0.0
    lhs = om[nz] ** 2 * entry.f.fourier_radial(np.abs(om[nz]))
    resid = np.max(np.abs(lhs - RELATION_CONSTANT * ghat[nz])) \
        / np.max(np.abs(lhs))
    assert resid < 1e-12


def test_catalog_sinogram_masses_match(grid16):
    entry = catalog_entry("exp-ell", grid16)
    t = symmetric_nodes()
    # the data row is the Cauchy density: its integral over [-16, 16] is
    # (2 / pi) arctan(16)
    ref = 2.0 / math.pi * math.atan(16.0)
    assert abs(np.trapezoid(entry.g_eval(t), t) - ref) < 1e-4
