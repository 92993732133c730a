"""Norm comparison under Radon-transform domination on R^3.

Closed-form oracles:
  * ||e^{-|x|^2}||_2 = (pi/2)^{3/4}
  * ||1_{B(0,1)}||_1 = 4 pi / 3 (mollified: + 2 pi w^2 + O(w^3))
  * scaling: for psi(x) = M^{-2} phi(x/M), R psi(t) = R phi(t/M) and
    ||psi||_p^p = M^{3 - 2p} ||phi||_p^p
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.special

from radoncomp import radon3d
from radoncomp.compare3d import (
    _bump_profiles,
    _integral_against,
    _pair_with_measures,
    construct_counterexample_radon,
    lp_norm_rn,
    sinogram_dominates,
    verify_comparison_radon,
)
from radoncomp.errors import (
    DominationFails,
    GridMismatch,
    GridTooCoarse,
    InputInvalid,
    NotApplicable,
    OutOfRange,
    TailTooHeavy,
)
from radoncomp.funk import (
    ComparisonReport,
    construct_counterexample_spherical,
    sradon_map,
    verify_comparison_spherical,
)
from radoncomp.radon3d import (
    RadialProfile,
    SeparableFunction,
    catalog_entry,
    certify_intersection_function,
    fourier_along_rays,
    hemisphere_indices,
    mollified_ball,
    radial_profile,
    radon_transform,
    ray_profile_samples,
    separable_power,
    separable_radial,
    symmetric_nodes,
)
from radoncomp.sphere import (
    HarmonicSpectrum,
    SphericalFunction,
    build_grid,
    gauss_legendre,
    radial_gauss_legendre,
    synthesize,
)


def gaussian(grid=None, width=1.0, amp=1.0):
    fr_amp = amp * math.pi ** 1.5 * width ** 3
    return separable_radial(
        lambda r: amp * np.exp(-(np.asarray(r, float) / width) ** 2),
        grid,
        fourier_radial=(lambda r: fr_amp
                        * np.exp(-(width * np.asarray(r, float)) ** 2 / 4.0)))


# ----------------------------------------------------------------------------
# Norms
# ----------------------------------------------------------------------------

def test_l2_norm_gaussian(grid16):
    # integral of e^{-2|x|^2} = (pi/2)^{3/2}
    assert math.isclose(lp_norm_rn(gaussian(grid16), 2.0),
                        (math.pi / 2.0) ** 0.75, rel_tol=1e-12)


def test_l1_norm_ball(grid16):
    # mollification of width w adds 2 pi w^2 r + O(w^3) worth of volume
    w = 1e-2
    ball = mollified_ball(1.0, w, grid=grid16)
    ref = 4.0 * math.pi / 3.0 + 2.0 * math.pi * w ** 2
    assert math.isclose(lp_norm_rn(ball, 1.0), ref, rel_tol=1e-9)


def test_lp_norm_rejects_bad_p(grid16):
    with pytest.raises(OutOfRange):
        lp_norm_rn(gaussian(grid16), 0.0)


# R^3 entry points that take an exponent: an infinite or NaN p is refused
# before any work, or it turns into norms of 1 or NaN and a verdict on them
R3_EXPONENT_ENTRY_POINTS = {
    "lp_norm_rn": lambda phi, p: lp_norm_rn(phi, p),
    "verify": lambda phi, p: verify_comparison_radon(phi, phi.scaled(2.0), p),
    "construct": lambda phi, p: construct_counterexample_radon(phi, p),
}


@pytest.mark.parametrize("p", [math.inf, math.nan])
@pytest.mark.parametrize("entry", sorted(R3_EXPONENT_ENTRY_POINTS))
def test_non_finite_exponent_refused(grid16, entry, p):
    with pytest.raises(OutOfRange, match="p must be positive and finite"):
        R3_EXPONENT_ENTRY_POINTS[entry](gaussian(grid16), p)


def test_lp_norm_heavy_tail_raises(grid16):
    f = separable_radial(lambda r: 1.0 / (1.0 + np.asarray(r, float) ** 2),
                        grid16)
    with pytest.raises(TailTooHeavy):
        lp_norm_rn(f, 1.0)


def test_radial_rule_built_once(grid16):
    f = gaussian(grid16)
    gauss_legendre.cache_clear()
    lp_norm_rn(f, 2.0)
    lp_norm_rn(f, 1.0)
    info = gauss_legendre.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_lp_norm_of_gaussian_to_rounding(grid16):
    """||e^{-r^2}||_1 = pi^{3/2}; the 2048-node radial rule carries it to
    1e-14 (leggauss's rule: 1.6e-13)."""
    assert abs(lp_norm_rn(gaussian(grid16), 1.0) / math.pi ** 1.5 - 1.0) <= 1e-14


def test_cached_rule_is_read_only():
    for a in gauss_legendre(64):
        with pytest.raises(ValueError):
            a[0] = 0.0


def _rn_mix_p2(grid, A=1.3, a=1.0, c=0.5, k=1.2):
    """The rn-mix non-radial input A e^{-a r^2} + c r^2 e^{-k r^2} P_2(z)."""
    z = grid.nodes[:, 2]
    return SeparableFunction([
        (radial_profile(lambda r: A * np.exp(-a * np.asarray(r, float) ** 2)),
         SphericalFunction(grid, np.ones(grid.n_nodes), parity="even")),
        (radial_profile(lambda r: np.asarray(r, float) ** 2
                        * np.exp(-k * np.asarray(r, float) ** 2)),
         SphericalFunction(grid, c * (1.5 * z * z - 0.5), parity="even"))])


def _xz_factor(grid):
    """e^{-r^2} (1 + 0.2 x z), its angular samples made exactly even (the
    grid's antipodes negate coordinates only to rounding)."""
    v = 1.0 + 0.2 * grid.nodes[:, 0] * grid.nodes[:, 2]
    return SeparableFunction([
        (radial_profile(lambda r: np.exp(-np.asarray(r, float) ** 2)),
         SphericalFunction(grid, 0.5 * (v + v[grid.antipode]),
                           parity="even"))])


CLASS_INPUTS = {
    "gaussian": lambda grid: gaussian(grid),
    "rn-mix-p2": _rn_mix_p2,
    "xz-factor": _xz_factor,
}


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("name", sorted(CLASS_INPUTS))
def test_class_quadrature_matches_the_full_grid(grid16, name, p):
    # |f|^p taken once per class of equal angular columns gives the norm of
    # the brute-force sum over every node, and the parent's exact minimum
    f = CLASS_INPUTS[name](grid16)
    first, index = f.node_classes()
    if name == "gaussian":
        assert len(first) == 1
    if name == "xz-factor":
        # antipodes share a class, and other coincidences may join them
        assert np.array_equal(index, index[grid16.antipode])
        assert 1 < len(first) <= grid16.n_nodes // 2
    assert np.array_equal(first, [np.flatnonzero(index == c)[0]
                                  for c in range(len(first))])
    assert math.isclose(np.bincount(index, grid16.weights).sum(),
                        4.0 * math.pi, rel_tol=1e-14)
    rg, wg = radial_gauss_legendre(f.r_max, 2048)
    full = f.values_polar(rg)
    assert np.array_equal(f.values_polar(rg, first)[:, index], full)
    brute = float((wg * rg * rg) @ np.abs(full) ** p @ grid16.weights) \
        ** (1.0 / p)
    assert math.isclose(lp_norm_rn(f, p), brute, rel_tol=1e-13)
    r = np.linspace(0.0, f.r_max, 256)
    assert f.min_on_sample_grid() == float(np.min(f.values_polar(r)))


def test_columns_one_ulp_apart_are_different_classes(grid16):
    values = np.ones(grid16.n_nodes)
    values[[5, grid16.antipode[5]]] = np.nextafter(1.0, 2.0)
    f = SeparableFunction([(radial_profile(lambda r: np.exp(-r * r)),
                            SphericalFunction(grid16, values, parity="even"))])
    first, index = f.node_classes()
    assert len(first) == 2
    assert index[5] != index[0] and index[5] == index[grid16.antipode[5]]


def _m1_factor(grid):
    """e^{-r^2} + 0.2 r^2 e^{-1.2 r^2} (x + 0.3 y) z: a degree-2 mode with
    m = 1 at a generic phase, made exactly even; no two hemisphere
    directions share its transform."""
    x, y, z = grid.nodes.T
    v = 0.2 * (x + 0.3 * y) * z
    return SeparableFunction([
        (radial_profile(lambda r: np.exp(-np.asarray(r, float) ** 2)),
         SphericalFunction(grid, np.ones(grid.n_nodes), parity="even")),
        (radial_profile(lambda r: np.asarray(r, float) ** 2
                        * np.exp(-1.2 * np.asarray(r, float) ** 2)),
         SphericalFunction(grid, 0.5 * (v + v[grid.antipode]),
                           parity="even"))])


SINOGRAM_CLASSES = {"gaussian": 1, "rn-mix-p2": 8, "m1-factor": 256}


def _class_input(name, grid):
    return _m1_factor(grid) if name == "m1-factor" \
        else CLASS_INPUTS[name](grid)


@pytest.mark.parametrize("name", sorted(SINOGRAM_CLASSES))
def test_sinogram_rows_once_per_class_of_directions(grid16, name):
    # one row per polar ring for P_2(z), one for a radial input; each row
    # has the bits of the transform taken at one of its directions alone
    f = _class_input(name, grid16)
    sino = radon_transform(f)
    assert sino.rows.shape == (SINOGRAM_CLASSES[name], 2048)
    assert sino.values.shape == (256, 2048)
    for d in (0, 37, 255):
        alone = radon_transform(f, directions=sino.directions[d:d + 1])
        assert np.array_equal(alone.rows[0], sino.values[d])


def test_zero_angular_factor_has_one_class_of_zeros(grid16):
    # no live degree leaves no angular value to tell directions apart
    f = SeparableFunction([(radial_profile(lambda r: np.exp(-r * r)),
                            SphericalFunction(grid16, np.zeros(grid16.n_nodes),
                                              parity="even"))])
    sino = radon_transform(f)
    assert sino.rows.shape == (1, 2048) and not sino.values.any()


def test_domination_over_joint_classes_is_the_full_minimum(grid16):
    sinos = {name: radon_transform(_class_input(name, grid16))
             for name in SINOGRAM_CLASSES}
    for a in sinos.values():
        for b in sinos.values():
            assert sinogram_dominates(a, b) == float(np.min(b.values
                                                            - a.values))
    # the p = 1 sinogram gap, from the joint rows, has the full table's bits
    phi, psi = _rn_mix_p2(grid16), gaussian(grid16, width=1.3, amp=3.0)
    rep = verify_comparison_radon(phi, psi, 1.0)
    r_phi, r_psi = rep.transforms
    w_dir = 2.0 * grid16.weights[hemisphere_indices(grid16)]
    assert rep.chain["sinogram_gap"] == float(w_dir @ np.trapezoid(
        r_psi.values - r_phi.values, r_psi.t, axis=1)) / (4.0 * math.pi)


@pytest.mark.parametrize("name", ["rn-mix-p2", "m1-factor"])
def test_class_certificate_matches_one_row_per_direction(grid16, name):
    cert = certify_intersection_function(_class_input(name, grid16))
    full = radon3d.IntersectionCertificate(cert.directions, cert.omega,
                                           cert.mhat, cert.tolerance)
    assert cert.to_json_dict() == full.to_json_dict()
    for a, b in zip(cert.per_direction, full.per_direction, strict=True):
        assert (a.verdict, a.witness_point, a.witness_value, a.tolerance) \
            == (b.verdict, b.witness_point, b.witness_value, b.tolerance)
        assert np.array_equal(a.transform_data[1], b.transform_data[1])


def test_tail_refusal_names_the_worst_direction(grid16):
    # the ratio is taken per class and gathered: the message names the
    # first direction of the per-direction table that reaches the worst
    f = _rn_mix_p2(grid16)
    dirs = grid16.nodes[hemisphere_indices(grid16)]
    _, m = ray_profile_samples(f, dirs, 4.0, 2048)
    ratio = np.max(np.abs(m[:, [0, 1, -1]]), axis=1) / np.max(np.abs(m), axis=1)
    with pytest.raises(GridTooCoarse) as info:
        certify_intersection_function(f, r_max=4.0)
    assert f"(direction {dirs[np.argmax(ratio)]})" in str(info.value)


@pytest.mark.parametrize("name", ["gaussian", "rn-mix-p2"])
def test_pairing_matches_the_direct_integral(grid16, name):
    # the affirmative chain's step int w phi = C int int R phi dmu_theta:
    # the erf-type certificate's ray measures against a sinogram, checked
    # by polar quadrature of w phi
    w = catalog_entry("erf-type", grid16).f
    cert = certify_intersection_function(w)
    phi = _class_input(name, grid16)
    weights = 2.0 * grid16.weights[hemisphere_indices(grid16)]
    got = _pair_with_measures(radon_transform(phi), cert, weights)
    [want] = _integral_against(w, [phi])
    assert abs(got - want) <= 1e-9 * abs(want)


def test_lp_norm_memory_bound(grid16):
    # |phi|^p on one class column, not on a (2048 x nodes) table (16 MB)
    f = gaussian(grid16)
    lp_norm_rn(f, 2.0)          # the cached radial rule is built outside
    tracemalloc.start()
    try:
        lp_norm_rn(f, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


# Norms out of double range: |f|^p overflows, or underflows to 0 while f
# does not vanish; each gave inf or 0 and a verdict on it
@pytest.mark.parametrize("amp, p", [(3.0, 700.0), (0.5, 1100.0)])
def test_lp_norm_out_of_double_range_refused(grid16, amp, p):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange, match="out of double range"):
            lp_norm_rn(gaussian(grid16, amp=amp), p)


def test_verify_refuses_an_underflowing_norm(grid16):
    # phi^p underflows to the zero function: lp_phi read 0 and the
    # comparison was concluded
    phi = gaussian(grid16, amp=0.5)
    psi = separable_radial(lambda r: 0.6 * np.exp(-0.9 * np.asarray(r, float)
                                                  ** 2), grid16)
    with pytest.raises(OutOfRange, match="out of double range"):
        verify_comparison_radon(phi, psi, 1100.0)


# ----------------------------------------------------------------------------
# Finite-sample gate
# ----------------------------------------------------------------------------

def _gaussian_samples(grid, index, bad):
    r = np.linspace(0.0, 16.0, 2048)
    samples = np.exp(-r * r)
    samples[index] = bad
    return separable_radial(samples=samples, grid=grid)


ENTRY_POINTS = {
    "lp_norm_rn": lambda f, g: lp_norm_rn(f, 2.0),
    "verify_phi": lambda f, g: verify_comparison_radon(f, g, 2.0),
    "verify_psi": lambda f, g: verify_comparison_radon(g, f, 1.0),
    "construct": lambda f, g: construct_counterexample_radon(f, 2.0),
    "certify": lambda f, g: certify_intersection_function(f),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_nan_radial_profile_refused(grid16, entry):
    f = _gaussian_samples(grid16, 57, np.nan)
    with pytest.raises(InputInvalid):
        ENTRY_POINTS[entry](f, gaussian(grid16, amp=2.0))


@pytest.mark.parametrize("index,bad", [(0, np.nan), (57, np.inf),
                                       (2047, -np.inf)])
def test_nan_at_origin_and_inf_elsewhere_refused(grid16, index, bad):
    with pytest.raises(InputInvalid):
        certify_intersection_function(_gaussian_samples(grid16, index, bad))


def test_infinite_origin_refused_by_plane_integrals(grid16):
    # the plane integrals of e^{-r^2} / r^2 diverge on planes through the
    # origin, so there is no sinogram to compare
    f = catalog_entry("gauss-r2", grid16).f
    with pytest.raises(InputInvalid):
        radon_transform(f)
    with pytest.raises(InputInvalid):
        verify_comparison_radon(f, f.scaled(1.2), 1.0)


def test_infinite_origin_admitted(grid16):
    # gauss-r2 = e^{-r^2} / r^2 is inf at r = 0 and nowhere else; its L^1
    # norm is 4 pi * sqrt(pi) / 2, and certification gets past the gate to
    # its own verdict on the ray profile r^2 f^(r) = 2 pi^2 r erf(r/2),
    # which grows to the grid edge
    f = catalog_entry("gauss-r2", grid16).f
    assert np.isinf(f.blocks[0].samples[0, 0])
    assert math.isclose(lp_norm_rn(f, 1.0), 2.0 * math.pi ** 1.5,
                        rel_tol=1e-10)
    with pytest.raises(GridTooCoarse):
        certify_intersection_function(f)


# ----------------------------------------------------------------------------
# Sinogram domination
# ----------------------------------------------------------------------------

def test_sinogram_dominates_sign(grid16):
    a = radon_transform(gaussian(grid16))
    b = radon_transform(gaussian(grid16, amp=1.1))
    # far out in t both rows underflow, so the pointwise gap can only be
    # required non-negative up to denormal-level roundoff
    assert sinogram_dominates(a, b) > -1e-25
    assert sinogram_dominates(b, a) < -0.05


def test_sinogram_dominates_grid_mismatch(grid16):
    a = radon_transform(gaussian(grid16))
    b = radon_transform(gaussian(grid16), t=symmetric_nodes(1024))
    with pytest.raises(GridMismatch):
        sinogram_dominates(a, b)


# ----------------------------------------------------------------------------
# Verifier
# ----------------------------------------------------------------------------

def test_verify_p1_cavalieri(grid16):
    phi = gaussian(grid16)
    psi = gaussian(grid16, width=1.054, amp=1.3)   # wider and taller
    rep = verify_comparison_radon(phi, psi, 1.0)
    assert rep.hypothesis_holds is True            # no certificate at p = 1
    assert rep.conclusion_holds
    # the norm gap equals the direction-averaged sinogram gap
    assert rep.chain["cavalieri_residual"] < 1e-10
    assert rep.lp_phi <= rep.lp_psi


@pytest.mark.parametrize("n_polar, n_azimuth", [(15, 32), (17, 34)])
def test_odd_polar_grid_keeps_half_the_equator(n_polar, n_azimuth):
    # an odd Gauss-Legendre count puts a ring at z = 0: half of it belongs to
    # the hemisphere, or the p = 1 chain loses that ring's weight
    grid = build_grid(n_polar, n_azimuth)
    idx = hemisphere_indices(grid)
    assert math.isclose(2.0 * grid.weights[idx].sum(), 4.0 * math.pi,
                        rel_tol=1e-14)
    assert sorted(np.r_[idx, grid.antipode[idx]]) == list(range(grid.n_nodes))
    rep = verify_comparison_radon(gaussian(grid),
                                  gaussian(grid, width=1.054, amp=1.3), 1.0)
    assert rep.chain["cavalieri_residual"] < 1e-9


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_pairing_with_ray_measures_closed_form(grid16, a):
    # w = 2 pi erf(r/2)/r certifies; paired with the sinogram of e^{-a r^2}
    # through its ray measures it gives int w phi dx = 8 pi^2 b / (2 a
    # sqrt(a + b^2)), b = 1/2, the step the p > 1 proof chain rests on
    cert = certify_intersection_function(catalog_entry("erf-type", grid16).f)
    sino = radon_transform(gaussian(grid16, width=a ** -0.5))
    weights = 2.0 * grid16.weights[hemisphere_indices(grid16)]
    b = 0.5
    want = 8.0 * math.pi ** 2 * b / (2.0 * a * math.sqrt(a + b * b))
    assert math.isclose(_pair_with_measures(sino, cert, weights), want,
                        rel_tol=1e-8)


def test_verify_domination_failure_raises(grid16):
    phi = gaussian(grid16, amp=1.2)
    psi = gaussian(grid16)
    with pytest.raises(DominationFails):
        verify_comparison_radon(phi, psi, 1.0)


def test_verify_rejects_negative_input(grid16):
    phi = separable_radial(
        lambda r: np.cos(np.asarray(r, float)) * np.exp(-np.asarray(r, float) ** 2),
        grid16)
    with pytest.raises(InputInvalid):
        verify_comparison_radon(phi, gaussian(grid16), 1.0)


def test_verify_p2_gaussian_hypothesis_fails_reported(grid16):
    # phi = Gaussian at p = 2: phi^{p-1} is the Gaussian itself, which is not
    # an intersection function, so no conclusion follows -- reported, not
    # raised, with the norm ratio recorded
    phi = gaussian(grid16)
    psi = gaussian(grid16, amp=1.2)
    rep = verify_comparison_radon(phi, psi, 2.0)
    assert rep.hypothesis_holds is False
    assert rep.conclusion_holds is False
    assert rep.chain["norm_ratio"] > 1.0
    assert rep.certificate is not None
    assert rep.certificate.verdict == "not-intersection-function"


def test_verify_small_p_growing_power_reported(grid16):
    # p = 1/2 requires psi^{-1/2}, a growing function outside the admissible
    # decay class: reported as a failed hypothesis
    rep = verify_comparison_radon(gaussian(grid16), gaussian(grid16, amp=1.2),
                                  0.5)
    assert rep.hypothesis_holds is False
    assert "could not be certified" in rep.notes


def test_verify_indicator_scaling_example(grid16):
    """Dilation pair at p = 2, M = 2: psi(x) = M^{-2} phi(x/M) satisfies
    R psi(t) = R phi(t/M) >= R phi(t) while ||psi||_2^2 = ||phi||_2^2 / M."""
    M, w = 2.0, 1e-2
    phi = mollified_ball(1.0, w, grid=grid16)
    psi = mollified_ball(M, M * w, grid=grid16).scaled(M ** -2)
    rep = verify_comparison_radon(phi, psi, 2.0)
    assert rep.domination_margin >= -1e-9
    ratio = (rep.lp_psi / rep.lp_phi) ** 2
    assert abs(ratio - 1.0 / M) < 1e-3
    # hypothesis side: the mollified indicator cannot be certified on this
    # frequency grid (its ray profile oscillates without decay), which the
    # verifier reports rather than raises
    assert rep.hypothesis_holds is False


# ----------------------------------------------------------------------------
# Counterexample constructor
# ----------------------------------------------------------------------------

def test_counterexample_gaussian_p2(grid16):
    psi = gaussian(grid16)
    phi, rep = construct_counterexample_radon(psi, 2.0)
    assert rep.hypothesis_holds is False
    # non-negative, dominated, strictly larger norm
    assert phi.min_on_sample_grid(512) >= -1e-9
    scale = math.pi  # peak of R psi
    assert rep.domination_margin >= -1e-9 * scale
    assert rep.lp_phi > rep.lp_psi
    assert rep.chain["norm_gap"] > 1e-8
    assert rep.chain["bump_pairing"] < 0.0
    # the bump targets the negative-frequency window past 1/sqrt(2)
    assert rep.chain["bump_center"] > 1.0 / math.sqrt(2.0)


def _nonradial_psi(grid):
    """e^{-r^2} + 0.3 r^2 e^{-1.2 r^2} P_2(z): smooth, non-negative, and
    not radial."""
    z = grid.nodes[:, 2]
    return SeparableFunction([
        (radial_profile(lambda r: np.exp(-r * r)),
         SphericalFunction(grid, np.ones(grid.n_nodes), parity="even")),
        (radial_profile(lambda r: r * r * np.exp(-1.2 * r * r)),
         SphericalFunction(grid, 0.3 * (1.5 * z * z - 0.5), parity="even"))])


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_counterexample_nonradial(grid16, p):
    # the bump is radial for every psi: its window comes from the
    # direction-averaged ray measure, which goes negative for any integrable
    # psi^{p-1}; every property is rechecked through public calls
    psi = _nonradial_psi(grid16)
    phi, rep = construct_counterexample_radon(psi, p)
    assert rep.hypothesis_holds is False
    assert phi.min_on_sample_grid() >= -1e-9
    r_psi = radon_transform(psi)
    scale = float(np.max(np.abs(r_psi.values)))
    assert sinogram_dominates(radon_transform(phi), r_psi) >= -1e-9 * scale
    assert lp_norm_rn(phi, p) > lp_norm_rn(psi, p)


def _record_bessel_tables(monkeypatch):
    """Shapes of the j_k tables of degree k >= 1 built through
    radon3d.spherical_jn, from an empty kernel-table cache on."""
    radon3d._kernel_table.cache_clear()
    real = radon3d.spherical_jn
    shapes = []

    def counting(k, x):
        out = real(k, x)
        if k >= 1:
            shapes.append(out.shape)
        return out

    monkeypatch.setattr(radon3d, "spherical_jn", counting)
    return shapes


def test_counterexample_keeps_psi_r_max(grid16):
    # the bumps are sampled on psi's radial extent, so phi = psi - eta h is
    # one function with one r_max
    psi = separable_radial(lambda r: np.exp(-np.asarray(r, float) ** 2), grid16,
                           r_max=8.0, n=1024)
    phi, rep = construct_counterexample_radon(psi, 2.0)
    assert phi.r_max == 8.0
    assert phi.min_on_sample_grid(512) >= -1e-9
    assert lp_norm_rn(phi, 2.0) > lp_norm_rn(psi, 2.0)


def test_bump_search_shares_bessel_tables(grid16, monkeypatch):
    # every bump is radial, with the closed form -beta'(r) / (2 pi r): neither
    # the 3 x 3 lattice search nor any other lattice builds a Bessel table
    shapes = _record_bessel_tables(monkeypatch)
    psi = gaussian(grid16)
    phi, rep = construct_counterexample_radon(psi, 2.0)
    assert shapes == []
    assert phi.min_on_sample_grid(512) >= -1e-9
    assert sinogram_dominates(radon_transform(phi),
                              radon_transform(psi)) >= -1e-9 * math.pi
    assert lp_norm_rn(phi, 2.0) > lp_norm_rn(psi, 2.0)
    _bump_profiles([(1.1, 0.4), (0.9, 0.4), (1.1, 0.25), (12.0, 0.05)],
                   grid16, n_r=128)
    assert shapes == []
    # the recorder sees the tables that do get built: a degree-2 row's
    # transform takes one j_2 table per block of 64 radii
    fourier_along_rays(_nonradial_psi(grid16), grid16.nodes[:2],
                       np.linspace(0.0, 4.0, 100))
    assert len(shapes) == 2 and shapes[0][0] == 64


def _trapezoid_bump_reference(lattice, n_r):
    """Per lattice point, the trapezoid sum of beta^(s) j_0(rs) s^2 over
    each point's own frequency grid."""
    r_vals = np.linspace(0.0, 16.0, n_r)
    out = []
    for t0, sigma in lattice:
        s = np.linspace(0.0, max(20.0 / sigma, 4.0 * abs(t0), 40.0), 4096)
        bhat = 2.0 * sigma * math.sqrt(math.pi) * np.cos(s * t0) \
            * np.exp(-0.25 * (sigma * s) ** 2)
        out.append(np.trapezoid(
            scipy.special.spherical_jn(0, np.outer(r_vals, s))
            * (bhat * s * s)[None, :], s, axis=1) / (2.0 * math.pi ** 2))
    return out


@pytest.mark.parametrize("lattice", [
    [(t0, sigma) for t0 in (1.35, 1.15, 1.55) for sigma in (0.2, 0.13, 0.4)],
    [(0.0, 0.8), (0.5, 1.5), (2.0, 0.7)],
    [(12.0, 0.3), (3.0, 0.05)],
], ids=["lattice0-radial", "lattice1-radial", "lattice2-radial"])
def test_bump_profiles_match_trapezoid_reference(grid16, lattice):
    ref = _trapezoid_bump_reference(lattice, 128)
    for h, want in zip(_bump_profiles(lattice, grid16, n_r=128), ref):
        (block,) = h.blocks                        # one degree-0 row
        (u,) = block.samples
        assert np.array_equal(block.coeffs, [[math.sqrt(4.0 * math.pi)]])
        assert np.max(np.abs(u - want)) <= 1e-13 * np.max(np.abs(want))


def _as_terms(fn):
    """The rows of fn's one block as one-row input terms, each with its
    angular factor synthesized on its own: the term-per-mode representation
    the blocks replace, kept as the reference."""
    (block,) = fn.blocks
    l_max = math.isqrt(len(block.coeffs)) - 1
    return SeparableFunction([
        (RadialProfile(u, fn.r_max, block.profile.decay),
         synthesize(HarmonicSpectrum(l_max, c.copy()), fn.grid))
        for u, c in zip(block.samples, block.coeffs.T)])


@pytest.mark.parametrize("kind", ["fitted"])
def test_block_matches_one_term_per_row(grid16, kind):
    # one row per live mode of degrees 0, 2 and 4
    z = grid16.nodes @ np.array([0.3, -0.4, math.sqrt(0.75)])
    fn = separable_power(SeparableFunction([
        (radial_profile(lambda r: np.exp(-r * r)),
         SphericalFunction(grid16, np.ones(grid16.n_nodes), parity="even")),
        (radial_profile(lambda r: r * r * np.exp(-1.2 * r * r)),
         SphericalFunction(grid16, 0.3 * (1.5 * z * z - 0.5),
                           parity="even"))]), 2.0)
    terms = _as_terms(fn)
    assert len(terms.blocks) == len(fn.blocks[0].samples) > 4

    def close(a, b):
        return np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))

    r = np.linspace(0.0, 6.0, 40)
    pts = np.random.default_rng(3).standard_normal((40, 3))
    t = symmetric_nodes(512, 8.0)
    dirs = grid16.nodes[hemisphere_indices(grid16)]
    assert close(fn.values_polar(r), terms.values_polar(r))
    assert close(fn(pts), terms(pts))
    assert close(radon_transform(fn, t=t).values,
                 radon_transform(terms, t=t).values)
    assert close(fourier_along_rays(fn, dirs, r), fourier_along_rays(terms, dirs, r))


def test_wide_bump_transform_is_beta(grid16):
    t0, sigma = 0.9, 0.8
    (h,) = _bump_profiles([(t0, sigma)], grid16)
    t = symmetric_nodes()
    beta = np.exp(-((t - t0) / sigma) ** 2) + np.exp(-((t + t0) / sigma) ** 2)
    assert np.max(np.abs(radon_transform(h).values - beta[None, :])) \
        <= 1e-6 * np.max(beta)


def test_counterexample_not_applicable_when_certified(grid16):
    psi = catalog_entry("erf-type", grid16).f
    with pytest.raises(NotApplicable):
        construct_counterexample_radon(psi, 2.0)


def test_counterexample_p1_not_applicable(grid16):
    with pytest.raises(NotApplicable):
        construct_counterexample_radon(gaussian(grid16), 1.0)


def test_counterexample_rejects_bad_p(grid16):
    with pytest.raises(OutOfRange):
        construct_counterexample_radon(gaussian(grid16), -1.0)


# ----------------------------------------------------------------------------
# One report for S^2 and R^3
# ----------------------------------------------------------------------------

def _sphere_pair(grid, a, scale):
    z = grid.nodes[:, 2]
    f = SphericalFunction(grid, 1.0 + a * (1.5 * z * z - 0.5), parity="even")
    return f, SphericalFunction(grid, scale * f.values, parity="even")


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_both_verifiers_return_the_one_comparison_report(grid16, p):
    f, g = _sphere_pair(grid16, 0.2, 1.1)
    phi, psi = gaussian(grid16), gaussian(grid16, width=1.054, amp=1.3)
    s2 = verify_comparison_spherical(f, g, p)
    r3 = verify_comparison_radon(phi, psi, p)
    for rep in (s2, r3):
        assert type(rep) is ComparisonReport
        assert (rep.lp_phi, rep.lp_psi) == (rep.lp_f, rep.lp_g)
        if p == 1.0:        # domination alone is the hypothesis
            assert rep.hypothesis_holds is True and rep.certificate is None
    assert [r.values.tolist() for r in s2.transforms] \
        == [sradon_map(f).values.tolist(), sradon_map(g).values.tolist()]
    assert [r.rows.tolist() for r in r3.transforms] \
        == [radon_transform(phi).rows.tolist(), radon_transform(psi).rows.tolist()]
    assert r3.lp_f == lp_norm_rn(phi, p) and r3.lp_g == lp_norm_rn(psi, p)


def test_both_constructors_return_the_one_comparison_report(grid16):
    base, _ = _sphere_pair(grid16, 0.8, 1.0)
    f, s2 = construct_counterexample_spherical(base, 2.0)
    phi, r3 = construct_counterexample_radon(gaussian(grid16), 2.0)
    for rep in (s2, r3):
        assert type(rep) is ComparisonReport
        assert (rep.lp_phi, rep.lp_psi) == (rep.lp_f, rep.lp_g)
        assert rep.hypothesis_holds is False and rep.certificate is not None
        assert len(rep.transforms) == 2
    assert s2.transforms[0].values.tolist() == sradon_map(f).values.tolist()
    assert r3.transforms[0].rows.tolist() == radon_transform(phi).rows.tolist()
