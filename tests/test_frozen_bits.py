"""Bit-for-bit oracles of the R^3 kernels against the forms they replaced:
the spline slope solve against a frozen copy of the per-call tridiagonal
sweep, transforms evaluated at live degrees only against all degrees, and
the nine-bump pairing against one pairing per bump.  Equality includes the
sign of zero (the float64 bit patterns must agree)."""

import math

import numpy as np
import pytest

from radoncomp import radon3d
from radoncomp.compare3d import _bump_profiles, _combine, _integral_against
from radoncomp.radon3d import (
    RadialProfile,
    SeparableFunction,
    _column_classes,
    _Cubic,
    _modal_function,
    cubic_spline,
    fourier_along_rays,
    hemisphere_indices,
    radial_profile,
    radon_transform,
    separable_power,
    separable_radial,
)
from radoncomp.sphere import SphericalFunction, radial_gauss_legendre


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a, float), np.ascontiguousarray(b, float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


# ----------------------------------------------------------------------------
# The spline's slope solve
# ----------------------------------------------------------------------------

def _frozen_thomas(lower, diag, upper, b):
    """The per-call tridiagonal sweep that cubic_spline used to run."""
    rows, d = b.reshape(-1, b.shape[-1]), list(diag)
    r = rows[0].tolist() if len(rows) == 1 else list(rows.T.copy())
    for i in range(1, len(d)):
        f = lower[i] / d[i - 1]
        d[i] -= f * upper[i - 1]
        r[i] = r[i] - f * r[i - 1]
    r[-1] = r[-1] / d[-1]
    for i in range(len(d) - 2, -1, -1):
        r[i] = (r[i] - upper[i] * r[i + 1]) / d[i]
    return np.array(r).T.reshape(b.shape)


def _frozen_cubic_spline(x, y):
    dx = np.diff(x)
    slope = np.diff(y, axis=-1) / dx
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    b = np.empty(np.shape(y))
    b[..., 1:-1] = 3 * (dx[1:] * slope[..., :-1] + dx[:-1] * slope[..., 1:])
    b[..., 0] = ((dx[0] + 2 * d0) * dx[1] * slope[..., 0]
                 + dx[0] ** 2 * slope[..., 1]) / d0
    b[..., -1] = (dx[-1] ** 2 * slope[..., -2]
                  + (2 * d1 + dx[-1]) * dx[-2] * slope[..., -1]) / d1
    h = dx.tolist()
    return _Cubic(x, y, _frozen_thomas(
        [0.0, *h[1:], float(d1)],
        [h[1], *(2 * (dx[:-1] + dx[1:])).tolist(), h[-2]],
        [float(d0), *h[:-1], 0.0], b))


@pytest.mark.parametrize("n", [4, 5, 7, 1024, 2048])
@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("nodes", ["uniform", "non-uniform"])
def test_cubic_spline_bits_match_the_per_call_sweep(n, rows, nodes):
    rng = np.random.default_rng(7 * n + rows)
    x = np.linspace(0.0, 16.0, n) if nodes == "uniform" \
        else np.cumsum(rng.uniform(0.5, 1.5, n))
    y = rng.standard_normal((rows, n))
    y[:, 1], y[:, -2] = 0.0, -0.0          # zeros of both signs
    for yy in (y, y[0]) if rows == 1 else (y,):
        got, want = cubic_spline(x, yy), _frozen_cubic_spline(x, yy)
        assert all(same_bits(g, w) for g, w in zip(got.c, want.c))
        # a second call reads the cached elimination and gives the same bits
        assert all(same_bits(g, w) for g, w in zip(cubic_spline(x, yy).c,
                                                   got.c))


# ----------------------------------------------------------------------------
# Harmonic rows at the live degrees only
# ----------------------------------------------------------------------------

def _flat(k, m):
    return k * k + k + m


def _live_02(grid):
    """Two input blocks, degree 0 and degree 2 (P_2(z))."""
    z = grid.nodes[:, 2]
    return SeparableFunction([
        (radial_profile(lambda r: np.exp(-r * r)),
         SphericalFunction(grid, np.ones(grid.n_nodes), parity="even")),
        (radial_profile(lambda r: r * r * np.exp(-1.2 * r * r)),
         SphericalFunction(grid, 0.3 * (1.5 * z * z - 0.5), parity="even"))])


def _modal(grid, modes):
    """One block of l_max 15 with one Gaussian-type row per (k, m) mode."""
    r = np.linspace(0.0, 16.0, 2048)
    u = np.stack([(0.5 + 0.1 * i) * r ** k * np.exp(-(1.0 + 0.1 * i) * r * r)
                  for i, (k, _) in enumerate(modes)])
    return _modal_function(grid, 15, r,
                           np.array([_flat(k, m) for k, m in modes]), u)


LIVE_INPUTS = {
    "0": (lambda g: separable_radial(lambda r: np.exp(-r * r), g), [1]),
    "0,2": (_live_02, [1, 9]),
    "0,2 one block": (lambda g: _modal(g, [(0, 0), (2, 0), (2, -2)]), [9]),
    "0,4,8": (lambda g: _modal(g, [(0, 0), (4, 0), (4, 3), (8, -5)]), [81]),
}


@pytest.mark.parametrize("name", sorted(LIVE_INPUTS))
def test_transforms_at_live_degrees_match_all_degrees(grid16, monkeypatch,
                                                      name):
    build, lengths = LIVE_INPUTS[name]
    f = build(grid16)
    dirs = grid16.nodes[hemisphere_indices(grid16)]
    r_vals = np.linspace(0.0, 6.0, 40)
    real, seen = radon3d.degree_values_rows, []

    def spy(coeffs, points):
        seen.append(len(coeffs))
        return real(coeffs, points)

    def every_degree(coeffs, points):
        # the block's whole table (l_max 15 on the 16 x 32 grid), the
        # live rows in front
        full = np.zeros((256,) + coeffs.shape[1:])
        full[:len(coeffs)] = coeffs
        return real(full, points)

    monkeypatch.setattr(radon3d, "degree_values_rows", spy)
    sino, rays = radon_transform(f), fourier_along_rays(f, dirs, r_vals)
    assert seen == lengths * 2        # one call per block and transform
    monkeypatch.setattr(radon3d, "degree_values_rows", every_degree)
    ref_sino, ref_rays = radon_transform(f), fourier_along_rays(f, dirs, r_vals)
    assert same_bits(sino.rows, ref_sino.rows)
    assert np.array_equal(sino.index, ref_sino.index)
    assert same_bits(rays, ref_rays)


# ----------------------------------------------------------------------------
# The lattice pairing in one pass
# ----------------------------------------------------------------------------

def _frozen_integral_against(w_fn, h):
    """int w h for one h, as the constructor took it per bump."""
    both = SeparableFunction(w_fn.blocks + h.blocks)
    first, index = both.node_classes()
    rg, wg = radial_gauss_legendre(both.r_max, 300)
    vals = w_fn.values_polar(rg, first) * h.values_polar(rg, first)
    return float(((wg * rg * rg) @ vals)[index] @ both.grid.weights)


@pytest.mark.parametrize("w_name", ["radial", "non-radial"])
def test_nine_bump_pairing_matches_nine_single_pairings(grid16, w_name):
    psi = separable_radial(lambda r: 1.3 * np.exp(-0.7 * r * r), grid16) \
        if w_name == "radial" else _live_02(grid16)
    w_fn = separable_power(psi, 2.0)
    lattice = [(t0, s) for t0 in (1.2, 1.02, 1.38) for s in (0.2, 0.13, 0.4)]
    bumps = _bump_profiles(lattice, grid16, psi.r_max)
    got = _integral_against(w_fn, bumps)
    want = [_frozen_integral_against(w_fn, h) for h in bumps]
    assert len(got) == 9 and same_bits(got, want)
    assert len(set(got)) == 9                # nine different pairings


# ----------------------------------------------------------------------------
# Shared read-only grids and per-function classes
# ----------------------------------------------------------------------------

def test_cached_elimination_radii_and_classes_are_read_only(grid16,
                                                            monkeypatch):
    x = np.linspace(0.0, 16.0, 1024)
    elim = radon3d._elimination(x.tobytes())
    assert radon3d._elimination(x.tobytes()) is elim
    a = RadialProfile(np.exp(-x * x), 16.0)
    b = RadialProfile(np.exp(-2.0 * x * x), 16.0)
    assert a.r is b.r and np.array_equal(a.r, x)
    f = _live_02(grid16)
    calls = []
    monkeypatch.setattr(radon3d, "_column_classes",
                        lambda cols: calls.append(1) or _column_classes(cols))
    classes = f.node_classes()
    assert f.node_classes() is classes and len(calls) == 1
    for arr in (elim, a.r, *classes):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_scaled_and_combined_functions_get_their_own_classes(grid16):
    psi = _live_02(grid16)
    classes = psi.node_classes()
    scaled = psi.scaled(2.0)
    assert scaled.node_classes() is not classes
    assert all(np.array_equal(a, b)
               for a, b in zip(scaled.node_classes(), classes))
    # a combination whose bump splits no class, and one whose angular
    # factor splits psi's classes
    h = _bump_profiles([(1.0, 0.3)], grid16, psi.r_max)[0]
    x = grid16.nodes[:, 0]
    split = SeparableFunction([(radial_profile(lambda r: np.exp(-r * r)),
                                SphericalFunction(grid16, x * x,
                                                  parity="even"))])
    for other in (h, split):
        combined = _combine(psi, other, -0.25)
        want = _column_classes(np.concatenate(
            [blk.values for blk in combined.blocks]))
        got = combined.node_classes()
        assert got is not classes
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert len(_combine(psi, split, -0.25).node_classes()[0]) \
        > len(classes[0])
    assert math.isclose(np.bincount(classes[1], grid16.weights).sum(),
                        4.0 * math.pi, rel_tol=1e-14)
