"""Classical Radon transform on R^3 for separable functions, the Fourier-slice
machinery, intersection-function certification, and the catalog of
closed-form worked examples.

Conventions (used consistently across the package):
  * 3D Fourier transform  f^(xi) = integral f(x) exp(-i<x, xi>) dx; for radial
    f this is  f^(r) = (4 pi / r) integral_0^inf s u(s) sin(rs) ds.
  * 1D transform in the offset variable with the same sign convention.
  * Fourier slice: the 1D transform in t of Rf(t, theta) equals f^(r theta).
  * For f built as the dual Radon transform of data g(t, theta):
        r^2 f^(r theta) = 8 pi^2 * (g(., theta))^_t(r),
    the constant being fixed once by the radial Gaussian calibration.
  * The ray profile m_theta(r) = r^2 f^(r theta) is positive definite iff its
    1D transform is non-negative; f is an intersection function iff this holds
    for every direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (
    BandwidthExceeded,
    CertificateRequired,
    DecayTooSlow,
    GridTooCoarse,
    InputInvalid,
)
from .multipliers import PDCertificate
from .reports import write_table
from .sphere import (
    HarmonicSpectrum,
    SphereGrid,
    SphericalFunction,
    analyze,
    analyze_rows,
    build_grid,
    degree_values_rows,
    erf,
    orthonormal_frame,
    radial_gauss_legendre,
)
from .tolerances import DEFAULTS

__all__ = [
    "RadialProfile", "SeparableFunction", "RowBlock", "Sinogram",
    "IntersectionCertificate", "symmetric_nodes", "fourier_1d",
    "radial_profile", "separable_radial", "separable_from_polar_samples",
    "separable_power", "mollified_ball", "hemisphere_indices",
    "radon_transform", "radon_direct_point", "certify_intersection_function",
    "classification_witness", "catalog_entry", "CATALOG_NAMES",
    "PAIRING_CONSTANT", "RELATION_CONSTANT",
]

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi
# r^2 f^(r theta) = RELATION_CONSTANT * (g_t)^(r) for f the dual Radon
# transform of g; equals (2 pi)^3 / pi under the conventions above.
RELATION_CONSTANT = 8.0 * math.pi ** 2
# integral f*phi = PAIRING_CONSTANT * int_{S^2} int_R Rphi(t,theta) dmu_theta(t)
# with mu_theta the 1D transform of m_theta; equals 1 / (2 (2 pi)^3).
PAIRING_CONSTANT = 1.0 / (16.0 * math.pi ** 3)

DEFAULT_T_MAX = 16.0
DEFAULT_N = 2048
# Bandwidth of the harmonic fits of powers on R^3.
_FIT_L_MAX = 8
# A harmonic mode whose radial coefficients all stay at most this fraction of
# the largest one is dropped from a fitted function.
_MODE_CUT = 1e-12


# ----------------------------------------------------------------------------
# 1D grids and transforms
# ----------------------------------------------------------------------------

def symmetric_nodes(n: int = DEFAULT_N, t_max: float = DEFAULT_T_MAX) -> np.ndarray:
    """Uniform symmetric grid t_j = (j - n/2) * dt on [-T, T), containing 0."""
    dt = 2.0 * t_max / n
    return (np.arange(n) - n // 2) * dt


def fourier_1d(values: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Continuous-convention 1D transform dt * sum v_j exp(-i w_k t_j) along
    the last axis, so a (D, n) table transforms row by row in one call.

    Input on the symmetric_nodes grid; returns (omega, transform) on the
    matching centered frequency grid.  Real part returned (even real input).
    """
    n = values.shape[-1]
    # one complex copy, transformed and scaled in place: a (D, n) table's
    # transient stays at three times the table
    spec = np.fft.ifftshift(values, axes=-1).astype(complex)
    np.fft.fft(spec, out=spec)
    spec *= dt
    domega = 2.0 * math.pi / (n * dt)
    omega = (np.arange(n) - n // 2) * domega
    return omega, np.fft.fftshift(spec.real, axes=-1)


# ----------------------------------------------------------------------------
# Splines, cumulative Simpson, j_k and erfc in NumPy and the standard library
# (as sphere.legendre and sphere.erf), so that no scipy module loads
# ----------------------------------------------------------------------------

class _Cubic:
    """Cubic Hermite interpolant through (x_i, y_i) with slopes dydx_i along
    y's last axis: SciPy's CubicHermiteSpline, operation for operation."""

    def __init__(self, x: np.ndarray, y: np.ndarray, dydx: np.ndarray):
        dx = np.diff(x)
        slope = np.diff(y, axis=-1) / dx
        t = (dydx[..., :-1] + dydx[..., 1:] - 2 * slope) / dx
        self.x = x
        self.c = (t / dx, (slope - dydx[..., :-1]) / dx - t, dydx[..., :-1],
                  y[..., :-1])

    def __call__(self, xq, nu: int = 0) -> np.ndarray:
        """Values (nu = 0) or slopes (nu = 1) at xq: y.shape[:-1] + xq.shape."""
        xq = np.asarray(xq, dtype=float)
        i = np.clip(np.searchsorted(self.x, xq, "right") - 1, 0, len(self.x) - 2)
        s = xq - self.x[i]
        c0, c1, c2, c3 = (c[..., i] for c in self.c)
        if nu:
            return c2 + c1 * s * 2 + c0 * (s * s) * 3
        return c3 + c2 * s + c1 * (s * s) + c0 * (s * s * s)


@lru_cache(maxsize=4)
def _elimination(x: bytes) -> np.ndarray:
    """Multipliers, pivots and upper diagonal of cubic_spline's slope system
    on the float64 nodes given by their bytes, eliminated as LAPACK gtsv does
    without row swaps: built once per grid, shared read-only."""
    x = np.frombuffer(x)
    dx = np.diff(x)
    h, f = dx.tolist(), [0.0] * len(x)
    d = [h[1], *(2 * (dx[:-1] + dx[1:])).tolist(), h[-2]]
    upper = [float(x[2] - x[0]), *h[:-1], 0.0]
    for i, lower in enumerate([*h[1:], float(x[-1] - x[-3])], 1):
        f[i] = lower / d[i - 1]
        d[i] -= f[i] * upper[i - 1]
    out = np.array([f, d, upper])
    out.flags.writeable = False
    return out


def cubic_spline(x: np.ndarray, y: np.ndarray) -> _Cubic:
    """SciPy's not-a-knot CubicSpline(x, y, axis=-1) for n >= 4 nodes: its
    slope system, which gtsv solves without row swaps on uniform nodes; one
    right-hand side sweeps as Python floats, several as NumPy rows."""
    dx = np.diff(x)
    slope = np.diff(y, axis=-1) / dx
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    b = np.empty(np.shape(y))
    b[..., 1:-1] = 3 * (dx[1:] * slope[..., :-1] + dx[:-1] * slope[..., 1:])
    b[..., 0] = ((dx[0] + 2 * d0) * dx[1] * slope[..., 0]
                 + dx[0] ** 2 * slope[..., 1]) / d0
    b[..., -1] = (dx[-1] ** 2 * slope[..., -2]
                  + (2 * d1 + dx[-1]) * dx[-2] * slope[..., -1]) / d1
    f, d, upper = _elimination(np.asarray(x, dtype=float).tobytes()).tolist()
    rows = b.reshape(-1, b.shape[-1])
    r = rows[0].tolist() if len(rows) == 1 else list(rows.T.copy())
    acc = r[0]
    for i, fi in zip(range(1, len(r)), f[1:]):
        r[i] = acc = r[i] - fi * acc
    r[-1] = acc = acc / d[-1]
    for i, ui, di in zip(range(len(r) - 2, -1, -1), upper[-2::-1], d[-2::-1]):
        r[i] = acc = (r[i] - ui * acc) / di
    return _Cubic(x, y, np.array(r).T.reshape(b.shape))


def _cumulative_simpson(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SciPy's cumulative_simpson(y, x=x, axis=-1, initial=0), operation for
    operation: each cell from the parabola through it and the next node,
    every second cell and the last one through the previous node."""
    def first_cells(y, dx):
        a, b = dx[:-1] / (dx[:-1] + dx[1:]), dx[:-1] / dx[1:]
        return dx[:-1] / 6 * ((3 - a) * y[..., :-2] + (3 + a * b + a)
                              * y[..., 1:-1] + -(a * b) * y[..., 2:])

    dx = np.diff(x)
    h1, h2 = first_cells(y, dx), first_cells(y[..., ::-1], dx[::-1])[..., ::-1]
    cells = np.zeros(np.shape(y))
    cells[..., 1:-1:2], cells[..., 2::2] = h1[..., ::2], h2[..., ::2]
    cells[..., -1] = h2[..., -1]
    return np.cumsum(cells, axis=-1)


def _integral_spline(x: np.ndarray, y: np.ndarray,
                     from_end: bool = False) -> _Cubic:
    """Hermite cubic of int_{x_0}^{x} y, or of int_{x}^{x_end} y, through the
    cumulative-Simpson node values."""
    cum = _cumulative_simpson(x, y)
    return _Cubic(x, cum[..., -1:] - cum, -y) if from_end else _Cubic(x, cum, y)


def spherical_jn(k: int, x) -> np.ndarray:
    """Spherical Bessel j_k(x) for x >= 0: where x > k SciPy's own upward
    recurrence from sin(x)/x (the same bits), where x <= k, on which the
    recurrence amplifies rounding, the power series
    x^k / (2k+1)!! sum_m (-x^2/2)^m / (m! (2k+3)(2k+5)...(2k+2m+1))."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        s1 = np.sin(x) / x
        if k > 0:
            s0, s1 = s1, (s1 - np.cos(x)) / x
        for i in range(k - 1):
            s0, s1 = s1, (2 * i + 3) * s1 / x - s0
    small = x <= k if k else x == 0.0
    if np.any(small):
        xs = x[small]
        term = total = xs ** k / math.prod(range(1, 2 * k + 2, 2))
        m = 1
        while np.any(np.abs(term) > 1e-17 * np.abs(total)):
            term = term * (-0.5 * xs * xs) / (m * (2 * k + 2 * m + 1))
            total, m = total + term, m + 1
        s1[small] = total
    return s1


# The complementary error function elementwise, float64: math.erfc on each value.
erfc = np.vectorize(math.erfc, otypes=[float])


# ----------------------------------------------------------------------------
# Radial profiles and separable functions
# ----------------------------------------------------------------------------

@dataclass
class RadialProfile:
    """Samples of u(r) on the uniform grid r_i = i * dr, r in [0, R_max]: one
    row (n,), or q rows (q, n) evaluated together.  An evaluator, when given,
    stands for a one-row profile."""

    samples: np.ndarray
    r_max: float
    decay: str = "schwartz"          # "schwartz" | "algebraic"
    evaluator: Callable | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.decay not in ("schwartz", "algebraic"):
            raise InputInvalid(f"unknown decay tag {self.decay!r}")
        if self.evaluator is not None and self.samples.ndim != 1:
            raise InputInvalid("an evaluator describes one row of samples")
        self._spline = None

    @property
    def r(self) -> np.ndarray:
        return _radii(self.r_max, self.samples.shape[-1])

    def __call__(self, r) -> np.ndarray:
        """u at radii r: r.shape for one row, (q,) + r.shape for q rows."""
        r = np.asarray(r, dtype=float)
        if self.evaluator is not None:
            return np.asarray(self.evaluator(r), dtype=float)
        u, x = self.samples.reshape(-1, self.samples.shape[-1]), r.ravel()
        if self._spline is None and u.shape[1] >= 4 and np.all(np.isfinite(u)):
            self._spline = cubic_spline(self.r, u)
        out = np.array([np.interp(x, self.r, row) for row in u]) \
            if self._spline is None else self._spline(np.clip(x, 0.0, self.r_max))
        right = 0.0 if self.decay == "schwartz" else u[:, -1:]
        return np.where(x > self.r_max, right, out).reshape(
            self.samples.shape[:-1] + r.shape)

    def scaled(self, c: float) -> "RadialProfile":
        """c * u, for the samples and the evaluator alike."""
        ev = self.evaluator
        return RadialProfile(self.samples * c, self.r_max, self.decay,
                             (lambda r: c * ev(r)) if ev else None)


@lru_cache(maxsize=4)
def _radii(r_max: float, n: int) -> np.ndarray:
    r = np.linspace(0.0, r_max, n)
    r.flags.writeable = False
    return r


def radial_profile(fn: Callable | None = None, samples=None,
                   r_max: float = DEFAULT_T_MAX, n: int = DEFAULT_N,
                   decay: str = "schwartz") -> RadialProfile:
    if samples is None:
        if fn is None:
            raise InputInvalid("radial_profile needs an evaluator or samples")
        samples = fn(np.linspace(0.0, r_max, n))
    return RadialProfile(np.asarray(samples, float), r_max, decay, fn)


def _with_origin(u: Callable, u0: float) -> Callable:
    """r -> u(r) for r > 0 and the limit u0 at r <= 0; u never sees r = 0."""
    def at(r):
        r = np.asarray(r, float)
        with np.errstate(divide="ignore"):
            return np.where(r > 0.0, u(np.maximum(r, 1e-300)), u0)
    return at


def _column_classes(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, index): the first column of each class of columns of a (K, N)
    table that agree exactly in every row (all, when K = 0), and each
    column's class."""
    # np.lexsort, not np.unique: np.unique loads numpy.ma
    order = np.lexsort(cols[::-1]) if len(cols) else np.arange(cols.shape[1])
    ordered = cols[:, order]
    new = np.append(True, np.any(ordered[:, 1:] != ordered[:, :-1], axis=0))
    index = np.empty(len(order), dtype=int)
    index[order] = np.cumsum(new) - 1
    return order[new], index


def _constant_angular(grid: SphereGrid) -> SphericalFunction:
    return SphericalFunction(grid, np.ones(grid.n_nodes),
                             HarmonicSpectrum.mode(0, 0, math.sqrt(FOUR_PI)), "even")


@dataclass(frozen=True, eq=False)
class RowBlock:
    """q rows sum_i u_i(|x|) l_i(x / |x|) on one radial grid: the radial
    samples as one profile, the even angular rows l_i as node values and as
    flat harmonic coefficients, exactly zero outside each row's live modes."""

    profile: RadialProfile           # samples (n,) for one row, (q, n) for q
    values: np.ndarray               # (q, n_nodes)
    coeffs: np.ndarray               # ((l_max+1)^2, q)
    grid: SphereGrid

    @property
    def samples(self) -> np.ndarray:
        """(q, n) radial samples."""
        return np.atleast_2d(self.profile.samples)


def _input_block(profile: RadialProfile, ang: SphericalFunction) -> RowBlock:
    """The one-row block of an input term, keeping the live coefficients of
    its angular factor (``HarmonicSpectrum.live_modes``), which must be even."""
    resid = ang.antipodal_residual()
    if resid > 1e-8 * max(ang.max_abs(), 1e-300):
        raise InputInvalid(
            f"angular factor has antipodal asymmetry {resid:.2e}; "
            "only even functions are representable"
        )
    spec = ang.spectrum if ang.spectrum is not None else analyze(ang)
    live, coeffs = spec.live_modes(), np.zeros((len(spec.coeffs), 1))
    coeffs[live, 0] = spec.coeffs[live]
    return RowBlock(profile, ang.values[None, :], coeffs, ang.grid)


@dataclass
class SeparableFunction:
    """x -> sum_i u_i(|x|) * l_i(x / |x|), each angular factor even.

    Stored as row blocks (RowBlock) sharing one sphere grid and one r_max;
    every kernel does one array operation per block and harmonic degree.
    Input (RadialProfile, SphericalFunction) terms become one-row blocks;
    the builders emit one block of many rows on one radial grid.
    """

    blocks: list
    fourier_radial: Callable | None = None   # closed-form f^(r) when f radial
    name: str = ""

    def __post_init__(self):
        self.blocks = [b if isinstance(b, RowBlock) else _input_block(*b)
                       for b in self.blocks]
        r_maxes = sorted({b.profile.r_max for b in self.blocks})
        if len(r_maxes) > 1:
            raise InputInvalid(
                f"terms are sampled to different radii (r_max {r_maxes[0]:g} "
                f"and {r_maxes[-1]:g}); a function has one r_max")
        self._classes = None

    @property
    def grid(self) -> SphereGrid:
        return self.blocks[0].grid

    @property
    def r_max(self) -> float:
        return self.blocks[0].profile.r_max

    @property
    def is_radial(self) -> bool:
        return all(np.all(np.ptp(b.values, axis=1) <= 1e-12 * np.maximum(
            np.max(np.abs(b.values), axis=1), 1e-300)) for b in self.blocks)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        r = np.linalg.norm(points, axis=1)
        dirs = np.where(r[:, None] > 0.0, points / np.maximum(r, 1e-300)[:, None],
                        np.array([0.0, 0.0, 1.0]))
        out = np.zeros(len(points))
        for b in self.blocks:
            ang = degree_values_rows(b.coeffs, dirs).sum(axis=0)
            out += (np.atleast_2d(b.profile(r)) * ang).sum(axis=0)
        return out

    def values_polar(self, r_vals: np.ndarray,
                     nodes: np.ndarray | None = None) -> np.ndarray:
        """(n_r, n) samples on radii x the angular-grid nodes indexed by
        ``nodes`` (all of them by default)."""
        r_vals = np.asarray(r_vals, dtype=float)
        # sum over rows of outer(u_i, l_i): for one row, np.outer's bits;
        # take keeps rows C-ordered, so a node's bits ignore the other nodes
        return sum(np.einsum("qa,qb->ab", np.atleast_2d(b.profile(r_vals)),
                             b.values if nodes is None
                             else b.values.take(nodes, axis=1))
                   for b in self.blocks)

    def node_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """(first, index): the first node of each class of grid nodes whose
        angular values agree exactly in every row of every block, and each
        node's class.  values_polar(r, first)[:, index] is values_polar(r).
        Worked out once per function; both arrays are read-only."""
        if self._classes is None:
            self._classes = _column_classes(
                np.concatenate([b.values for b in self.blocks]))
            for a in self._classes:
                a.flags.writeable = False
        return self._classes

    def scaled(self, c: float) -> "SeparableFunction":
        fr = self.fourier_radial
        return SeparableFunction([replace(b, profile=b.profile.scaled(c))
                                  for b in self.blocks],
                                 None if fr is None else (lambda r: c * fr(r)),
                                 self.name)

    def require_finite(self, name: str = "f") -> None:
        """Raise InputInvalid on NaN samples anywhere, or on infinite ones
        away from r = 0 (the only place a singular profile may blow up)."""
        for b in self.blocks:
            s = b.samples
            if np.isnan(s).any() or np.isinf(s[:, 1:]).any() \
                    or not np.isfinite(b.values).all():
                raise InputInvalid(
                    f"{name} has non-finite samples (NaN anywhere, or inf "
                    "away from r = 0)")

    def min_on_sample_grid(self, n_r: int = 256) -> float:
        r_vals = np.linspace(0.0, self.r_max, n_r)
        return float(np.min(self.values_polar(r_vals, self.node_classes()[0])))


def separable_radial(fn: Callable | None = None, grid: SphereGrid | None = None,
                     samples=None, r_max: float = DEFAULT_T_MAX,
                     n: int = DEFAULT_N, decay: str = "schwartz",
                     fourier_radial: Callable | None = None,
                     name: str = "") -> SeparableFunction:
    """Radial function u(|x|) as a single separable term."""
    if grid is None:
        grid = build_grid(16, 32)
    profile = radial_profile(fn, samples, r_max, n, decay)
    return SeparableFunction([(profile, _constant_angular(grid))],
                             fourier_radial, name)


def _modal_function(grid: SphereGrid, l_max: int, r_vals: np.ndarray,
                    modes: np.ndarray, u: np.ndarray) -> SeparableFunction:
    """sum_i u_i(r) Y_{modes[i]} as one block of Schwartz rows, from u
    (len(modes), n_r) sampled on r_vals; the zero function when there are
    no modes."""
    r_max = float(r_vals[-1])
    if not len(modes):
        return SeparableFunction([(RadialProfile(np.zeros(len(r_vals)), r_max),
                                   _constant_angular(grid))])
    coeffs = np.eye((l_max + 1) ** 2)[:, modes]
    values = degree_values_rows(coeffs, grid.nodes).sum(axis=0)
    return SeparableFunction([RowBlock(RadialProfile(u, r_max), values,
                                       coeffs, grid)])


def _live_modes(coeffs: np.ndarray, l_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices and degrees of the even-degree rows of a (mode x sample)
    table that reach _MODE_CUT of its largest entry."""
    deg = HarmonicSpectrum.mode(l_max, 0).degrees()
    cut = _MODE_CUT * max(float(np.max(np.abs(coeffs))), 1e-300)
    modes = np.flatnonzero(~(np.max(np.abs(coeffs), axis=1) <= cut)
                           & (deg % 2 == 0))
    return modes, deg[modes]


def separable_from_polar_samples(values: np.ndarray, r_vals: np.ndarray,
                                 grid: SphereGrid, l_max: int) -> SeparableFunction:
    """Fit (n_r, n_nodes) even polar samples as a sum of harmonic modes.

    Each retained (k, m) mode becomes one row of a single block: radial
    coefficient samples times the unit harmonic.  Radii must be uniform
    starting at 0.
    """
    r_vals = np.asarray(r_vals, dtype=float)
    coeffs = analyze_rows(grid, np.transpose(values), l_max)
    modes, _ = _live_modes(coeffs, l_max)
    return _modal_function(grid, l_max, r_vals, modes, coeffs[modes])


def separable_power(phi: SeparableFunction, e: float) -> SeparableFunction:
    """phi^e as a SeparableFunction; rejects powers that destroy decay.

    A decaying phi raised to a negative power grows at infinity and leaves
    the admissible class; detected on the radial sample grid.
    """
    if e == 1.0:
        return phi
    r_max, n_r = phi.r_max, 512
    block, *rest = phi.blocks
    if not rest and len(block.values) == 1 and phi.is_radial:
        a = float(block.values[0, 0])
        base_eval = (lambda r: block.profile(r).reshape(np.shape(r)) * a)
        vals = base_eval(np.linspace(0.0, r_max, n_r))
        powered = np.abs(vals) ** e * np.sign(vals)
        _check_power_decay(vals[1:], powered[1:], e)  # origin may be singular
        ev = (lambda r: np.abs(base_eval(r)) ** e * np.sign(base_eval(r)))
        return separable_radial(ev, phi.grid, r_max=r_max,
                                n=block.samples.shape[1],
                                decay=block.profile.decay)
    r_vals = np.linspace(0.0, r_max, n_r)
    first, index = phi.node_classes()
    vals = phi.values_polar(r_vals, first)
    powered = np.abs(vals) ** e * np.sign(vals)
    _check_power_decay(vals[1:], powered[1:], e)      # origin may be singular
    return separable_from_polar_samples(powered[:, index], r_vals, phi.grid,
                                        _FIT_L_MAX)


def _check_power_decay(base: np.ndarray, powered: np.ndarray, e: float) -> None:
    """Reject powers that degrade decay out of the admissible class: the
    powered boundary/peak ratio must stay below the threshold unless the
    input itself already carried it (identity-like powers of admissible
    algebraic-decay data pass through)."""
    tail = float(np.max(np.abs(powered[-1])))
    peak = float(np.max(np.abs(powered)))
    ratio = tail / max(peak, 1e-300)
    base_ratio = float(np.max(np.abs(base[-1]))) / max(
        float(np.max(np.abs(base))), 1e-300)
    if not np.all(np.isfinite(powered)) or (ratio > 1e-4 and ratio > base_ratio):
        raise InputInvalid(
            f"power {e} leaves the admissible decay class "
            f"(boundary/peak ratio {ratio:.2e})"
        )


def mollified_ball(radius: float = 1.0, width: float = 1e-2,
                   grid: SphereGrid | None = None) -> SeparableFunction:
    """Smoothed indicator of the centered ball: erfc((r-R)/w) / 2."""
    def u(r):
        return 0.5 * erfc((np.asarray(r, float) - radius) / width)

    return separable_radial(u, grid, n=4 * DEFAULT_N, name=f"ball(R={radius})")


def hemisphere_indices(grid: SphereGrid) -> np.ndarray:
    """One node index per antipodal pair, together half the quadrature
    weight: the nodes with positive z and, on the equator of an odd polar
    count, those with azimuth index below n_azimuth / 2."""
    z = grid.nodes[:, 2]
    first_half = np.arange(grid.n_nodes) % grid.n_azimuth < grid.n_azimuth // 2
    return np.nonzero((z > 0.0) | ((z == 0.0) & first_half))[0]


# ----------------------------------------------------------------------------
# Sinograms
# ----------------------------------------------------------------------------

@dataclass
class Sinogram:
    """Radon-transform samples: one row of values per class of directions
    whose transforms agree exactly, and the class of each direction."""

    t: np.ndarray                 # (n_t,) symmetric uniform offsets
    directions: np.ndarray        # (D, 3) unit vectors
    rows: np.ndarray              # (C, n_t), one per class
    index: np.ndarray             # (D,) class of each direction

    @property
    def values(self) -> np.ndarray:
        """(D, n_t): the row of each direction."""
        return self.rows[self.index]

    @property
    def dt(self) -> float:
        # symmetric_nodes' 2 T / n: t[1] - t[0] carries the nodes' rounding
        return float(-self.t[0] / (len(self.t) // 2))

    def evenness_residual(self) -> float:
        n = len(self.t)
        v = self.rows[:, 1:] if n % 2 == 0 else self.rows
        resid = np.max(np.abs(v - v[:, ::-1]))
        return float(resid) / max(float(np.max(np.abs(self.rows))), 1e-300)

    def masses(self) -> np.ndarray:
        return np.trapezoid(self.rows, self.t, axis=1)[self.index]

    def mass_residual(self) -> float:
        m = self.masses()
        mean = float(np.mean(m))
        return float(np.max(np.abs(m - mean))) / max(abs(mean), 1e-300)

    def to_csv(self, path: str) -> None:
        write_table(path,
                    f"# t_max,{float(-self.t[0])!r}\n# dt,{self.dt!r}\n"
                    f"# n_t,{len(self.t)}\n"
                    "# columns: dir_x,dir_y,dir_z,values...\n",
                    self.rows, lead=self.directions, index=self.index)


# ----------------------------------------------------------------------------
# Radon transform
# ----------------------------------------------------------------------------

def _radial_plane_integral(profile: RadialProfile, t_abs: np.ndarray) -> np.ndarray:
    """2 pi * integral_{|t|}^{R} u(s) s ds, Hermite-interpolated between
    nodes; one row (len(t_abs),) per profile row."""
    s = profile.r
    su = s * np.atleast_2d(profile.samples)
    out = _integral_spline(s, su, from_end=True)(np.clip(t_abs, 0.0, s[-1]))
    out[:, t_abs >= s[-1]] = 0.0
    return TWO_PI * out


def _degree_plane_integral(profile: RadialProfile, k: int,
                           t_abs: np.ndarray) -> np.ndarray:
    """2 pi * integral_{|t|}^{R} u(s) P_k(t/s) s ds (plane integral of u * Y_k);
    one row (len(t_abs),) per profile row.

    The angular average of a degree-k harmonic over the circle of directions
    at polar distance gamma from theta is P_k(cos gamma) times its value at
    theta; on the plane <x, theta> = t one has cos gamma = t / |x|.

    Product integration: P_k(x) = sum_j c_j x^j makes it sum_j c_j |t|^j
    M_j(|t|), M_j(tau) = int_tau^R u(s) s^(1-j) ds.  The cells past s_1 and
    the partial cells [|t|, next node] are cut into pieces of ratio at most
    1.1, where s^(1-j) is smooth, of 8 Gauss points each against the samples'
    interpolant (as RadialProfile evaluates them), summed from the outer end.
    sum_j |c_j| grows like 2.4^k: above k = 16 the sum runs in extended
    precision; past 30 it loses a digit every three degrees, so is refused.
    """
    if k > 30:
        raise BandwidthExceeded(f"harmonic degree {k} is above 30, the highest "
                                "whose plane integral keeps its digits")
    s, n = profile.r, profile.samples.shape[-1]
    dt = float if k <= 16 else np.longdouble
    u = RadialProfile(np.atleast_2d(profile.samples), profile.r_max)
    g, w = radial_gauss_legendre(1.0, 8)
    jc = np.minimum(np.searchsorted(s, t_abs, "right"), n - 1)
    ta = np.minimum(t_abs, s[-1])
    # the cells [s_i, s_i+1], i >= 1, and [R, R], then the partial cells
    lo, hi = np.append(s[1:], ta), np.concatenate([s[2:], s[-1:], s[jc]])
    q = lo / hi
    m = np.ceil(np.log(np.where(q > 0, q, 1.0)) / -math.log(1.1)).clip(1).astype(int)
    first, piece = np.cumsum(m) - m, np.repeat(np.arange(len(m)), m)
    f, qp = (np.arange(len(piece)) - first[piece]) / m[piece], q[piece]
    a, b = hi[piece] * qp ** (1 - f), hi[piece] * qp ** (1 - f - 1 / m[piece])
    x = a[:, None] + (b - a)[:, None] * g
    ratio = np.append(np.ones(n - 1), ta)[piece, None] / x     # 1/s, or |t|/s
    vals = (u(x) * x * ratio ** (k % 2) * ((b - a)[:, None] * w)).astype(dt)
    step = ratio.astype(dt) ** 2
    out = np.zeros((len(vals), len(t_abs)), dt)
    for i, j in zip(range(k // 2, -1, -1), range(k % 2, k + 1, 2)):
        c = (-1) ** i * dt(math.comb(k, i)) * dt(math.comb(k + j, k)) / 2 ** k
        mom = np.add.reduceat(vals.sum(axis=-1), first, axis=-1)
        tail = np.cumsum(mom[:, n - 2::-1], axis=1)[:, ::-1]    # M_j at s_1..
        out += c * (t_abs.astype(dt) ** j * tail[:, jc - 1] + mom[:, n - 1:])
        vals *= step
    return (TWO_PI * out).astype(float)


def _by_degree(f: SeparableFunction, directions: np.ndarray, n_out: int,
               kernel: Callable, even_only: bool = False) -> tuple:
    """Sum over blocks, and over the degrees k in which a block's
    coefficients are nonzero, of the rows' Y_k at the directions times
    kernel(k, profile of the rows with content in k), once per class of
    directions whose Y_k agree exactly in every term: (rows (C, n_out),
    index (D,)), where rows[index] is the (D, n_out) table."""
    terms = []
    for b in f.blocks:
        deg = HarmonicSpectrum.mode(math.isqrt(len(b.coeffs)) - 1, 0).degrees()
        # a sorted set, not np.unique: np.unique loads numpy.ma
        live = [k for k in sorted(set(deg[b.coeffs.any(axis=1)].tolist()))
                if k % 2 == 0 or not even_only]
        # degree k's row needs no coefficient of a higher degree
        ang = degree_values_rows(b.coeffs[:(max(live, default=0) + 1) ** 2],
                                 directions)
        for k in live:
            rows = np.flatnonzero(b.coeffs[deg == k].any(axis=0))
            terms.append((b, k, rows, ang[k, rows]))
    first, index = _column_classes(np.concatenate(
        [np.empty((0, len(directions)))] + [a for *_, a in terms]))
    out = np.zeros((len(first), n_out))
    for b, k, rows, a in terms:
        prof = RadialProfile(b.samples[rows], f.r_max, b.profile.decay)
        out += np.einsum("qa,qb->ab", a[:, first], kernel(k, prof))
    return out, index


def radon_transform(phi: SeparableFunction, t: np.ndarray | None = None,
                    directions: np.ndarray | None = None) -> Sinogram:
    """Sinogram of a separable function.

    One kernel call per block and live harmonic degree k, on the rows with
    content in k: the closed plane-polar reduction for k = 0, the P_k(t/s)
    kernel otherwise.  The Fourier-slice cross-check lives in certify/verify
    pipelines and the test suite.
    """
    grid = phi.grid
    if t is None:
        t = symmetric_nodes()
    if directions is None:
        directions = grid.nodes[hemisphere_indices(grid)]
    for b in phi.blocks:
        if b.profile.decay == "algebraic":
            # hyperplane integrals 2 pi * int u(s) s ds need decay faster
            # than s^-2; an algebraic tag cannot guarantee that
            raise DecayTooSlow(
                "algebraic-tagged profile: hyperplane integrals are not "
                "guaranteed integrable"
            )
        if not np.all(np.isfinite(b.samples)):
            # u infinite at r = 0 makes the planes through the origin diverge
            raise InputInvalid(
                "radial profile has non-finite samples; plane integrals "
                "need a profile that is finite everywhere, r = 0 included")
    # each distinct |t| once: sort, dedupe, and map back by searchsorted
    t_abs = np.abs(np.asarray(t, dtype=float))
    uniq = np.sort(t_abs)
    uniq = uniq[np.append(True, uniq[1:] != uniq[:-1])]
    inv = np.searchsorted(uniq, t_abs)
    return Sinogram(np.asarray(t, float), np.asarray(directions, float),
                    *_by_degree(phi, directions, len(t), lambda k, prof: (
                        _radial_plane_integral(prof, uniq) if k == 0
                        else _degree_plane_integral(prof, k, uniq))[:, inv]))


def radon_direct_point(phi: SeparableFunction, t: float,
                       theta: np.ndarray) -> float:
    """Brute-force plane integral by 2D polar quadrature (cross-validation)."""
    n_rho, n_alpha = 400, 64
    theta = np.asarray(theta, float)
    e1, e2 = orthonormal_frame(theta)
    theta = theta / np.linalg.norm(theta)
    rho, wr = radial_gauss_legendre(DEFAULT_T_MAX, n_rho)
    alpha = TWO_PI * np.arange(n_alpha) / n_alpha
    pts = (t * theta[None, None, :]
           + rho[:, None, None] * (np.cos(alpha)[None, :, None] * e1
                                   + np.sin(alpha)[None, :, None] * e2))
    vals = phi(pts.reshape(-1, 3)).reshape(n_rho, n_alpha)
    return float((wr * rho) @ vals.sum(axis=1)) * TWO_PI / n_alpha


# ----------------------------------------------------------------------------
# Fourier along rays
# ----------------------------------------------------------------------------

# Kernel tables kept at once: the j_k tables of a few degrees on one grid.
# At the default grid each table is 16.8 MB.
_KERNEL_TABLES = 4


@lru_cache(maxsize=_KERNEL_TABLES)
def _kernel_table(k: int, r: bytes, s: bytes) -> np.ndarray:
    """j_k(r s) on the outer product of the float64 grids given by their
    bytes: (len(r), len(s)), built once per process in blocks of 64 rows,
    which bound the temporaries.

    The table is shared by every caller and therefore read-only.
    """
    r, s = np.frombuffer(r), np.frombuffer(s)
    table = np.empty((len(r), len(s)))
    for lo in range(0, len(r), 64):
        table[lo:lo + 64] = spherical_jn(k, np.outer(r[lo:lo + 64], s))
    table.flags.writeable = False
    return table


def _bessel_tail_xjk(k: int, X: np.ndarray) -> np.ndarray:
    """Closed-form (Abel-regularized) int_X^inf x j_k(x) dx for even k.

    From d/dx[-x j_{k-1}] = x j_k - k j_{k-1} and the tail recurrence
    (m+1) int_X^inf j_{m+1} = m int_X^inf j_{m-1} + (2m+1) j_m(X),
    seeded by int_X^inf j_1 = j_0(X); oscillatory boundary terms at infinity
    vanish in the Abel sense.
    """
    if k == 0:
        return np.cos(X)
    tail = spherical_jn(0, X)            # int_X^inf j_1
    m = 2
    while m < k:
        tail = (m * tail + (2 * m + 1) * spherical_jn(m, X)) / (m + 1.0)
        m += 2
    return X * spherical_jn(k - 1, X) + k * tail


def fourier_along_rays(f: SeparableFunction, directions: np.ndarray,
                       r_vals: np.ndarray) -> np.ndarray:
    """f^(r theta) for every direction; (D, n_r) array.

    A closed-form radial transform overrides numerics when present.
    Otherwise one kernel call per block and live even degree k, on the rows
    with content in k (the Hecke-Bochner formula; j_0(x) = sin(x) / x):
        (u * Y_k)^(r theta) = 4 pi (-1)^{k/2} Y_k(theta) int u(s) j_k(rs) s^2 ds.
    """
    rows, index = _fourier_rows(f, np.atleast_2d(directions),
                                np.asarray(r_vals, dtype=float))
    return rows[index]


def _fourier_rows(f: SeparableFunction, directions: np.ndarray,
                  r_vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """fourier_along_rays once per class of directions: (rows, index)."""
    if f.fourier_radial is not None and f.is_radial:
        return (f.fourier_radial(r_vals)[None, :],
                np.zeros(len(directions), dtype=int))
    return _by_degree(f, directions, len(r_vals), lambda k, prof: (-1.0) ** (
        k // 2) * FOUR_PI * _degree_radial_fourier(prof, k, r_vals),
        even_only=True)


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    """Weights w with w @ y = np.trapezoid(y, x) in exact arithmetic."""
    d = np.diff(x)
    return 0.5 * (np.append(0.0, d) + np.append(d, 0.0))


def _degree_radial_fourier(profile: RadialProfile, k: int,
                           r_vals: np.ndarray) -> np.ndarray:
    """int u(s) j_k(rs) s^2 ds for the degree-k Fourier expansion, k = 0
    included; one row (len(r_vals),) per profile row.

    The s = 0 term is j_k(0) lim u s^2: 0 for k >= 1, and for k = 0 either
    0 (u(0) finite) or c where u ~ c/s^2.
    Rows that end at 0 are one product against the cached j_k table.
    Algebraic rows that do not are continued with a fitted
    c/s + d/s^3 + e/s^5 tail over a 32x grid extension, with a Euler-Maclaurin
    endpoint correction and the closed-form remaining tail
    (c/r^2) int_{rR}^inf x j_k(x) dx; their j_k blocks are built per call.
    """
    s, u = profile.r, np.atleast_2d(profile.samples)
    r_vals = np.asarray(r_vals, dtype=float)
    w = np.zeros_like(u)
    w[:, 1:] = u[:, 1:] * s[1:] * s[1:]
    singular = ~np.isfinite(u[:, 0])
    # u s^2 is even in s: extrapolate it quadratically in s^2 from s_1..s_3
    w[singular, 0] = w[singular, 1:4] @ [1.5, -0.6, 0.1]
    tailed = u[:, -1] != 0.0 if profile.decay == "algebraic" \
        else np.zeros(len(u), dtype=bool)
    radial = np.empty((len(u), len(r_vals)))
    if not np.all(tailed):
        jk = _kernel_table(k, r_vals.tobytes(), s.tobytes())
        radial[~tailed] = (w[~tailed] * _trapezoid_weights(s)) @ jk.T
    if not np.any(tailed):
        return radial
    u, w, ds = u[tailed], w[tailed], s[1] - s[0]
    basis = lambda x: np.stack([1.0 / x, 1.0 / x ** 3, 1.0 / x ** 5])
    fit = np.linalg.lstsq(basis(s[-len(s) // 4:]).T, u[:, -len(s) // 4:].T,
                          rcond=None)[0]
    s_ext = s[-1] + ds * np.arange(1, int(31.0 * len(s)) + 1)
    s_int = np.concatenate([s, s_ext])
    w = np.hstack([w, (fit.T @ basis(s_ext)) * s_ext * s_ext])
    ww = w * _trapezoid_weights(s_int)
    for lo in range(0, len(r_vals), 64):          # bound the Bessel matrix
        rr = r_vals[lo:lo + 64]
        jk = spherical_jn(k, np.outer(rr, s_int))
        part = ww @ jk.T
        # endpoint correction: the integrand keeps amplitude ~ c/r at the
        # far end (the origin end vanishes)
        end = jk[:, -3:] * w[:, None, -3:]
        part -= (ds / 24.0) * (3.0 * end[..., 2] - 4.0 * end[..., 1] + end[..., 0])
        nz = rr > 0.0
        part[:, nz] += np.outer(fit[0], _bessel_tail_xjk(k, rr[nz] * s_int[-1])
                                / rr[nz] ** 2)
        radial[tailed, lo:lo + 64] = part
    return radial


# ----------------------------------------------------------------------------
# Intersection-function certification
# ----------------------------------------------------------------------------

@dataclass
class IntersectionCertificate:
    """Bochner test of every ray profile m_theta(r) = r^2 f^(r theta) at once.

    Row index[d] of the (C, n) table rows (row d by default) is the 1D
    transform of m_theta at directions[d] on the frequency grid omega, and
    the density of the ray measure mu_theta.  Direction d fails when that
    row's minimum lies below -tolerance[d] (tolerance is given per row and
    kept per direction); f is an intersection function when none fails.
    """

    directions: np.ndarray           # (D, 3)
    omega: np.ndarray                # (n,)
    rows: np.ndarray                 # (C, n)
    tolerance: np.ndarray            # (C,) given, (D,) kept
    index: np.ndarray | None = None  # (D,) class of each direction

    def __post_init__(self):
        if self.index is None:
            self.index = np.arange(len(self.rows))
        lowest = np.argmin(self.rows, axis=1)            # per class
        minima = np.take_along_axis(self.rows, lowest[:, None], 1)[:, 0]
        self.lowest, self.minima = lowest[self.index], minima[self.index]
        self.tolerance = np.asarray(self.tolerance)[self.index]
        self.failing = self.minima < -self.tolerance

    @property
    def mhat(self) -> np.ndarray:
        """(D, n): the row of each direction."""
        return self.rows[self.index]

    @property
    def is_intersection_function(self) -> bool:
        return not self.failing.any()

    @property
    def verdict(self) -> str:
        return ("intersection-function" if self.is_intersection_function
                else "not-intersection-function")

    @property
    def witness_direction(self) -> np.ndarray | None:
        """The failing direction whose transform reaches lowest."""
        if self.is_intersection_function:
            return None
        return self.directions[np.argmin(np.where(self.failing, self.minima,
                                                  np.inf))]

    @property
    def per_direction(self) -> list:
        """One PDCertificate per direction, its transform a view of its row."""
        return [PDCertificate(
            "not-positive-definite" if bad else "positive-definite",
            float(self.omega[i]), float(v), float(tol), (self.omega, self.rows[c]))
            for i, v, tol, bad, c in zip(self.lowest, self.minima,
                                         self.tolerance, self.failing,
                                         self.index)]

    def to_json_dict(self) -> dict:
        """The report's certificate shape: the witness direction, and the
        value and tolerance of the direction whose transform reaches lowest."""
        wp, d = self.witness_direction, int(np.argmin(self.minima))
        return {
            "verdict": self.verdict,
            "witness_point": None if wp is None else [float(v) for v in wp],
            "witness_value": float(self.minima[d]),
            "tolerance": float(self.tolerance[d]),
        }

    def pairing(self, values: np.ndarray, weights: np.ndarray) -> float:
        """PAIRING_CONSTANT * int_{S^2} int_R v(t, theta) mu_theta(t) dt
        dtheta for v sampled on omega, one row per quadrature direction
        (weights); a radial certificate's one measure serves every row."""
        return PAIRING_CONSTANT * float(
            weights @ np.trapezoid(values * self.mhat, self.omega, axis=1))


def ray_profile_samples(f: SeparableFunction, directions: np.ndarray,
                        r_max: float = DEFAULT_T_MAX,
                        n: int = DEFAULT_N) -> tuple[np.ndarray, np.ndarray]:
    """m_theta on the symmetric offset grid, per direction: (r_nodes, (D, n))."""
    r_nodes, m, index = _ray_profile_rows(f, np.atleast_2d(directions), r_max, n)
    return r_nodes, m[index]


def _ray_profile_rows(f: SeparableFunction, directions: np.ndarray,
                      r_max: float, n: int):
    """ray_profile_samples once per class of directions: (r, rows, index)."""
    r_nodes = symmetric_nodes(n, r_max)
    r_pos = r_nodes[n // 2 + 1:]
    fhat, index = _fourier_rows(f, directions, r_pos)
    m_pos = r_pos[None, :] ** 2 * fhat
    m = np.zeros((len(fhat), n))
    m[:, n // 2 + 1:] = m_pos
    m[:, 1:n // 2] = m_pos[:, ::-1][:, :n // 2 - 1]
    # continuous extension to r = 0: m is even, so extrapolate quadratically
    # in r^2 through the first three nodes (exact through r^4 terms)
    m[:, n // 2] = 1.5 * m_pos[:, 0] - 0.6 * m_pos[:, 1] + 0.1 * m_pos[:, 2]
    m[:, 0] = m_pos[:, -1]
    return r_nodes, m, index


def certify_intersection_function(f: SeparableFunction,
                                  r_max: float = DEFAULT_T_MAX,
                                  n: int = DEFAULT_N,
                                  rel_tol: float = DEFAULTS["rel_tol"],
                                  tail_tol: float = DEFAULTS["tail_tol"],
                                  tail_correction: bool = False) -> IntersectionCertificate:
    """Bochner test for every direction at once: m_theta is positive
    definite iff its 1D transform is non-negative (within -rel_tol * max of
    its row), one row per class of equal directions, all in one fourier_1d call.

    With tail_correction=True a profile decaying like c/r^2 (slower than the
    hard truncation gate allows) is admitted: the matched Cauchy profile
    c/(1+r^2), whose transform is c pi e^{-|omega|}, is split off analytically
    and only the fast-decaying remainder goes through the discrete transform,
    suppressing the truncation ringing that would otherwise produce spurious
    negativity.
    """
    f.require_finite()
    directions = np.array([[0.0, 0.0, 1.0]]) if f.is_radial \
        else f.grid.nodes[hemisphere_indices(f.grid)]
    r_nodes, m, index = _ray_profile_rows(f, directions, r_max, n)
    if not np.all(np.isfinite(m)):
        raise InputInvalid("the ray profile r^2 f^(r theta) has non-finite "
                           "values; no certificate is given")
    dt = 2.0 * r_max / n
    peak = np.max(np.abs(m), axis=1)
    tail = np.max(np.abs(m[:, [0, 1, -1]]), axis=1)
    tail_coeff = np.zeros(len(m))
    if np.any(tail > tail_tol * np.maximum(peak, 1e-300)):
        d_bad = int(np.argmax((tail / np.maximum(peak, 1e-300))[index]))
        c_bad = index[d_bad]
        if not tail_correction:
            raise GridTooCoarse(
                f"ray profile tail {tail[c_bad]:.3e} exceeds {tail_tol:.0e} x peak "
                f"{peak[c_bad]:.3e} at the grid boundary (direction {directions[d_bad]})"
            )
        # admit c / r^2 tails only: the coefficient must be stable over the
        # outer octave of the grid
        r_edge = float(r_nodes[-1])
        i_half = n // 2 + (n - 2 - n // 2) // 2
        c_edge = m[:, -1] * r_edge ** 2
        c_half = m[:, i_half] * r_nodes[i_half] ** 2
        stable = np.abs(c_edge - c_half) <= 0.05 * np.maximum(np.abs(c_edge), 1e-300)
        heavy = tail > tail_tol * np.maximum(peak, 1e-300)
        if np.any(heavy & ~stable):
            raise GridTooCoarse(
                "ray profile tail is heavy and not of c/r^2 type; "
                "no analytic tail correction applies"
            )
        tail_coeff[heavy] = c_edge[heavy]
        # the remainder after the Cauchy split must itself clear the tail gate
        kappa_edge = 1.0 / (1.0 + r_nodes[-1] ** 2)
        resid_tail = np.abs(m[:, -1] - tail_coeff * kappa_edge)
        if np.any(resid_tail > tail_tol * np.maximum(peak, 1e-300)):
            raise GridTooCoarse(
                "ray profile tail remains heavy after removing its c/r^2 part; "
                "enlarge r_max"
            )
    # analytic split of the heavy rows: the transform of c/(1+r^2) is
    # c pi e^{-|omega|}
    heavy = tail_coeff != 0.0
    m[heavy] -= tail_coeff[heavy, None] * (1.0 / (1.0 + r_nodes ** 2))
    omega, mhat = fourier_1d(m, dt)
    mhat[heavy] += tail_coeff[heavy, None] * math.pi * np.exp(-np.abs(omega))
    # decaying transforms approach zero at the frequency-grid edge, so a
    # minimum of ~0 is the generic positive case, not a borderline one
    tol = rel_tol * np.maximum(np.max(np.abs(mhat), axis=1), 1e-300)
    return IntersectionCertificate(directions, omega, mhat, tol, index)


# ----------------------------------------------------------------------------
# Classification witness (the measure pairing)
# ----------------------------------------------------------------------------

def _gaussian_test_battery(n_tests: int) -> list:
    """Even test functions: centered and symmetrized off-center Gaussians.

    Each entry is (label, phi(points), Rphi(t_array, thetas)), Rphi giving one
    row per direction of thetas (D, 3), from the closed-form sinograms
    R[e^{-|x-a|^2/w}](t, theta) = pi w e^{-(t - <a,theta>)^2 / w}.
    """
    battery = []
    widths = [0.5, 0.8, 1.0, 1.4, 2.0]
    centers = [np.zeros(3), np.array([0.7, 0.0, 0.4]),
               np.array([0.0, 0.9, 0.3]), np.array([0.5, 0.5, 0.5]),
               np.array([1.1, 0.2, 0.0])]
    k = 0
    for w in widths:
        for a in centers:
            if k >= n_tests:
                return battery

            def phi(points, w=w, a=a):
                points = np.atleast_2d(points)
                return (np.exp(-np.sum((points - a) ** 2, axis=1) / w)
                        + np.exp(-np.sum((points + a) ** 2, axis=1) / w))

            def rphi(t, theta, w=w, a=a):
                sh = (theta @ a)[:, None]            # one row per direction
                return math.pi * w * (np.exp(-(t - sh) ** 2 / w)
                                      + np.exp(-(t + sh) ** 2 / w))

            battery.append((f"gauss(w={w},a={np.round(a,2).tolist()})", phi, rphi))
            k += 1
    return battery


def classification_witness(f: SeparableFunction,
                           certificate: IntersectionCertificate,
                           n_tests: int = 10) -> dict:
    """Residuals of integral f*phi as a pairing with the ray measures.

    mu_theta, the 1D transform of m_theta (non-negative by certification),
    has the certificate's row mhat[d] as its density; for every test
    function phi,
        integral f phi dx = PAIRING_CONSTANT * int_{S^2} int_R Rphi(t, theta)
                            mu_theta(t) dt dtheta,
    the constant fixed once (Gaussian calibration) and reused for all phi.
    """
    if not certificate.is_intersection_function:
        raise CertificateRequired(
            f"classification witness needs a passing certificate, got "
            f"{certificate.verdict!r}"
        )
    grid = f.grid
    idx = hemisphere_indices(grid)
    dir_nodes = grid.nodes[idx]
    w_dir = 2.0 * grid.weights[idx]
    # LHS quadrature nodes
    rg, wg = radial_gauss_legendre(DEFAULT_T_MAX, 400)
    pts = (rg[:, None, None] * grid.nodes[None, :, :]).reshape(-1, 3)
    f_vals = f.values_polar(rg)
    residuals = {}
    worst = 0.0
    for label, phi, rphi in _gaussian_test_battery(n_tests):
        phi_vals = phi(pts).reshape(len(rg), grid.n_nodes)
        lhs = float((wg * rg * rg) @ (f_vals * phi_vals) @ grid.weights)
        rhs = certificate.pairing(rphi(certificate.omega, dir_nodes), w_dir)
        res = abs(lhs - rhs) / max(abs(lhs), 1e-300)
        residuals[label] = res
        worst = max(worst, res)
    return {"per_test": residuals, "max_residual": worst,
            "pairing_constant": PAIRING_CONSTANT}


# ----------------------------------------------------------------------------
# Worked-example catalog
# ----------------------------------------------------------------------------

CATALOG_NAMES = ("gauss-r2", "erf-type", "exp-ell", "cauchy-ell", "gamma-q")


@dataclass
class CatalogEntry:
    """A named closed-form example: the function f, its sinogram-side data g,
    interior ray profile h (m_theta = 8 pi^2 h), and the transform of m when
    available in closed form."""

    name: str
    f: SeparableFunction
    g_eval: Callable | None          # g0(t) for the radial (ell == 1) case
    h_eval: Callable | None          # h(r) with m(r) = 8 pi^2 h(r)
    mhat_eval: Callable | None       # closed-form transform of m, if known
    notes: str = ""


def _catalog_fhat(h: Callable) -> Callable:
    """f^(r) = 8 pi^2 h(r) / r^2 for the interior ray profile h: +inf at
    r <= 0, and wherever the quotient overflows."""
    def fhat(r):
        r = np.asarray(r, float)
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(r > 0.0, 8.0 * math.pi ** 2 * h(r) / r ** 2, np.inf)
    return fhat


# The algebraically decaying closed-form entries, one row each: f = u(|x|)
# for r > 0, its limit u(0), the interior ray profile h (m = 8 pi^2 h), the
# radial sinogram row g0 and the transform of m.
_CLOSED_FORMS = {
    "erf-type": (lambda r: TWO_PI * erf(r / 2.0) / r, 2.0 * math.sqrt(math.pi),
                 lambda r: np.exp(-r ** 2),
                 lambda t: np.exp(-t ** 2 / 4.0) / (2.0 * math.sqrt(math.pi)),
                 lambda t: 8.0 * math.pi ** 2.5 * np.exp(-t ** 2 / 4.0)),
    "exp-ell": (lambda r: 4.0 * np.arctan(r) / r, 4.0,
                lambda r: np.exp(-np.abs(r)),
                lambda t: 1.0 / (math.pi * (1.0 + t ** 2)),
                lambda t: 16.0 * math.pi ** 2 / (1.0 + t ** 2)),
    "cauchy-ell": (lambda r: TWO_PI * (1.0 - np.exp(-r)) / r, TWO_PI,
                   lambda r: 1.0 / (1.0 + r ** 2),
                   lambda t: np.exp(-np.abs(t)) / 2.0,
                   lambda t: 8.0 * math.pi ** 3 * np.exp(-np.abs(t))),
}


def catalog_entry(name: str, grid: SphereGrid | None = None,
                  r_max: float = DEFAULT_T_MAX,
                  n: int = DEFAULT_N) -> CatalogEntry:
    """Closed-form examples, all radial (unit angular weight).

    gauss-r2:   f = |x|^{-2} e^{-|x|^2};  f^ = (2 pi^2 / r) erf(r/2)
    erf-type:   f = 2 pi erf(r/2)/r;      m = 8 pi^2 e^{-r^2},
                transform of m = 8 pi^{5/2} e^{-t^2/4}
    exp-ell:    f = 4 arctan(r)/r;        m = 8 pi^2 e^{-|r|},
                transform of m = 16 pi^2 / (1 + t^2)
    cauchy-ell: f = 2 pi (1 - e^{-r})/r;  m = 8 pi^2 / (1 + r^2),
                transform of m = 8 pi^3 e^{-|t|}
    gamma-q:    interior profile h = e^{-|r|^q}; an intersection function
                exactly when q <= 2 (the 1D transform of e^{-|r|^q} changes
                sign for q > 2); named "gamma-q(q)", q = 4 when omitted
    """
    if grid is None:
        grid = build_grid(16, 32)
    if name in _CLOSED_FORMS:
        u, u0, *closed = _CLOSED_FORMS[name]
        h, g0, mhat = [lambda t, fn=fn: fn(np.asarray(t, float))
                       for fn in closed]
        f = separable_radial(_with_origin(u, u0), grid, r_max=r_max, n=n,
                             decay="algebraic", fourier_radial=_catalog_fhat(h),
                             name=name)
        return CatalogEntry(name, f, g0, h, mhat)
    if name == "gauss-r2":
        def fhat(r):
            r = np.asarray(r, float)
            out = np.empty_like(r)
            nz = r != 0.0
            out[nz] = 2.0 * math.pi ** 2 * erf(r[nz] / 2.0) / r[nz]
            out[~nz] = 2.0 * math.pi ** 1.5
            return out

        f = separable_radial(_with_origin(lambda r: np.exp(-r * r) / r ** 2,
                                          np.inf),
                             grid, r_max=r_max, n=n, decay="schwartz",
                             fourier_radial=fhat, name=name)
        return CatalogEntry(name, f, None, None, None,
                            notes="building block; singular at the origin")
    if name.startswith("gamma-q"):
        inner = name[len("gamma-q"):].strip("()")
        try:
            q = float(inner) if inner else 4.0
        except ValueError:
            raise InputInvalid(f"catalog entry {name!r}: q must be a number, "
                               "as in 'gamma-q(1.5)'") from None
        h = lambda r: np.exp(-np.abs(np.asarray(r, float)) ** q)
        # sinogram data g0 = (1 / 2 pi) * transform of h, computed once
        t_nodes = symmetric_nodes(n, r_max)
        _, hhat = fourier_1d(h(t_nodes), 2.0 * r_max / n)
        g_samples = hhat / TWO_PI
        g0 = lambda t: np.interp(np.asarray(t, float), t_nodes, g_samples)
        # f(r) = (2 pi / r) int_{-r}^{r} g0, from the cumulative integral
        seg = 0.5 * (g_samples[1:] + g_samples[:-1]) * np.diff(t_nodes)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        u = _with_origin(lambda r: TWO_PI * (np.interp(r, t_nodes, cum)
                                             - np.interp(-r, t_nodes, cum)) / r,
                         FOUR_PI * np.interp(0.0, t_nodes, g_samples))
        f = separable_radial(u, grid, r_max=r_max, n=n, decay="algebraic",
                             fourier_radial=_catalog_fhat(h), name=f"gamma-q({q:g})")
        return CatalogEntry(f"gamma-q({q:g})", f, g0, h, None,
                            notes=f"q = {q:g}; intersection function iff q <= 2")
    raise InputInvalid(f"unknown catalog name {name!r}; known: {CATALOG_NAMES}")
