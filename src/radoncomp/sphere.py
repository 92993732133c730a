"""Discretization of S^2: Gauss-Legendre x uniform-azimuth grids, real
spherical-harmonic analysis/synthesis and L^p norms.

Basis convention (fixed here, referenced everywhere else):
real orthonormal spherical harmonics without the Condon-Shortley phase,

    Y_{k,0}            = Q_k^0(cos th)
    Y_{k,m}  (m > 0)   = sqrt(2) * Q_k^m(cos th) * cos(m ph)
    Y_{k,-m} (m > 0)   = sqrt(2) * Q_k^m(cos th) * sin(m ph)

where Q_k^m = sqrt((2k+1)/(4 pi) * (k-m)!/(k+m)!) * P_k^m (P_k^m without the
(-1)^m phase).  Coefficients are stored flat with index k*k + k + m.

The Legendre table of a grid is q[m, k, i] (order, degree, polar ring) and
the flat coefficients map to real blocks b[m, k] = s_m (a_{k,m}, a_{k,-m}),
blocked by order m as in SHTns (Schaeffer, G^3 2013): analysis and synthesis
are one batched matrix product over m each, (m, k, i) @ (m, i, 2c) after the
ring integrals and (m, i, k) @ (m, k, 2) before the sums over the azimuth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BandwidthExceeded, InputInvalid, InvalidGrid, OutOfRange

__all__ = [
    "SphereGrid",
    "HarmonicSpectrum",
    "SphericalFunction",
    "build_grid",
    "analyze",
    "synthesize",
    "evaluate_spectrum",
    "degree_values_rows",
    "lp_norm_sphere",
    "normalized_legendre_table",
    "gauss_legendre",
]

FOUR_PI = 4.0 * math.pi
# Coefficients at most this fraction of a spectrum's largest one are absent.
_NEGLIGIBLE = 1e-14


def _legendre_rows(l_max: int, x: np.ndarray):
    """Yield Q_k^m(x), m = 0..l_max (zero for m > k), for k = 0..l_max in turn:
    the fully-normalized three-term recurrence in k, vectorized over m and
    seeded by the diagonal (its b term vanishes at m = k - 1)."""
    x = np.asarray(x, dtype=float).ravel()
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    older = np.zeros((l_max + 1, x.size))
    row = np.zeros((l_max + 1, x.size))
    row[0] = 1.0 / math.sqrt(FOUR_PI)
    yield row
    for k in range(1, l_max + 1):
        mk = np.arange(k)
        a = np.sqrt((4.0 * k * k - 1.0) / (k * k - mk * mk))[:, None]
        b = np.sqrt(((k - 1.0) ** 2 - mk * mk) / (4.0 * (k - 1.0) ** 2 - 1.0))[:, None]
        new = np.zeros_like(row)
        new[:k] = a * (x * row[:k] - b * older[:k])
        new[k] = math.sqrt((2 * k + 1) / (2.0 * k)) * s * row[k - 1]
        older, row = row, new
        yield row


def normalized_legendre_table(l_max: int, x: np.ndarray) -> np.ndarray:
    """Q_k^m(x_i) as q[m, k, i] for 0 <= m <= k <= l_max, shape (l_max+1,
    l_max+1, len(x)); entries with m > k are zero."""
    q = np.zeros((l_max + 1, l_max + 1, np.size(x)))
    for k, row in enumerate(_legendre_rows(l_max, x)):
        q[:k + 1, k] = row[:k + 1]   # m > k unwritten: untouched zero pages cost no RSS
    return q


@dataclass(frozen=True, eq=False)
class SphereGrid:
    """Product quadrature grid on S^2; weights sum to 4 pi."""

    n_polar: int
    n_azimuth: int
    x: np.ndarray          # cos(polar angle), Gauss-Legendre nodes, ascending
    glw: np.ndarray        # Gauss-Legendre weights
    phi: np.ndarray        # uniform azimuth nodes
    nodes: np.ndarray      # (N, 3) unit vectors, polar-major layout
    weights: np.ndarray    # (N,) quadrature weights
    antipode: np.ndarray   # (N,) index of -u for each node u

    @property
    def n_nodes(self) -> int:
        return self.n_polar * self.n_azimuth

    @property
    def bandwidth(self) -> int:
        """Largest degree whose analysis integrals the grid computes exactly."""
        return min(self.n_polar - 1, self.n_azimuth // 2 - 1)

    def __hash__(self):
        return id(self)


# Special functions used on S^2 and in R^3, in NumPy and the standard library
# alone, so that importing radoncomp loads no scipy module.

def legendre(n, x):
    """P_n(x) from (P_0, P_1) = (1, x) by k P_k = (2k - 1) x P_{k-1} - (k - 1)
    P_{k-2} with rows in place, in x's precision (float64 at least; integer
    coefficients: P_n(+-1) = (+-1)^n); n: an int >= 0, or ints broadcast to x."""
    x = np.asarray(x, dtype=np.result_type(x, 1.0))
    n = np.asarray(n)
    wanted = set(n.ravel().tolist())   # not np.unique: it loads numpy.ma
    out = np.where(n == 1, x, 1.0) if n.ndim else None   # one degree ends in p
    older, p, tmp = np.ones((), x.dtype), x.copy(), np.empty_like(x)   # 0-d P_0
    for k in range(2, max(wanted, default=0) + 1):
        np.multiply(np.multiply(x, p, out=tmp), 2 * k - 1, out=tmp)
        np.subtract(tmp, np.multiply(older, k - 1, out=older), out=tmp)
        older, p, tmp = p, np.divide(tmp, k, out=tmp), \
            older if older.shape == x.shape else np.empty_like(x)
        if k in wanted and n.ndim:
            np.copyto(out, p, where=n == k)
    return (out if n.ndim else p if n else np.ones_like(x))[()]


# The error function elementwise, float64: math.erf on each value.
erf = np.vectorize(math.erf, otypes=[float])


def _legendre_and_derivative(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) for n >= 1, |x| < 1, from P_{n-1} and P_n."""
    older, p = legendre(np.array([[n - 1], [n]]), x)
    return p, n * (older - x * p) / ((1 - x) * (1 + x))


@lru_cache(maxsize=32)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], built once per n.

    Newton's method on P_n for the ceil(n/2) nodes in [0, 1), from Tricomi's
    asymptotic nodes; each step is one pass of the recurrence, O(n) per node
    (an eigensolve of the n x n Jacobi matrix is O(n^3)).  Up to
    n = 4096 the float64 steps stop moving after at most three.  One last
    step in ``np.longdouble`` (80-bit on x86-64) then resolves each node below
    float64 spacing and takes its weight 2 / ((1 - x^2) P_n'(x)^2) from the
    extended-precision P_n', to first order at the unrounded node.  The rule
    is mirrored onto [-1, 0].  Against a 40-digit reference the nodes are
    within 6e-17 and the weights within 2e-15 relative for n <= 2048.

    The arrays are shared by every caller and therefore read-only; map them
    to another interval out of place.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    k = np.arange(1, (n + 1) // 2 + 1)
    psi = math.pi * (n + 1 - 2 * k) / (2 * n + 1)   # pi/2 - theta_k; 0 is the middle node
    x = np.sin(psi - np.tan(psi) / (8.0 * (n + 0.5) ** 2))
    for _ in range(8):
        p, dp = _legendre_and_derivative(n, x)
        dx = p / dp
        if np.max(np.abs(dx)) <= np.finfo(float).eps:
            break
        x = x - dx
    x = x.astype(np.longdouble)
    p, dp = _legendre_and_derivative(n, x)
    dx = p / dp                        # the root is x - dx, below float64 spacing
    sin2 = (1 - x) * (1 + x)
    # at a root, d log w / dx = -2x / (1 - x^2): move the weight with the node
    w = (2 / (sin2 * dp * dp) * (1 + 2 * x * dx / sin2)).astype(float)
    x = (x - dx).astype(float)
    # 0.0 - x keeps the middle node of odd n at +0.0
    x = np.concatenate((0.0 - x, x[::-1][n % 2:]))
    w = np.concatenate((w, w[::-1][n % 2:]))
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def first_minimum(values: np.ndarray, tol: float) -> int:
    """Index of the first value within tol of the minimum.

    Values that tie to roundoff then name the same node whatever order their
    sums were taken in; pass -values for the maximum.
    """
    return int(np.argmax(values <= values.min() + tol))


def radial_gauss_legendre(r_max: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights mapped to [0, r_max]."""
    x, w = gauss_legendre(n)
    return 0.5 * r_max * (x + 1.0), 0.5 * r_max * w


def orthonormal_frame(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors e1, e2 with (e1, e2, xi / |xi|) a right-handed frame."""
    xi = np.asarray(xi, dtype=float)
    xi = xi / np.linalg.norm(xi)
    pick = np.array([1.0, 0.0, 0.0]) if abs(xi[0]) <= 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = pick - xi * (pick @ xi)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(xi, e1)
    return e1, e2


@lru_cache(maxsize=32)
def _build_grid_cached(n_polar: int, n_azimuth: int) -> SphereGrid:
    x, glw = gauss_legendre(n_polar)
    phi = 2.0 * math.pi * np.arange(n_azimuth) / n_azimuth
    st = np.sqrt(1.0 - x * x)
    nodes = np.empty((n_polar * n_azimuth, 3))
    nodes[:, 0] = np.outer(st, np.cos(phi)).ravel()
    nodes[:, 1] = np.outer(st, np.sin(phi)).ravel()
    nodes[:, 2] = np.repeat(x, n_azimuth)
    weights = np.repeat(glw * (2.0 * math.pi / n_azimuth), n_azimuth)
    i = np.arange(n_polar * n_azimuth)
    ip, ja = divmod(i, n_azimuth)
    antipode = (n_polar - 1 - ip) * n_azimuth + (ja + n_azimuth // 2) % n_azimuth
    return SphereGrid(n_polar, n_azimuth, x, glw, phi, nodes, weights, antipode)


def build_grid(n_polar: int, n_azimuth: int) -> SphereGrid:
    if n_polar < 2:
        raise InvalidGrid(f"n_polar must be >= 2, got {n_polar}")
    if n_azimuth < 4 or n_azimuth % 2 != 0:
        raise InvalidGrid(f"n_azimuth must be even and >= 4, got {n_azimuth}")
    return _build_grid_cached(n_polar, n_azimuth)


def _flat_index(k, m):
    """Flat slot of degree k, order m (cosine for m >= 0, sine for m < 0)."""
    return k * k + k + m


@lru_cache(maxsize=64)
def _layout(l_max: int) -> tuple[np.ndarray, ...]:
    """Degree k, order |m|, part (0 for cosine slots, 1 for sine ones) and
    factor s_m (s_0 = 1, s_m = sqrt 2) of every flat slot, read-only."""
    deg = np.repeat(np.arange(l_max + 1), 2 * np.arange(l_max + 1) + 1)
    m = np.arange(deg.size) - _flat_index(deg, 0)
    out = deg, np.abs(m), (m < 0).astype(int), np.where(m == 0, 1.0, math.sqrt(2.0))
    for a in out:
        a.flags.writeable = False
    return out


def _to_blocks(coeffs: np.ndarray, l_max: int) -> np.ndarray:
    """Blocks b[m, k] = s_m (a_{k,m}, a_{k,-m}) of a flat spectrum, so that
    sum_j a_j Y_j = sum_{k,m} Q_k^m (b[m, k, 0] cos m phi + b[m, k, 1] sin m phi);
    a column axis of the coefficients ((l_max+1)^2, n) is kept as b[m, k, :, n]."""
    deg, order, part, s = _layout(l_max)
    b = np.zeros((l_max + 1, l_max + 1, 2) + np.shape(coeffs)[1:])
    b[order, deg, part] = s.reshape((-1,) + (1,) * (np.ndim(coeffs) - 1)) * coeffs
    return b


def _from_blocks(b: np.ndarray) -> np.ndarray:
    """Flat coefficients (nb, n) of (|m|, k, 2, n) blocks: the transpose of
    ``_to_blocks``, so analysis is the adjoint of synthesis."""
    deg, order, part, s = _layout(b.shape[0] - 1)
    return s[:, None] * b[order, deg, part]


@dataclass(frozen=True)
class HarmonicSpectrum:
    """Real coefficients a_{k,m}, flat layout index = k*k + k + m."""

    l_max: int
    coeffs: np.ndarray

    def __post_init__(self):
        expected = (self.l_max + 1) ** 2
        if self.coeffs.shape != (expected,):
            raise ValueError(f"expected {expected} coefficients, got {self.coeffs.shape}")

    @classmethod
    def mode(cls, l_max: int, j: int, c: float = 1.0) -> "HarmonicSpectrum":
        """c times the single basis function with flat index j."""
        coeffs = np.zeros((l_max + 1) ** 2)
        coeffs[j] = c
        return cls(l_max, coeffs)

    def coeff(self, k: int, m: int) -> float:
        return float(self.coeffs[_flat_index(k, m)])

    def even_part(self) -> "HarmonicSpectrum":
        """The even-degree blocks alone; odd degrees are zeroed."""
        return self.scaled_by_degree(1.0 - np.arange(self.l_max + 1) % 2)

    def live_modes(self) -> list[int]:
        """Flat indices of the coefficients above 1e-14 times the largest one
        (NaN counts as live, so bad input propagates)."""
        size = np.abs(self.coeffs)
        return np.flatnonzero(
            ~(size <= _NEGLIGIBLE * max(np.max(size), 1e-300))).tolist()

    def degrees(self) -> np.ndarray:
        """Degree k of each flat coefficient slot (read-only)."""
        return _layout(self.l_max)[0]

    def scaled_by_degree(self, factors: np.ndarray) -> "HarmonicSpectrum":
        """Multiply every degree-k block by factors[k]."""
        return HarmonicSpectrum(self.l_max, self.coeffs * factors[self.degrees()])

    def even_part_residual(self) -> float:
        """Relative size of odd-degree content (0 for an even function)."""
        scale = float(np.max(np.abs(self.coeffs))) or 1.0
        odd = self.coeffs[self.degrees() % 2 == 1]
        return float(np.max(np.abs(odd), initial=0.0)) / scale


@dataclass
class SphericalFunction:
    """Samples of a real function at the grid nodes, with optional spectrum."""

    grid: SphereGrid
    values: np.ndarray
    spectrum: HarmonicSpectrum | None = None
    parity: str | None = None  # "even" | "odd" | None

    def min(self) -> float:
        return float(np.min(self.values))

    def max(self) -> float:
        return float(np.max(self.values))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def antipodal_residual(self) -> float:
        v = self.values
        return float(np.max(np.abs(v - v[self.grid.antipode])))

    def integral(self) -> float:
        return float(self.grid.weights @ self.values)

    def require_finite(self, name: str = "f") -> None:
        """Raise InputInvalid when any sample is NaN or infinite."""
        if not np.isfinite(self.values).all():
            raise InputInvalid(f"{name} has non-finite samples")


@lru_cache(maxsize=64)
def _grid_tables(grid: SphereGrid, l_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    m_phi = np.outer(np.arange(l_max + 1), grid.phi)
    return normalized_legendre_table(l_max, grid.x), np.cos(m_phi), np.sin(m_phi)


def _tables(grid: SphereGrid, l_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Q_k^m on the polar nodes and cos / sin(m phi) on the azimuth nodes, for
    k, m <= l_max: slices of one table per grid, cached at its bandwidth (or
    at l_max, when that is higher)."""
    q, cos, sin = _grid_tables(grid, max(l_max, grid.bandwidth))
    n = l_max + 1
    return q[:n, :n], cos[:n], sin[:n]


def _as_values(f) -> tuple[SphereGrid, np.ndarray]:
    if isinstance(f, SphericalFunction):
        return f.grid, f.values
    raise TypeError(f"expected SphericalFunction, got {type(f)}")


def analyze(f: SphericalFunction, l_max: int | None = None) -> HarmonicSpectrum:
    """Quadrature projection a_{k,m} = integral of f * Y_{k,m} over S^2."""
    grid, values = _as_values(f)
    if l_max is None:
        l_max = grid.bandwidth
    if l_max > grid.bandwidth:
        raise BandwidthExceeded(
            f"l_max={l_max} exceeds grid bandwidth {grid.bandwidth} "
            f"(grid {grid.n_polar}x{grid.n_azimuth})"
        )
    return HarmonicSpectrum(l_max, analyze_rows(grid, values, l_max))


def analyze_rows(grid: SphereGrid, values: np.ndarray, l_max: int) -> np.ndarray:
    """``analyze`` column by column: node values (n_nodes[, n]) to flat
    coefficients ((l_max+1)^2[, n]), without the bandwidth check."""
    q, cos, sin = _tables(grid, l_max)
    n, n_polar, n_az = l_max + 1, grid.n_polar, grid.n_azimuth
    v = np.asarray(values, dtype=float).reshape(n_polar, n_az, -1)
    c = v.shape[-1]
    v = v.transpose(1, 0, 2).reshape(n_az, -1)      # (azimuth, ring * column)
    w = (grid.glw * (2.0 * math.pi / n_az))[:, None]
    # ring integrals against cos and sin(m phi), then one product over the
    # rings per order m: (m, k, i) @ (m, i, 2c)
    rings = np.stack([(t @ v).reshape(n, n_polar, c) for t in (cos, sin)], 2)
    y = q @ (w * rings.reshape(n, n_polar, 2 * c))
    return _from_blocks(y.reshape(n, n, 2, c)).reshape((-1,) + np.shape(values)[1:])


def synthesize(spectrum: HarmonicSpectrum, grid: SphereGrid,
               parity: str | None = None) -> SphericalFunction:
    """Pointwise evaluation of sum a_{k,m} Y_{k,m} at the grid nodes."""
    q, cos, sin = _tables(grid, spectrum.l_max)
    # one product over the degrees per order m: (m, i, k) @ (m, k, 2)
    y = q.transpose(0, 2, 1) @ _to_blocks(spectrum.coeffs, spectrum.l_max)
    values = (y[..., 0].T @ cos + y[..., 1].T @ sin).ravel()
    return SphericalFunction(grid, values, spectrum=spectrum, parity=parity)


def degree_values_rows(coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Row k: sum_m a_{k,m} Y_{k,m} at unit vectors (n_pts, 3), for each
    column of flat coefficients ((l_max+1)^2[, n]): degree rows
    (l_max+1[, n], n_pts); the Legendre rows are built one degree at a
    time."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    L = math.isqrt(len(coeffs)) - 1
    m_phi = np.outer(np.arange(L + 1), np.arctan2(points[:, 1], points[:, 0]))
    cos, sin = np.cos(m_phi), np.sin(m_phi)
    b = np.moveaxis(_to_blocks(coeffs, L), 0, -1)   # (k, 2, [n,] |m|)
    out = np.empty((L + 1,) + np.shape(coeffs)[1:] + (len(points),))
    for k, q in enumerate(_legendre_rows(L, np.clip(points[:, 2], -1.0, 1.0))):
        out[k] = b[k, 0] @ (q * cos) + b[k, 1] @ (q * sin)
    return out


def evaluate_spectrum(spectrum: HarmonicSpectrum, points: np.ndarray) -> np.ndarray:
    """Evaluate the harmonic expansion at arbitrary unit vectors (n_pts, 3)."""
    return degree_values_rows(spectrum.coeffs, points).sum(axis=0)


def grid_function(grid: SphereGrid, fn, parity: str | None = None) -> SphericalFunction:
    """Sample a callable of unit vectors (N, 3) -> (N,) on the grid."""
    return SphericalFunction(grid, np.asarray(fn(grid.nodes), dtype=float), parity=parity)


def constant_function(grid: SphereGrid, c: float) -> SphericalFunction:
    return SphericalFunction(grid, np.full(grid.n_nodes, float(c)), parity="even")


def require_exponent(p: float) -> None:
    """Refuse an exponent outside 0 < p < inf, NaN included."""
    if not 0.0 < p < math.inf:
        raise OutOfRange(f"p must be positive and finite, got {p}")


def lp_root(total: float, p: float, values: np.ndarray) -> float:
    """total^(1/p) for a quadrature sum total of |f|^p over the samples
    ``values`` of f.  Raises OutOfRange when the sum or its root overflows,
    or underflows to 0 while f is non-zero on the grid."""
    try:
        root = total ** (1.0 / p)
    except OverflowError:
        root = math.inf
    if not math.isfinite(root) or (root == 0.0 and np.any(values)):
        raise OutOfRange(f"the L^p norm at p = {p:g} is out of double range "
                         f"(sum of |f|^p {total:.3e})")
    return root


@np.errstate(over="ignore")     # lp_root refuses what overflows
def lp_norm_sphere(f: SphericalFunction, p: float) -> float:
    """Quadrature approximation of (integral |f|^p over S^2)^(1/p); p > 0.
    Raises OutOfRange when the norm is out of double range (lp_root)."""
    require_exponent(p)
    grid, values = _as_values(f)
    return lp_root(float(grid.weights @ np.abs(values) ** p), p, values)
