"""Discretization of S^2: Gauss-Legendre x uniform-azimuth grids, real
spherical-harmonic analysis/synthesis, L^p norms and the reverse Hoelder check.

Basis convention (fixed here, referenced everywhere else):
real orthonormal spherical harmonics without the Condon-Shortley phase,

    Y_{k,0}            = Q_k^0(cos th)
    Y_{k,m}  (m > 0)   = sqrt(2) * Q_k^m(cos th) * cos(m ph)
    Y_{k,-m} (m > 0)   = sqrt(2) * Q_k^m(cos th) * sin(m ph)

where Q_k^m = sqrt((2k+1)/(4 pi) * (k-m)!/(k+m)!) * P_k^m (P_k^m without the
(-1)^m phase).  Coefficients are stored flat with index k*k + k + m.

Single-degree (``degree_part``) and single-mode (``HarmonicSpectrum.mode``)
spectra, and the degrees worth transforming (``live_degrees``), are built only
here; the other modules act degree by degree through these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BandwidthExceeded, DegenerateInput, InvalidGrid

__all__ = [
    "SphereGrid",
    "HarmonicSpectrum",
    "SphericalFunction",
    "build_grid",
    "analyze",
    "synthesize",
    "evaluate_spectrum",
    "lp_norm_sphere",
    "reverse_holder_check",
    "normalized_legendre_table",
    "gauss_legendre",
]

FOUR_PI = 4.0 * math.pi
# Coefficients at most this fraction of a spectrum's largest one are absent.
_NEGLIGIBLE = 1e-14


def normalized_legendre_table(l_max: int, x: np.ndarray) -> np.ndarray:
    """Q_k^m(x) for 0 <= m <= k <= l_max, shape (l_max+1, l_max+1, len(x)).

    Entries with m > k are zero.  Uses the standard fully-normalized
    three-term recurrences, stable to high degree.
    """
    x = np.asarray(x, dtype=float)
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    q = np.zeros((l_max + 1, l_max + 1, x.size))
    q[0, 0] = 1.0 / math.sqrt(FOUR_PI)
    for m in range(1, l_max + 1):
        q[m, m] = math.sqrt((2 * m + 1) / (2.0 * m)) * s * q[m - 1, m - 1]
    for m in range(0, l_max):
        q[m + 1, m] = math.sqrt(2 * m + 3) * x * q[m, m]
    for m in range(0, l_max + 1):
        for k in range(m + 2, l_max + 1):
            a = math.sqrt((4.0 * k * k - 1.0) / (k * k - m * m))
            b = math.sqrt(((k - 1.0) ** 2 - m * m) / (4.0 * (k - 1.0) ** 2 - 1.0))
            q[k, m] = a * (x * q[k - 1, m] - b * q[k - 2, m])
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


@lru_cache(maxsize=32)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], built once per n.

    The arrays are shared by every caller and therefore read-only; map them
    to another interval out of place.  ``leggauss`` itself is called so the
    rule stays bit-identical to NumPy's.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


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
        return float(self.coeffs[k * k + k + m])

    def degree_slice(self, k: int) -> np.ndarray:
        return self.coeffs[k * k : (k + 1) ** 2]

    def degree_part(self, k: int) -> "HarmonicSpectrum":
        """The degree-k block alone; every other coefficient is zero."""
        coeffs = np.zeros_like(self.coeffs)
        coeffs[k * k:(k + 1) ** 2] = self.degree_slice(k)
        return HarmonicSpectrum(self.l_max, coeffs)

    def even_part(self) -> "HarmonicSpectrum":
        """The even-degree blocks alone; odd degrees are zeroed."""
        return self.scaled_by_degree(1.0 - np.arange(self.l_max + 1) % 2)

    def live_modes(self, even_only: bool = False) -> list[int]:
        """Flat indices of the coefficients above 1e-14 times the largest one
        (NaN counts as live, so bad input propagates), optionally in even
        degrees only."""
        size = np.abs(self.coeffs)
        live = ~(size <= _NEGLIGIBLE * max(np.max(size), 1e-300))
        if even_only:
            live &= self.degrees() % 2 == 0
        return np.flatnonzero(live).tolist()

    def live_degrees(self, even_only: bool = False) -> list[int]:
        """Ascending degrees with at least one live coefficient (live_modes)."""
        return sorted(set(self.degrees()[self.live_modes(even_only)].tolist()))

    def degrees(self) -> np.ndarray:
        """Degree k of each flat coefficient slot."""
        return np.repeat(np.arange(self.l_max + 1), 2 * np.arange(self.l_max + 1) + 1)

    def scaled_by_degree(self, factors: np.ndarray) -> "HarmonicSpectrum":
        """Multiply every degree-k block by factors[k]."""
        return HarmonicSpectrum(self.l_max, self.coeffs * factors[self.degrees()])

    def truncated(self, l_max: int) -> "HarmonicSpectrum":
        if l_max >= self.l_max:
            out = np.zeros((l_max + 1) ** 2)
            out[: self.coeffs.size] = self.coeffs
            return HarmonicSpectrum(l_max, out)
        return HarmonicSpectrum(l_max, self.coeffs[: (l_max + 1) ** 2].copy())

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


class _Transform:
    """Cached separable analysis/synthesis operator for one (grid, l_max)."""

    def __init__(self, grid: SphereGrid, l_max: int):
        self.grid = grid
        self.l_max = l_max
        self.q = normalized_legendre_table(l_max, grid.x)  # (L+1, L+1, n_polar)
        m = np.arange(l_max + 1)
        # e^{i m phi_j}; analysis uses the conjugate
        self.e = np.exp(1j * np.outer(m, grid.phi))  # (L+1, n_azimuth)

    def analyze(self, values: np.ndarray) -> HarmonicSpectrum:
        g = self.grid
        v = values.reshape(g.n_polar, g.n_azimuth)
        # F[i, m] = (2 pi / n_az) sum_j v_ij e^{-i m phi_j}
        f = (2.0 * math.pi / g.n_azimuth) * (v @ self.e.conj().T)
        cm = f.real          # cos-component integrals per polar ring
        sm = -f.imag         # sin-component integrals
        wc = g.glw[:, None] * cm
        ws = g.glw[:, None] * sm
        coeffs = np.zeros((self.l_max + 1) ** 2)
        for k in range(self.l_max + 1):
            base = k * k + k
            coeffs[base] = self.q[k, 0] @ wc[:, 0]
            for m in range(1, k + 1):
                coeffs[base + m] = math.sqrt(2.0) * (self.q[k, m] @ wc[:, m])
                coeffs[base - m] = math.sqrt(2.0) * (self.q[k, m] @ ws[:, m])
        return HarmonicSpectrum(self.l_max, coeffs)

    def synthesize(self, spectrum: HarmonicSpectrum) -> np.ndarray:
        g = self.grid
        L = spectrum.l_max
        a = np.zeros((g.n_polar, self.l_max + 1))  # cos-amplitude per (ring, m)
        b = np.zeros((g.n_polar, self.l_max + 1))  # sin-amplitude
        for k in range(min(L, self.l_max) + 1):
            base = k * k + k
            a[:, 0] += spectrum.coeffs[base] * self.q[k, 0]
            for m in range(1, k + 1):
                qkm = math.sqrt(2.0) * self.q[k, m]
                a[:, m] += spectrum.coeffs[base + m] * qkm
                b[:, m] += spectrum.coeffs[base - m] * qkm
        v = ((a - 1j * b) @ self.e).real
        return v.ravel()


@lru_cache(maxsize=64)
def _transform(grid: SphereGrid, l_max: int) -> _Transform:
    return _Transform(grid, l_max)


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
    return _transform(grid, l_max).analyze(values)


def synthesize(spectrum: HarmonicSpectrum, grid: SphereGrid,
               parity: str | None = None) -> SphericalFunction:
    """Pointwise evaluation of sum a_{k,m} Y_{k,m} at the grid nodes."""
    values = _transform(grid, spectrum.l_max).synthesize(spectrum)
    return SphericalFunction(grid, values, spectrum=spectrum, parity=parity)


def evaluate_spectrum(spectrum: HarmonicSpectrum, points: np.ndarray) -> np.ndarray:
    """Evaluate the harmonic expansion at arbitrary unit vectors (n_pts, 3)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    x = np.clip(points[:, 2], -1.0, 1.0)
    phi = np.arctan2(points[:, 1], points[:, 0])
    L = spectrum.l_max
    q = normalized_legendre_table(L, x)
    out = np.zeros(points.shape[0])
    cos_m = {m: np.cos(m * phi) for m in range(L + 1)}
    sin_m = {m: np.sin(m * phi) for m in range(1, L + 1)}
    for k in range(L + 1):
        base = k * k + k
        out += spectrum.coeffs[base] * q[k, 0]
        for m in range(1, k + 1):
            qs = math.sqrt(2.0) * q[k, m]
            out += spectrum.coeffs[base + m] * qs * cos_m[m]
            out += spectrum.coeffs[base - m] * qs * sin_m[m]
    return out


def grid_function(grid: SphereGrid, fn, parity: str | None = None) -> SphericalFunction:
    """Sample a callable of unit vectors (N, 3) -> (N,) on the grid."""
    return SphericalFunction(grid, np.asarray(fn(grid.nodes), dtype=float), parity=parity)


def constant_function(grid: SphereGrid, c: float) -> SphericalFunction:
    return SphericalFunction(grid, np.full(grid.n_nodes, float(c)), parity="even")


def lp_norm_sphere(f: SphericalFunction, p: float) -> float:
    """Quadrature approximation of (integral |f|^p over S^2)^(1/p); p > 0."""
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    grid, values = _as_values(f)
    return float(grid.weights @ np.abs(values) ** p) ** (1.0 / p)


def reverse_holder_check(h: SphericalFunction, w: SphericalFunction,
                         r: float) -> tuple[bool, float]:
    """Margin of ||h w||_1 >= ||h||_{1/r} ||w||_{-1/(r-1)} for r > 1.

    Returns (margin >= -tol, margin).  Both inputs must be non-negative with
    positive integral; the negative-exponent norm needs w > 0 a.e., enforced
    by the quadrature blowing up otherwise.
    """
    if r <= 1:
        raise ValueError(f"r must exceed 1, got {r}")
    grid, hv = _as_values(h)
    _, wv = _as_values(w)
    if float(grid.weights @ np.abs(hv)) == 0.0 or float(grid.weights @ np.abs(wv)) == 0.0:
        raise DegenerateInput("reverse Hoelder requires positive integrals")
    lhs = float(grid.weights @ (np.abs(hv) * np.abs(wv)))
    nh = float(grid.weights @ np.abs(hv) ** (1.0 / r)) ** r
    with np.errstate(divide="ignore"):
        neg_pow = np.abs(wv) ** (-1.0 / (r - 1.0))
    nw = float(grid.weights @ neg_pow) ** (-(r - 1.0))
    margin = lhs - nh * nw
    scale = max(abs(lhs), abs(nh * nw), 1.0)
    return margin >= -1e-10 * scale, margin
