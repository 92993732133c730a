"""Fourier transforms of homogeneous extensions f * r^{-p} acting degree by
degree on the harmonic spectrum, and positive-definiteness certification of
distributions f^q * r^{-1}.

For an even degree-k component the transform multiplies by

    lambda(n, k, p) = (-1)^(k/2) * pi^(n/2) * 2^(n-p)
                      * Gamma((k + n - p) / 2) / Gamma((k + p) / 2),

validated in the test suite against the section identity
lambda(3, k, 2) = pi * c_{3,k} (great-circle quadrature oracle) and against
direct radial Fourier integrals at k = 0.  The Funk eigenvalues of the
spherical Radon transform in three dimensions are c_{3,k} = 2 pi P_k(0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

import numpy as np

from .errors import NotPositive, OutOfRange
from .sphere import (
    HarmonicSpectrum,
    SphericalFunction,
    analyze,
    first_minimum,
    legendre,
    synthesize,
)

__all__ = [
    "multiplier",
    "multiplier_table",
    "funk_eigenvalue",
    "fourier_homogeneous",
    "certify_pd_r1",
    "spherical_parseval_check",
    "PDCertificate",
]

TWO_PI_CUBED = (2.0 * math.pi) ** 3
# Default relative tolerance of a verdict: values within REL_TOL of the
# largest one count as zero, and extremal values that close as tied.
REL_TOL = 1e-9


def multiplier(n: int, k: int, p: float) -> float:
    """lambda(n, k, p) for even k >= 0 and 0 < p < n: multiplier_table's entry."""
    if k < 0 or k % 2 != 0:
        raise OutOfRange(f"degree must be even and non-negative, got k={k}")
    return float(multiplier_table(n, k, p)[k])


def multiplier_table(n: int, l_max: int, p: float) -> np.ndarray:
    """lambda(n, k, p) for k = 0..l_max (odd-degree slots zero): lambda(n, 0, p)
    from log-Gamma, then lambda(k+2) = -lambda(k) (k+n-p)/(k+p), within
    2e-15 + 4e-17 k of a 40-digit reference up to k = 512 (exp of the
    log-Gamma difference near 860 loses about 1e-13 by k = 256)."""
    if not 0.0 < p < n:
        raise OutOfRange(f"exponent must lie in (0, {n}), got p={p}")
    out = np.zeros(l_max + 1)
    lam = math.exp((n / 2.0) * math.log(math.pi) + (n - p) * math.log(2.0)
                   + math.lgamma((n - p) / 2.0) - math.lgamma(p / 2.0))
    for k in range(0, l_max + 1, 2):
        out[k] = lam
        lam = -lam * (k + n - p) / (k + p)
    return out


@lru_cache(maxsize=None)
def _funk_table(size: int) -> np.ndarray:
    table = 2.0 * math.pi * legendre(np.arange(size), 0.0)
    table.flags.writeable = False
    return table


def funk_eigenvalues(l_max: int) -> np.ndarray:
    """2 pi P_k(0) for k = 0..l_max, read-only.

    A slice of one table per power of two, built once: at x = 0 the
    recurrence is P_k(0) = -(k - 1) / k * P_{k-2}(0), one step per degree.
    """
    return _funk_table(1 << int(l_max).bit_length())[:l_max + 1]


def funk_eigenvalue(k: int) -> float:
    """Eigenvalue of the spherical Radon transform on degree k."""
    return float(funk_eigenvalues(k)[k])


@dataclass
class PDCertificate:
    """Verdict of a positive-definiteness test, with the minimizing witness."""

    verdict: str                    # "positive-definite" | "not-positive-definite" | "inconclusive"
    witness_point: Any              # unit vector (sphere engine) or 1D frequency
    witness_value: float            # minimum of the transform
    tolerance: float                # negativity threshold actually used
    transform_data: Any = None      # transformed function / 1D transform samples
    extra: dict = field(default_factory=dict)

    @property
    def is_positive_definite(self) -> bool:
        return self.verdict == "positive-definite"

    def to_json_dict(self) -> dict:
        wp = self.witness_point
        if isinstance(wp, np.ndarray):
            wp = [float(v) for v in wp]
        elif isinstance(wp, (np.floating, np.integer)):
            wp = float(wp)
        return {
            "verdict": self.verdict,
            "witness_point": wp,
            "witness_value": float(self.witness_value),
            "tolerance": float(self.tolerance),
        }


def fourier_homogeneous(spectrum: HarmonicSpectrum, p: float) -> HarmonicSpectrum:
    """Spectrum of g where (f * r^{-p})^ = g * r^{-(3-p)} on R^3; even
    spectra only.

    Applying the operation twice with exponents p then 3 - p multiplies the
    input by (2 pi)^3.
    """
    residual = spectrum.even_part_residual()
    if residual > 1e-8:
        raise OutOfRange(
            f"spectrum has odd-degree content (relative size {residual:.2e}); "
            "homogeneous Fourier transforms are defined here for even functions"
        )
    return spectrum.scaled_by_degree(multiplier_table(3, spectrum.l_max, p))


def certify_pd_r1(f: SphericalFunction, q: float,
                  rel_tol: float = REL_TOL) -> PDCertificate:
    """Decide positive definiteness of the distribution f^q * r^{-1} on R^3.

    Pipeline: pointwise power, harmonic analysis (degree cap doubled, bounded
    by the grid bandwidth, to absorb the spectral broadening of the power),
    per-degree multipliers at p = 1, synthesis.  The distribution is positive
    definite iff the synthesized transform is non-negative; minima within
    +-tol of zero yield an "inconclusive" verdict.
    """
    if not math.isfinite(q):
        raise OutOfRange(f"q must be finite, got {q}")
    f.require_finite("f")
    if f.min() <= 0.0:
        raise NotPositive(f"f must be strictly positive (min {f.min():.3e})")
    grid = f.grid
    base_l = f.spectrum.l_max if f.spectrum is not None else grid.bandwidth // 2
    l_power = min(2 * base_l, grid.bandwidth)
    with np.errstate(over="ignore"):        # refused below
        power = SphericalFunction(grid, f.values ** q, parity="even")
    if not np.all(np.isfinite(power.values)):
        raise OutOfRange(f"f^q at q = {q:g} is out of double range")
    spec = analyze(power, l_power)
    back = synthesize(spec, grid)
    truncation_residual = float(np.max(np.abs(back.values - power.values)))
    transformed = synthesize(fourier_homogeneous(spec, 1.0), grid, parity="even")
    tol = rel_tol * max(transformed.max_abs(), 1e-300)
    v_min = float(np.min(transformed.values))
    i_min = first_minimum(transformed.values, tol)   # a node tied with v_min
    if v_min < -tol:
        verdict = "not-positive-definite"
    elif v_min > tol:
        verdict = "positive-definite"
    else:
        verdict = "inconclusive"
    return PDCertificate(
        verdict=verdict,
        witness_point=grid.nodes[i_min],
        witness_value=v_min,
        tolerance=tol,
        transform_data=transformed,
        extra={"power_truncation_residual": truncation_residual, "l_power": l_power},
    )


def spherical_parseval_check(f: SphericalFunction, g: SphericalFunction,
                             p: float) -> float:
    """Residual of the spherical Parseval identity on R^3, evaluated spectrally.

    | <(f r^{-p})^, (g r^{-(3-p)})^> - (2 pi)^3 <f, g> | relative to the
    right-hand side.  Odd-degree content is projected out (with the residual
    reported through the even-part check of analyze).
    """
    grid = f.grid
    l_max = min(grid.bandwidth, g.grid.bandwidth)
    # zero the odd part: only even degrees carry multipliers
    sf = analyze(f, l_max).even_part()
    sg = analyze(g, l_max).even_part()
    tf = fourier_homogeneous(sf, p)
    tg = fourier_homogeneous(sg, 3.0 - p)
    lhs = float(tf.coeffs @ tg.coeffs)
    rhs = TWO_PI_CUBED * float(sf.coeffs @ sg.coeffs)
    scale = max(abs(rhs), 1.0)
    return abs(lhs - rhs) / scale
