"""Spherical (Funk) Radon transform on S^2 and the comparison machinery built
on it: the affirmative-case verifier, the counterexample constructor, the
slicing inequality check and the intersection-body map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConstructionFailed,
    DegenerateInput,
    DominationFails,
    NotApplicable,
    NotPositive,
)
from .multipliers import (
    REL_TOL,
    PDCertificate,
    certify_pd_r1,
    fourier_homogeneous,
    funk_eigenvalues,
)
from .sphere import (
    HarmonicSpectrum,
    SphericalFunction,
    analyze,
    evaluate_spectrum,
    first_minimum,
    lp_norm_sphere,
    orthonormal_frame,
    require_exponent,
    synthesize,
)

__all__ = [
    "StarBody",
    "ComparisonReport",
    "sradon_direct",
    "sradon_spectral",
    "sradon_map",
    "verify_comparison_spherical",
    "construct_counterexample_spherical",
    "slicing_check",
    "intersection_body_of",
]

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi
TWO_PI_CUBED = (2.0 * math.pi) ** 3


@dataclass
class StarBody:
    """Origin-symmetric star body given by its radial function rho_K > 0."""

    radial: SphericalFunction
    name: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.radial.require_finite("radial function")
        if self.radial.min() <= 0.0:
            raise NotPositive(f"radial function of {self.name or 'star body'} must be positive")
        if self.radial.antipodal_residual() > 1e-8 * max(self.radial.max_abs(), 1.0):
            raise DegenerateInput("star body must be origin-symmetric (even radial function)")


@dataclass
class ComparisonReport:
    p: float
    domination_margin: float
    pd_certificate: PDCertificate | None
    lp_f: float
    lp_g: float
    conclusion_holds: bool
    hypothesis_holds: bool
    chain: dict = field(default_factory=dict)
    notes: str = ""


def _spectrum_of(f: SphericalFunction) -> HarmonicSpectrum:
    return f.spectrum if f.spectrum is not None else analyze(f)


def sradon_direct(f: SphericalFunction, xi: np.ndarray) -> float:
    """Great-circle integral of f over S^2 intersected with xi-perp.

    Trapezoid rule on max(64, 4 (L + 1)) nodes of the circle; exact for
    band-limited integrands because the restriction of a degree-L function
    to a great circle is a trigonometric polynomial of degree <= L.
    """
    spec = _spectrum_of(f)
    n_nodes = max(64, 4 * (spec.l_max + 1))
    e1, e2 = orthonormal_frame(xi)
    t = TWO_PI * np.arange(n_nodes) / n_nodes
    pts = np.outer(np.cos(t), e1) + np.outer(np.sin(t), e2)
    vals = evaluate_spectrum(spec, pts)
    return float(np.sum(vals)) * TWO_PI / n_nodes


def sradon_spectral(spectrum: HarmonicSpectrum) -> HarmonicSpectrum:
    """Per-degree action of the transform: degree k scaled by 2 pi P_k(0)."""
    return spectrum.scaled_by_degree(funk_eigenvalues(spectrum.l_max))


def sradon_map(f: SphericalFunction) -> SphericalFunction:
    """Rf sampled on f's own grid, via the spectral route."""
    return synthesize(sradon_spectral(_spectrum_of(f)), f.grid, parity="even")


def _newton_polish_extremum(spec: HarmonicSpectrum, node: np.ndarray,
                            maximize: bool) -> tuple[np.ndarray, float]:
    """One finite-difference Newton step in the tangent plane at the best node."""
    e1, e2 = orthonormal_frame(node)
    h = 1e-4
    # the stencil in one evaluation: centre, +-h e1, +-h e2, the diagonals
    ab = h * np.array([[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1],
                       [1, 1], [1, -1], [-1, 1], [-1, -1]])
    pts = node + ab[:, :1] * e1 + ab[:, 1:] * e2
    f0, fp0, fm0, f0p, f0m, fpp, fpm, fmp, fmm = evaluate_spectrum(
        spec, pts / np.linalg.norm(pts, axis=1)[:, None]).tolist()
    ga = (fp0 - fm0) / (2 * h)
    gb = (f0p - f0m) / (2 * h)
    haa = (fp0 - 2 * f0 + fm0) / h ** 2
    hbb = (f0p - 2 * f0 + f0m) / h ** 2
    hab = (fpp - fpm - fmp + fmm) / (4 * h ** 2)
    det = haa * hbb - hab * hab
    if abs(det) < 1e-12:
        return node, f0
    da = -(hbb * ga - hab * gb) / det
    db = -(haa * gb - hab * ga) / det
    step = math.hypot(da, db)
    if step > 0.2:  # do not leave the local cell
        da, db = da * 0.2 / step, db * 0.2 / step
    p = node + da * e1 + db * e2
    p = p / np.linalg.norm(p)
    f1 = float(evaluate_spectrum(spec, p[None, :])[0])
    better = f1 > f0 if maximize else f1 < f0
    return (p, f1) if better else (node, f0)


def verify_comparison_spherical(f: SphericalFunction, g: SphericalFunction,
                                p: float, rel_tol: float = REL_TOL) -> ComparisonReport:
    """Affirmative-case verifier for the spherical comparison problem.

    Checks Rf <= Rg on the direction grid, certifies the positive-definiteness
    hypothesis on the side the theorem requires (f^{p-1} r^{-1} for p > 1,
    g^{p-1} r^{-1} for 0 < p < 1), and when the certificate is positive
    replays the proof chain: the Parseval pairing and the Hoelder (or reverse
    Hoelder) step, asserting ||f||_p <= ||g||_p.
    """
    require_exponent(p)
    f.require_finite("f")
    g.require_finite("g")
    if f.min() <= 0.0 or g.min() <= 0.0:
        raise NotPositive("comparison inputs must be strictly positive")
    rf = sradon_map(f)
    rg = sradon_map(g)
    margin = float(np.min(rg.values - rf.values))
    tol = rel_tol * max(rg.max_abs(), 1.0)
    if margin < -tol:
        raise DominationFails(f"min(Rg - Rf) = {margin:.3e} < -{tol:.1e}")

    w = f.grid.weights
    lp_f = lp_norm_sphere(f, p)
    lp_g = lp_norm_sphere(g, p)
    chain: dict = {}

    if p == 1.0:
        # Fubini / self-duality reduction: <Rf, 1> = <f, R1> = 2 pi * integral f
        int_f = f.integral()
        int_g = g.integral()
        chain["fubini_residual_f"] = abs(rf.integral() - TWO_PI * int_f) / max(abs(int_f), 1.0)
        chain["fubini_residual_g"] = abs(rg.integral() - TWO_PI * int_g) / max(abs(int_g), 1.0)
        conclusion = lp_f <= lp_g + tol
        return ComparisonReport(p, margin, None, lp_f, lp_g, conclusion, True, chain,
                                notes="p = 1 integral-comparison branch")

    hyp_side = f if p > 1.0 else g
    cert = certify_pd_r1(hyp_side, p - 1.0)
    hypothesis = cert.is_positive_definite
    conclusion = False
    if hypothesis:
        if p > 1.0:
            pairing_lhs = float(w @ f.values ** p)
            pairing_rhs = float(w @ (f.values ** (p - 1.0) * g.values))
            chain["parseval_pairing_margin"] = pairing_rhs - pairing_lhs
            holder_bound = (w @ f.values ** p) ** ((p - 1.0) / p) * (w @ g.values ** p) ** (1.0 / p)
            chain["holder_margin"] = float(holder_bound) - pairing_rhs
        else:
            pairing_lhs = float(w @ (f.values * g.values ** (p - 1.0)))
            pairing_rhs = float(w @ g.values ** p)
            chain["parseval_pairing_margin"] = pairing_rhs - pairing_lhs
            rev_bound = (w @ f.values ** p) ** (1.0 / p) * (w @ g.values ** p) ** ((p - 1.0) / p)
            chain["reverse_holder_margin"] = pairing_lhs - float(rev_bound)
        conclusion = lp_f <= lp_g + rel_tol * max(lp_g, 1.0)
    return ComparisonReport(p, margin, cert, lp_f, lp_g, conclusion, hypothesis, chain)


def _nonneg_bandlimited_bump(h: SphericalFunction, delta: float,
                             l_max: int) -> SphericalFunction:
    """Even band-limited psi >= 0 concentrated on {h < -delta}.

    Built as the square of a band-limited function: the raw bump
    max(0, -h - delta)^{3/2} is projected to degree l_max // 2 and squared,
    so psi is exactly band-limited at l_max and non-negative everywhere
    (no clipping, hence the domination identity holds to roundoff).
    """
    raw = np.maximum(0.0, -h.values - delta) ** 1.5
    half = analyze(SphericalFunction(h.grid, raw, parity="even"), l_max // 2)
    eta = synthesize(half, h.grid)
    psi_vals = eta.values ** 2
    spec = analyze(SphericalFunction(h.grid, psi_vals, parity="even"), l_max)
    return SphericalFunction(h.grid, psi_vals, spectrum=spec, parity="even")


def construct_counterexample_spherical(base: SphericalFunction, p: float,
                                       rel_tol: float = REL_TOL,
                                       gap_tol: float = 1e-8
                                       ) -> tuple[SphericalFunction, ComparisonReport]:
    """Counterexample constructor for the spherical comparison problem.

    For p > 1 the argument is g; the hypothesis g^{p-1} r^{-1} must fail to be
    positive definite, and the returned function is f = g - eps * phi with
    Rf <= Rg, f > 0 and ||f||_p > ||g||_p.  For 0 < p < 1 the argument is f
    and the construction returns g = f + eps * phi with the same three
    certified properties (roles of f and g swapped in the report).

    phi is the homogeneous-Fourier partner of a non-negative band-limited
    bump psi supported where the transform of the hypothesis side is
    negative, so that R(constructed side) differs from R(base) by
    -(2 pi)^3 / pi * eps * psi, a signed quantity by construction.
    """
    require_exponent(p)
    if p == 1.0:
        raise NotApplicable("at p = 1 the comparison always holds under "
                            "domination; no counterexample exists")
    base.require_finite("base")
    if base.min() <= 0.0:
        raise NotPositive("base function must be strictly positive")
    grid = base.grid
    cert = certify_pd_r1(base, p - 1.0)
    if cert.verdict != "not-positive-definite":
        raise NotApplicable(
            f"certificate on the hypothesis side is {cert.verdict}; "
            "the construction requires a failed hypothesis"
        )
    h = cert.transform_data
    l_max = grid.bandwidth
    delta = 0.1 * abs(h.min())
    psi = _nonneg_bandlimited_bump(h, delta, l_max)
    if psi.max() <= 0.0:
        raise ConstructionFailed("bump vanished; negative set too small for the grid")
    phi_spec = fourier_homogeneous(psi.spectrum, 1.0)
    phi = synthesize(phi_spec, grid, parity="even")

    sign = -1.0 if p > 1.0 else +1.0  # f = g - eps*phi  |  g = f + eps*phi
    eps = 0.5 * base.min() / max(phi.max_abs(), 1e-300)
    r_base = sradon_map(base)
    attempts = []
    for _ in range(21):                  # the first epsilon and 20 halvings
        cand_vals = base.values + sign * eps * phi.values
        cand = SphericalFunction(grid, cand_vals, parity="even")
        if cand.min() <= 0.0:
            attempts.append((eps, "constructed function not positive"))
            eps *= 0.5
            continue
        cand.spectrum = analyze(cand, l_max)
        r_cand = sradon_map(cand)
        if p > 1.0:
            f_fun, g_fun, rf, rg = cand, base, r_cand, r_base
        else:
            f_fun, g_fun, rf, rg = base, cand, r_base, r_cand
        margin = float(np.min(rg.values - rf.values))
        dom_tol = rel_tol * max(rg.max_abs(), 1.0)
        lp_f = lp_norm_sphere(f_fun, p)
        lp_g = lp_norm_sphere(g_fun, p)
        gap = lp_f - lp_g
        if margin >= -dom_tol and gap > gap_tol:
            report = ComparisonReport(
                p, margin, cert, lp_f, lp_g,
                conclusion_holds=False, hypothesis_holds=False,
                chain={
                    "epsilon": eps,
                    "norm_gap": gap,
                    "bump_mass": psi.integral(),
                    "min_constructed": cand.min(),
                },
                notes="counterexample: domination holds while the L^p conclusion fails",
            )
            return cand, report
        attempts.append((eps, f"margin={margin:.3e} gap={gap:.3e}"))
        eps *= 0.5
    raise ConstructionFailed(
        "epsilon search exhausted without meeting the postconditions; attempts: "
        + "; ".join(f"eps={e:.3e}: {msg}" for e, msg in attempts[-5:])
    )


@dataclass
class SlicingReport:
    p: float
    lhs: float              # ||f||_{L^p(S^2)}
    rhs: float              # |S^2|^{1/p} / |S^1| * extremal Rf
    margin: float
    extremal_direction: np.ndarray
    extremal_value: float
    certificate: PDCertificate      # of f^{p-1} r^{-1}
    lower_branch: bool

    @property
    def hypothesis_holds(self) -> bool:
        return self.certificate.is_positive_definite

    @property
    def holds(self) -> bool:
        return self.margin >= -REL_TOL * max(abs(self.rhs), 1.0)


def slicing_check(f: SphericalFunction, p: float,
                  lower_branch: bool = False) -> SlicingReport:
    """Slicing inequality on the sphere.

    For p > 1 with f^{p-1} r^{-1} positive definite:
        ||f||_{L^p(S^2)} <= (4 pi)^{1/p} / (2 pi) * max_xi Rf(xi).
    With lower_branch=True (companion statement for 0 < p < 1) the direction
    reverses and the minimum over xi is used.  The extremum over directions is
    taken on the grid with one Newton polish step from the best node.
    """
    require_exponent(p)
    f.require_finite("f")
    if f.min() <= 0.0:
        raise NotPositive("f must be strictly positive")
    cert = certify_pd_r1(f, p - 1.0)
    rspec = sradon_spectral(_spectrum_of(f))
    rf = synthesize(rspec, f.grid, parity="even")
    i_best = first_minimum(rf.values if lower_branch else -rf.values,
                           REL_TOL * rf.max_abs())
    node, val = _newton_polish_extremum(rspec, f.grid.nodes[i_best],
                                        maximize=not lower_branch)
    lhs = lp_norm_sphere(f, p)
    rhs = FOUR_PI ** (1.0 / p) / TWO_PI * val
    margin = (rhs - lhs) if not lower_branch else (lhs - rhs)
    return SlicingReport(p, lhs, rhs, margin, node, val, cert, lower_branch)


def intersection_body_of(body: StarBody) -> StarBody:
    """Intersection body IL: rho_IL(xi) = |L cut by xi-perp| = R(rho_L^2) / 2.

    Also verifies the spectral identity
    (rho_IL * r^{-1})^ = (2 pi)^3 / (2 pi) * rho_L^2 * r^{-2}
    degree by degree; the residual is stored in the result's meta.
    """
    grid = body.radial.grid
    rho_sq = SphericalFunction(grid, body.radial.values ** 2, parity="even")
    spec_sq = analyze(rho_sq, grid.bandwidth)
    rho_il_spec = sradon_spectral(spec_sq)
    rho_il_spec = HarmonicSpectrum(rho_il_spec.l_max, rho_il_spec.coeffs * 0.5)
    rho_il = synthesize(rho_il_spec, grid, parity="even")

    # spectral check: lambda(3,k,1) * (rho_IL)_k = (2 pi)^3 / (pi * (n-1)) * pi * ... reduces
    # per degree to lambda(3,k,1) * c_k / 2 = (2 pi)^3 / (2 pi) * 1, times (rho_L^2)_k
    lhs = fourier_homogeneous(rho_il_spec, 1.0)
    rhs = HarmonicSpectrum(spec_sq.l_max, spec_sq.coeffs * (TWO_PI_CUBED / (2.0 * math.pi)))
    diff = lhs.even_part().coeffs - rhs.even_part().coeffs
    scale = max(float(np.max(np.abs(rhs.coeffs))), 1e-300)
    residual = float(np.max(np.abs(diff))) / scale
    return StarBody(rho_il, name=f"I({body.name})" if body.name else "IL",
                    meta={"spectral_identity_residual": residual})
