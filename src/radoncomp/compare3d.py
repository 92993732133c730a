"""Norm comparison under Radon-transform domination on R^3: the affirmative
verifier, and the counterexample synthesizer for the failing range of p.

Proof chain replayed by the verifier (p > 1): with w = phi^{p-1} an
intersection function, its ray measures mu_theta are non-negative and

    int phi^p = C int int Rphi(t, theta) mu_theta(t) dt dtheta
             <= C int int Rpsi(t, theta) mu_theta(t) dt dtheta
              = int phi^{p-1} psi  <=  |phi|_p^{p-1} |psi|_p      (Hoelder)

forcing |phi|_p <= |psi|_p.  For 0 < p < 1 the roles of phi and psi swap and
the last step is the reverse Hoelder inequality.  At p = 1 domination alone
decides, by integrating the sinogram gap over offsets and directions.

The counterexample constructor runs the chain backwards: when w is not an
intersection function, the direction average of the transforms of its ray
measures is negative on a frequency window (for integrable w it integrates to
0); a sinogram-side bump beta(t) supported there is pulled back through the
Fourier-slice identity to a sign-changing radial h with R h = beta >= 0 and
int w h < 0, and phi = psi - eta h dominates while carrying the strictly
larger norm.  (h itself cannot be taken non-negative: 0 <= phi <= psi
pointwise already forces |phi|_p <= |psi|_p.)
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    ConstructionFailed,
    DominationFails,
    GridMismatch,
    GridTooCoarse,
    InputInvalid,
    NotApplicable,
    TailTooHeavy,
)
from .funk import ComparisonReport
from .radon3d import (
    DEFAULT_T_MAX,
    IntersectionCertificate,
    RowBlock,
    SeparableFunction,
    Sinogram,
    _column_classes,
    _with_origin,
    certify_intersection_function,
    cubic_spline,
    hemisphere_indices,
    radial_profile,
    radon_transform,
    separable_power,
)
from .sphere import (
    degree_values_rows,
    lp_root,
    radial_gauss_legendre,
    require_exponent,
)
from .tolerances import DEFAULTS

__all__ = [
    "lp_norm_rn", "sinogram_dominates", "verify_comparison_radon",
    "construct_counterexample_radon",
]


# ----------------------------------------------------------------------------
# L^p norms
# ----------------------------------------------------------------------------

@np.errstate(over="ignore")     # lp_root refuses what overflows
def lp_norm_rn(phi: SeparableFunction, p: float) -> float:
    """|phi|_p by polar quadrature on 2048 Gauss-Legendre radii times the
    sphere grid, with |phi|^p and its radial sums taken once per class of
    equal angular columns (SeparableFunction.node_classes).

    The radial rule is built on first use and cached for the life of the
    process (sphere.gauss_legendre): the first call pays about 0.1 s for it,
    later calls nothing.  Raises TailTooHeavy when the integrand at r_max
    still carries more than 1e-6 of the integral, and OutOfRange when the
    norm is out of double range (sphere.lp_root).
    """
    require_exponent(p)
    phi.require_finite("phi")
    r_max = phi.r_max
    rg, wg = radial_gauss_legendre(r_max, 2048)
    grid = phi.grid
    first, index = phi.node_classes()
    vals = phi.values_polar(np.append(rg, r_max), first)
    powered = np.abs(vals) ** p
    total = float(((wg * rg * rg) @ powered[:-1])[index] @ grid.weights)
    # boundary-contribution estimate: integrand level at the grid edge times
    # one more copy of the radial extent
    tail_est = float(powered[-1][index] @ grid.weights) * r_max ** 3
    if tail_est > 1e-6 * max(total, 1e-300):
        raise TailTooHeavy(
            f"estimated boundary contribution {tail_est:.3e} exceeds "
            f"1e-06 of the integral {total:.3e}; |phi|^p is not "
            "captured by the truncated grid"
        )
    return lp_root(total, p, vals[:-1])


# ----------------------------------------------------------------------------
# Sinogram domination
# ----------------------------------------------------------------------------

def _joint_rows(a: Sinogram, b: Sinogram):
    """(a rows, b rows, index) on the joint classes of a's and b's directions."""
    first, index = _column_classes(np.stack([a.index, b.index]))
    return a.rows[a.index[first]], b.rows[b.index[first]], index


def sinogram_dominates(a: Sinogram, b: Sinogram) -> float:
    """min over all samples of b - a, exactly, from the joint class rows;
    negative means domination fails."""
    if (len(a.index), len(a.t)) != (len(b.index), len(b.t)) \
            or np.max(np.abs(a.t - b.t)) > 1e-12 \
            or np.max(np.abs(a.directions - b.directions)) > 1e-12:
        raise GridMismatch("sinograms are sampled on different (t, theta) grids")
    rows_a, rows_b, _ = _joint_rows(a, b)
    return float(np.min(rows_b - rows_a))


# ----------------------------------------------------------------------------
# The verifier
# ----------------------------------------------------------------------------

def _sinogram_pair(phi: SeparableFunction, psi: SeparableFunction):
    if phi.grid is not psi.grid and phi.grid.n_nodes != psi.grid.n_nodes:
        raise GridMismatch("phi and psi live on different sphere grids")
    return radon_transform(phi), radon_transform(psi)


def _pair_with_measures(sino: Sinogram, cert: IntersectionCertificate,
                        weights: np.ndarray) -> float:
    """cert.pairing of Rf, with one spline over all rows onto the measures'
    frequency grid (zero outside the offset range)."""
    omega = cert.omega
    inside = (omega >= sino.t[0]) & (omega <= sino.t[-1])
    vals = np.zeros((len(sino.values), len(omega)))
    vals[:, inside] = cubic_spline(sino.t, sino.values)(omega[inside])
    return cert.pairing(vals, weights)


def verify_comparison_radon(phi: SeparableFunction, psi: SeparableFunction,
                            p: float, rel_tol: float = DEFAULTS["rel_tol"],
                            chain_tol: float = DEFAULTS["chain_tol"],
                            tail_tol: float = DEFAULTS["tail_tol"]) -> ComparisonReport:
    """Decide |phi|_p <= |psi|_p from sinogram domination.

    p = 1: domination integrates directly to the norm comparison (no
    certificate).  p > 1: requires phi^{p-1} to be an intersection function;
    0 < p < 1: requires psi^{p-1} (a growing power -- usually outside the
    admissible decay class, in which case the hypothesis is reported failed).
    A failed hypothesis is reported, not raised; failed domination raises.
    """
    require_exponent(p)
    for name, fn in (("phi", phi), ("psi", psi)):
        fn.require_finite(name)
        m = fn.min_on_sample_grid()
        if m < -rel_tol * max(abs(m), 1.0):
            raise InputInvalid(f"{name} must be non-negative (min {m:.3e})")
    r_phi, r_psi = _sinogram_pair(phi, psi)
    scale = max(float(np.max(np.abs(r_psi.rows))), 1e-300)
    margin = sinogram_dominates(r_phi, r_psi)
    if margin < -rel_tol * scale:
        raise DominationFails(
            f"R phi exceeds R psi by {-margin:.3e} somewhere "
            f"(tolerance {rel_tol * scale:.3e})"
        )
    lp_phi = lp_norm_rn(phi, p)
    lp_psi = lp_norm_rn(psi, p)
    idx = hemisphere_indices(phi.grid)
    w_dir = 2.0 * phi.grid.weights[idx]

    def report(**fields) -> ComparisonReport:
        return ComparisonReport(p=p, domination_margin=margin, lp_f=lp_phi,
                                lp_g=lp_psi, transforms=(r_phi, r_psi),
                                **fields)

    if p == 1.0:
        gap = lp_psi - lp_phi
        rows_phi, rows_psi, index = _joint_rows(r_phi, r_psi)
        sino_gap = float(w_dir @ np.trapezoid(
            rows_psi - rows_phi, r_psi.t, axis=1)[index]) / (4.0 * math.pi)
        resid = abs(gap - sino_gap) / max(abs(gap), lp_phi, 1e-300)
        return report(
            certificate=None,
            conclusion_holds=lp_phi <= lp_psi + chain_tol * lp_psi,
            hypothesis_holds=True,
            chain={"norm_gap": gap, "sinogram_gap": sino_gap,
                   "cavalieri_residual": resid},
            notes="p = 1: domination integrates directly to the comparison",
        )

    side_name = "phi" if p > 1.0 else "psi"
    base = phi if p > 1.0 else psi
    try:
        w_fn = separable_power(base, p - 1.0)
        cert = certify_intersection_function(w_fn, rel_tol=rel_tol, tail_tol=tail_tol)
    except (InputInvalid, GridTooCoarse) as exc:
        return report(
            certificate=None, conclusion_holds=False, hypothesis_holds=False,
            chain={"norm_ratio": (lp_psi / max(lp_phi, 1e-300)) ** p},
            notes=f"hypothesis fails: {side_name}^{{p-1}} could not be "
                  f"certified as an intersection function ({exc})",
        )
    if not cert.is_intersection_function:
        return report(
            certificate=cert, conclusion_holds=False, hypothesis_holds=False,
            chain={"norm_ratio": (lp_psi / max(lp_phi, 1e-300)) ** p},
            notes=f"hypothesis fails: {side_name}^{{p-1}} is not an "
                  "intersection function (no conclusion; the comparison may "
                  "still fail, see the counterexample constructor)",
        )

    # replay the proof chain through the ray-measure pairing
    pair_phi = _pair_with_measures(r_phi, cert, w_dir)   # int w * phi
    pair_psi = _pair_with_measures(r_psi, cert, w_dir)   # int w * psi
    if p > 1.0:
        direct_self = lp_phi ** p                        # int phi^{p-1} phi
        holder_bound = lp_phi ** (p - 1.0) * lp_psi
        chain = {
            "pairing_self": pair_phi,
            "pairing_cross": pair_psi,
            "pairing_residual": abs(pair_phi - direct_self)
            / max(direct_self, 1e-300),
            "monotone_step": pair_psi - pair_phi,
            "holder_slack": holder_bound - pair_psi,
        }
        ok = (pair_phi <= pair_psi + chain_tol * max(pair_psi, 1.0)
              and pair_psi <= holder_bound + chain_tol * max(holder_bound, 1.0))
    else:
        direct_self = lp_psi ** p                        # int psi^{p-1} psi
        rev_holder_bound = lp_psi ** (p - 1.0) * lp_phi  # reverse Hoelder
        chain = {
            "pairing_self": pair_psi,
            "pairing_cross": pair_phi,
            "pairing_residual": abs(pair_psi - direct_self)
            / max(direct_self, 1e-300),
            "monotone_step": pair_psi - pair_phi,
            "reverse_holder_slack": pair_phi - rev_holder_bound,
        }
        ok = (pair_phi <= pair_psi + chain_tol * max(pair_psi, 1.0)
              and rev_holder_bound <= pair_phi
              + chain_tol * max(abs(pair_phi), 1.0))
    conclusion = lp_phi <= lp_psi * (1.0 + chain_tol)
    return report(certificate=cert, conclusion_holds=bool(conclusion and ok),
                  hypothesis_holds=True, chain=chain)


# ----------------------------------------------------------------------------
# The counterexample constructor
# ----------------------------------------------------------------------------

def _bump_profiles(lattice: list[tuple[float, float]], grid,
                   r_max: float = DEFAULT_T_MAX,
                   n_r: int = 1024) -> list[SeparableFunction]:
    """Radial h with R h(t, theta) = beta(t) exactly (Fourier slice), one per
    (t0, sigma) of the lattice, in lattice order, sampled on [0, r_max]
    (psi's, in the counterexample: psi - eta h has one r_max).

    beta(t) = e^{-(t - t0)^2/sigma^2} + e^{-(t + t0)^2/sigma^2}, so
    h(r) = -beta'(r) / (2 pi r) is closed form: each h is one block with the
    constant angular row and one radial row, evaluated from that closed form.
    """
    parts = np.array([[math.sqrt(4.0 * math.pi)]])   # (mode, row): Y_00 only
    angular = degree_values_rows(parts, grid.nodes)[0]
    bumps = []
    for t0, sigma in lattice:
        def h(r, t0=t0, sigma=sigma):
            a, b = r - t0, r + t0
            return (a * np.exp(-(a / sigma) ** 2)
                    + b * np.exp(-(b / sigma) ** 2)) / r / (math.pi * sigma ** 2)
        h0 = 2.0 * (1.0 - 2.0 * (t0 / sigma) ** 2) * math.exp(-(t0 / sigma) ** 2)
        u = radial_profile(_with_origin(h, h0 / (math.pi * sigma ** 2)),
                           r_max=r_max, n=n_r)
        bumps.append(SeparableFunction([RowBlock(u, angular, parts, grid)]))
    return bumps


# Halvings of eta tried before the construction gives up.
_MAX_HALVINGS = 20


def _combine(psi: SeparableFunction, h: SeparableFunction,
             coeff: float) -> SeparableFunction:
    return SeparableFunction(psi.blocks + h.scaled(coeff).blocks)


def _integral_against(w_fn: SeparableFunction, hs: list) -> list[float]:
    """int w h for each h of hs; the classes and w at the radii once."""
    both = SeparableFunction(w_fn.blocks + [b for h in hs for b in h.blocks])
    first, index = both.node_classes()
    rg, wg = radial_gauss_legendre(both.r_max, 300)
    w_vals, wr = w_fn.values_polar(rg, first), wg * rg * rg
    return [float((wr @ (w_vals * h.values_polar(rg, first)))[index]
                  @ both.grid.weights) for h in hs]


def _negative_window(omega: np.ndarray,
                     mhat: np.ndarray) -> tuple[float, float]:
    """Frequency of the minimum of mhat and the half-depth half-width of the
    negative dip around it (the sign-only window can stretch to the grid edge
    for fast-decaying transforms, which would make the bump heavier-tailed
    than any Schwartz data; the half-depth width localizes it)."""
    i_w = int(np.argmin(mhat))
    depth = mhat[i_w]
    deep = mhat < 0.5 * depth
    lo = i_w
    while lo > 0 and deep[lo - 1]:
        lo -= 1
    hi = i_w
    while hi < len(omega) - 1 and deep[hi + 1]:
        hi += 1
    half = max(0.5 * (omega[hi] - omega[lo]), omega[1] - omega[0])
    return abs(float(omega[i_w])), float(half)


def construct_counterexample_radon(psi: SeparableFunction, p: float,
                                   rel_tol: float = DEFAULTS["rel_tol"],
                                   gap_tol: float = DEFAULTS["gap_tol"],
                                   tail_tol: float = DEFAULTS["tail_tol"]
                                   ) -> tuple[SeparableFunction,
                                              ComparisonReport]:
    """phi = psi - eta h with R phi <= R psi yet |phi|_p > |psi|_p (p > 1).

    Requires psi^{p-1} to fail intersection-function certification.  The
    bump h is radial for every psi, so int psi^{p-1} h pairs beta with the
    direction average of the certificate's ray-measure transforms; its
    parameters (t0, sigma) are searched on a small lattice around the
    negative window of that average.
    """
    require_exponent(p)
    if p == 1.0:
        raise NotApplicable("at p = 1 the comparison always holds under "
                            "domination; no counterexample exists")
    psi.require_finite("psi")
    # for 0 < p < 1 this raises InputInvalid on any decaying psi: the growing
    # power leaves the admissible class (the symmetric case-b construction
    # needs data outside this tool's function class)
    w_fn = separable_power(psi, p - 1.0)
    cert = certify_intersection_function(w_fn, rel_tol=rel_tol, tail_tol=tail_tol)
    if cert.is_intersection_function:
        raise NotApplicable(
            f"psi^{{p-1}} is certified as an intersection function at "
            f"p = {p}; the comparison theorem applies and no counterexample "
            "exists"
        )
    grid = psi.grid
    # direction average with the verifier's hemisphere weights, summed per
    # class first; a radial certificate's one direction is taken as it is
    w_dir = 2.0 * grid.weights[hemisphere_indices(grid)] \
        if len(cert.directions) > 1 else np.ones(1)
    omega = cert.omega
    mhat = np.bincount(cert.index, w_dir) @ cert.rows / w_dir.sum()
    t_star, half = _negative_window(omega, mhat)

    # lattice search for the most negative int w h
    lattice = [(t0, sigma) for t0 in (t_star, 0.85 * t_star, 1.15 * t_star)
               for sigma in (half / 2.0, half / 3.0, half)]
    bumps = _bump_profiles(lattice, grid, psi.r_max)
    pairings = _integral_against(w_fn, bumps)
    i = pairings.index(min(pairings))       # the first of equal minima
    ip, h, (t0, sigma) = pairings[i], bumps[i], lattice[i]
    if ip >= 0.0:
        raise ConstructionFailed(
            f"no bump in the search lattice achieves int psi^{{p-1}} h < 0 "
            f"(best {ip:.3e}; window center {t_star:.3f}, half-width "
            f"{half:.3f})"
        )

    # eta: keep phi >= 0, then insist on a strict norm gap
    n_chk = 512
    r_chk = np.linspace(0.0, psi.r_max, n_chk)
    first, _ = SeparableFunction(psi.blocks + h.blocks).node_classes()
    psi_vals = psi.values_polar(r_chk, first)
    h_vals = h.values_polar(r_chk, first)
    pos = h_vals > 1e-12 * np.max(np.abs(h_vals))
    eta = 0.5 * float(np.min(psi_vals[pos] / h_vals[pos]))
    lp_psi = lp_norm_rn(psi, p)
    phi = None
    gap = -np.inf
    for _ in range(_MAX_HALVINGS + 1):
        cand = _combine(psi, h, -eta)
        if cand.min_on_sample_grid(n_chk) >= -rel_tol * float(
                np.max(np.abs(psi_vals))):
            lp_phi = lp_norm_rn(cand, p)
            gap = lp_phi ** p - lp_psi ** p
            if gap > gap_tol:
                phi = cand
                break
        eta *= 0.5
    if phi is None:
        raise ConstructionFailed(
            f"norm gap stayed <= {gap_tol:.0e} after {_MAX_HALVINGS} halvings "
            f"(last gap {gap:.3e}, eta {eta:.3e}, int w h {ip:.3e})"
        )
    r_phi, r_psi = _sinogram_pair(phi, psi)
    margin = sinogram_dominates(r_phi, r_psi)
    scale = max(float(np.max(np.abs(r_psi.rows))), 1e-300)
    if margin < -rel_tol * scale:
        raise ConstructionFailed(
            f"constructed phi violates sinogram domination (margin "
            f"{margin:.3e}); bump parameters t0={t0:.3f} sigma={sigma:.3f}"
        )
    report = ComparisonReport(
        p=p, domination_margin=margin, certificate=cert,
        lp_f=lp_phi, lp_g=lp_psi,
        conclusion_holds=False, hypothesis_holds=False,
        chain={"eta": eta, "bump_pairing": ip, "norm_gap": gap,
               "bump_center": t0, "bump_width": sigma,
               "n_failing_directions": float(cert.failing.sum())},
        notes="counterexample: domination holds while |phi|_p > |psi|_p",
        transforms=(r_phi, r_psi),
    )
    return phi, report
