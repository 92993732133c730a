"""rn-mix: seeded Gaussian pairs, catalog entries and a smooth non-radial
function sent through the R^3 verdicts.

Closed forms fix every verdict in advance:
  R(A e^{-a|x|^2})(t)     = (A pi / a) e^{-a t^2}
  ||A e^{-a|x|^2}||_p^p   = A^p (pi / (p a))^{3/2}
  R(c r^2 e^{-k r^2} P_2)(t, xi) = P_2(xi_z) pi c e^{-k t^2} (2 k t^2 - 1) / (2 k^2)
and an integrable f is never an intersection function: m(r) = r^2 f^(r theta)
vanishes at r = 0, so its 1D transform integrates to 0 and must go negative.
"""

from __future__ import annotations

import math

import numpy as np

from verdicts import Verdict, close, refused

REL = 1e-7    # agreement with the closed forms (the plane integrals carry ~1e-10)

# Catalog entries with positive certificates and the certifier settings
# they need (kinked profiles need the relaxed tolerance; cauchy-ell needs
# its c/r^2 tail split off on a long grid).
CATALOG = (
    ("erf-type", {}, {}),
    ("exp-ell", {}, {"rel_tol": 1e-4}),
    ("gamma-q", {}, {"rel_tol": 1e-4}),
    ("cauchy-ell", {"r_max": 256.0, "n": 32768},
     {"r_max": 256.0, "n": 32768, "tail_correction": True}),
)

# Slots of one round.  Cheap certifications (4) stay fewer than the
# verifications (5), so the median latency is a verification; one catalog
# entry per round, in turn from an entry chosen by the seed.  The ill-posed
# share is fixed: 1 of 10.
ROUND = ("certify-gauss", "certify-catalog", "certify-nonradial", "nan-certify",
         "verify-0.5", "verify-1", "verify-hi", "verify-nonradial",
         "verify-1b", "construct")


def _gauss(rc, grid, A, a):
    return rc.separable_radial(lambda r: A * np.exp(-a * np.asarray(r, float) ** 2),
                               grid)


def _radon_gauss(A, a, t):
    return A * math.pi / a * np.exp(-a * t ** 2)


def _lp_gauss(A, a, p):
    return A * (math.pi / (p * a)) ** (1.5 / p)


def _nonradial(rc, grid, A, a, c, k):
    """A e^{-a r^2} + c r^2 e^{-k r^2} P_2(z): smooth at the origin and
    non-negative for c < 2 e A (k - a)."""
    z = grid.nodes[:, 2]
    one = rc.SphericalFunction(grid, np.ones(grid.n_nodes), parity="even")
    p2 = rc.SphericalFunction(grid, c * (1.5 * z * z - 0.5), parity="even")
    prof = rc.radon3d.radial_profile
    return rc.SeparableFunction([
        (prof(lambda r: A * np.exp(-a * np.asarray(r, float) ** 2)), one),
        (prof(lambda r: np.asarray(r, float) ** 2
              * np.exp(-k * np.asarray(r, float) ** 2)), p2)])


def _radon_nonradial(A, a, c, k, t, xi_z):
    p2 = 1.5 * xi_z * xi_z - 0.5
    return (_radon_gauss(A, a, t)[None, :]
            + np.outer(p2, math.pi * c * np.exp(-k * t ** 2)
                       * (2 * k * t ** 2 - 1) / (2 * k * k)))


def _pair(rng):
    """(A, a, B, b) with R phi <= R psi everywhere: b < a and B/b > A/a."""
    A, a = rng.uniform(0.5, 2.0), rng.uniform(0.8, 1.3)
    b = a * rng.uniform(0.6, 0.9)
    B = A * b / a * rng.uniform(1.1, 1.6)
    return A, a, B, b


def make_round(rc, seed: int, index: int) -> list:
    rng = np.random.default_rng([seed, index, 2])
    grid = rc.build_grid(16, 32)
    return [_verdict(rc, rng, grid, slot, seed + index) for slot in ROUND]


def _not_if(res, exc):
    if exc is not None:
        return f"raised {type(exc).__name__}: {exc}"
    if res.verdict != "not-intersection-function":
        return f"integrable input certified {res.verdict!r}"
    return None


def _verdict(rc, rng, grid, slot, turn):
    t = rc.symmetric_nodes()
    if slot == "certify-gauss":
        A, a = rng.uniform(0.5, 2.0), rng.uniform(0.5, 1.5)
        f = _gauss(rc, grid, A, a)
        return Verdict(slot, lambda: rc.certify_intersection_function(f),
                       _not_if)
    if slot == "certify-catalog":
        name, entry_kw, cert_kw = CATALOG[turn % len(CATALOG)]
        if name == "gamma-q":
            name = f"gamma-q({rng.uniform(1.2, 1.9):.3f})"
        f = rc.catalog_entry(name, grid, **entry_kw).f.scaled(
            rng.uniform(0.5, 2.0))

        def check(res, exc):
            if exc is not None:
                return f"raised {type(exc).__name__}: {exc}"
            if res.verdict != "intersection-function":
                return f"catalog {name} certified {res.verdict!r}"
            return None
        return Verdict(f"{slot}.{name}",
                       lambda: rc.certify_intersection_function(f, **cert_kw),
                       check)
    if slot == "nan-certify":
        A, a = rng.uniform(0.5, 2.0), rng.uniform(0.5, 1.5)
        r = np.linspace(0.0, 16.0, 2048)
        samples = A * np.exp(-a * r * r)
        samples[int(rng.integers(1, 200))] = np.nan
        f = rc.separable_radial(samples=samples, grid=grid)
        return Verdict(slot, lambda: rc.certify_intersection_function(f),
                       lambda res, exc: refused(res, exc, _if_numbers),
                       ill_posed=True)

    A, a = rng.uniform(0.5, 2.0), rng.uniform(0.8, 1.2)
    k, c = 1.2 * a, A * a * rng.uniform(0.2, 0.6)
    if slot == "certify-nonradial":
        f = _nonradial(rc, grid, A, a, c, k)
        return Verdict(slot, lambda: rc.certify_intersection_function(f),
                       _not_if)
    if slot == "verify-nonradial":
        phi = _nonradial(rc, grid, A, a, c, k)
        xi_z = grid.nodes[rc.radon3d.hemisphere_indices(grid), 2]
        r_phi = _radon_nonradial(A, a, c, k, t, xi_z)
        tt = np.linspace(0.0, 16.0, 4097)
        peak = np.max(_radon_nonradial(A, a, c, k, tt, np.array([1.0, 0.0]))
                      * np.exp(0.6 * a * tt * tt), axis=0)
        b = 0.6 * a
        B = float(np.max(peak)) * b / math.pi * rng.uniform(1.1, 1.4)
        psi = _gauss(rc, grid, B, b)
        margin = float(np.min(_radon_gauss(B, b, t)[None, :] - r_phi))
        return Verdict(slot, lambda: rc.verify_comparison_radon(phi, psi, 1.0),
                       _verify_check(margin, _radon_gauss(B, b, t).max(),
                                     A * (math.pi / a) ** 1.5,
                                     _lp_gauss(B, b, 1.0), 1.0))

    A, a, B, b = _pair(rng)
    psi = _gauss(rc, grid, B, b)
    if slot == "construct":
        p = float(rng.choice([2.0, 3.0]))
        lp_psi = _lp_gauss(B, b, p)

        def check(res, exc):
            if exc is not None:
                return f"raised {type(exc).__name__}: {exc}"
            phi, rep = res
            if rep.hypothesis_holds or rep.conclusion_holds:
                return "counterexample report claims the comparison holds"
            scale = float(np.max(_radon_gauss(B, b, t)))
            if phi.min_on_sample_grid() < -1e-9 * B:
                return "constructed phi is negative"
            margin = rc.sinogram_dominates(rc.radon_transform(phi),
                                           rc.radon_transform(psi))
            if margin < -1e-9 * scale:
                return f"domination fails (margin {margin:.3e})"
            if not rc.lp_norm_rn(phi, p) > lp_psi:
                return "no strict norm gap"
            return None
        return Verdict(f"{slot}.p{p:g}",
                       lambda: rc.construct_counterexample_radon(psi, p), check)

    p = {"verify-0.5": 0.5, "verify-1": 1.0, "verify-1b": 1.0,
         "verify-hi": float(rng.choice([2.0, 3.0]))}[slot]
    phi = _gauss(rc, grid, A, a)
    margin = float(np.min(_radon_gauss(B, b, t) - _radon_gauss(A, a, t)))
    return Verdict(f"verify.p{p:g}",
                   lambda: rc.verify_comparison_radon(phi, psi, p),
                   _verify_check(margin, _radon_gauss(B, b, t).max(),
                                 _lp_gauss(A, a, p), _lp_gauss(B, b, p), p))


def _verify_check(margin, scale, lp_phi, lp_psi, p):
    """p = 1: domination alone decides, so the comparison holds.  Otherwise
    the hypothesis needs an intersection function (p > 1: phi^{p-1}, an
    integrable Gaussian) or an admissible power (p < 1: psi^{p-1} grows), and
    fails: no conclusion."""
    def check(res, exc):
        if exc is not None:
            return f"raised {type(exc).__name__}: {exc}"
        for reason in (
                close(res.domination_margin, margin, REL, "domination margin",
                      scale),
                close(res.lp_phi, lp_phi, REL, "lp_phi"),
                close(res.lp_psi, lp_psi, REL, "lp_psi")):
            if reason:
                return reason
        if p == 1.0:
            if not res.conclusion_holds:
                return "p = 1 comparison not concluded under domination"
        elif res.hypothesis_holds is not False or res.conclusion_holds:
            return (f"hypothesis {res.hypothesis_holds} / conclusion "
                    f"{res.conclusion_holds}; expected a failed hypothesis")
        return None
    return check


def _if_numbers(cert):
    return [c.witness_value for c in cert.per_direction] \
        + [c.transform_data[1] for c in cert.per_direction]


def warm_up(rc) -> None:
    """Build the grid and the tables the round's inputs touch."""
    grid = rc.build_grid(16, 32)
    f = _nonradial(rc, grid, 1.0, 1.0, 0.3, 1.2)
    rc.radon_transform(f)
    rc.certify_intersection_function(f)
