"""Acceptance suite: one test per release criterion, at the stated
tolerances and time budgets."""

import json
import math
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from scipy.special import erf, eval_legendre

from conftest import random_even_spectrum, random_positive_even
from radoncomp.cli import main
from radoncomp.compare3d import (
    construct_counterexample_radon,
    verify_comparison_radon,
)
from radoncomp.funk import (
    construct_counterexample_spherical,
    slicing_check,
    sradon_direct,
    sradon_map,
    verify_comparison_spherical,
)
from radoncomp.multipliers import certify_pd_r1, funk_eigenvalue, multiplier
from radoncomp.radon3d import (
    catalog_entry,
    certify_intersection_function,
    classification_witness,
    fourier_1d,
    mollified_ball,
    radon_direct_point,
    radon_transform,
    ray_profile_samples,
    separable_radial,
    symmetric_nodes,
)
from radoncomp.reports import report_schema
from radoncomp.sphere import (
    HarmonicSpectrum,
    SphericalFunction,
    analyze,
    constant_function,
    evaluate_spectrum,
    lp_norm_sphere,
    synthesize,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class timed:
    """Context manager asserting a wall-clock budget in seconds."""

    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.t0
            assert elapsed < self.budget, \
                f"took {elapsed:.2f}s, budget {self.budget}s"


def gaussian(grid):
    return separable_radial(
        lambda r: np.exp(-np.asarray(r, float) ** 2), grid,
        fourier_radial=lambda r: math.pi ** 1.5
        * np.exp(-np.asarray(r, float) ** 2 / 4.0))


def zonal(grid, a, k=2):
    z = grid.nodes[:, 2]
    f = SphericalFunction(grid, 1.0 + a * eval_legendre(k, z), parity="even")
    f.spectrum = analyze(f, grid.bandwidth)
    return f


# 1 ---------------------------------------------------------------------------

def test_criterion_01_multiplier_duality():
    with timed(1.0):
        for k in range(0, 66, 2):
            for p in (0.5, 1.0, 1.5, 2.0, 2.5):
                prod = multiplier(3, k, p) * multiplier(3, k, 3.0 - p)
                assert abs(prod / (2.0 * math.pi) ** 3 - 1.0) <= 1e-10, (k, p)


# 2 ---------------------------------------------------------------------------

def test_criterion_02_section_identity(grid16):
    for k in range(0, 66, 2):
        assert abs(multiplier(3, k, 2.0)
                   / (math.pi * funk_eigenvalue(k)) - 1.0) <= 1e-10, k
    # eigenvalues reproduced independently: integrate the degree-k zonal
    # eigenfunction over the equator and divide by its value at the pole
    pole = np.array([0.0, 0.0, 1.0])
    for k in range(0, 66, 2):
        coeffs = np.zeros((k + 1) ** 2)
        coeffs[k * k + k] = 1.0
        spec = HarmonicSpectrum(k, coeffs)
        f = constant_function(grid16, 1.0)
        f.spectrum = spec
        at_pole = float(evaluate_spectrum(spec, pole[None, :])[0])
        quad = sradon_direct(f, pole) / at_pole
        assert abs(quad - funk_eigenvalue(k)) <= 1e-8 * max(
            1.0, abs(funk_eigenvalue(k))), k


# 3 ---------------------------------------------------------------------------

def test_criterion_03_spectral_matches_direct(grid18):
    from radoncomp.funk import sradon_spectral

    rng = np.random.default_rng(20240317)
    with timed(10.0):
        for _ in range(50):
            spec = random_even_spectrum(rng, 16)
            f = synthesize(spec, grid18, parity="even")
            f.spectrum = spec
            rspec = sradon_spectral(spec)
            scale = float(np.max(np.abs(
                evaluate_spectrum(rspec, grid18.nodes))))
            for _ in range(2):
                xi = rng.standard_normal(3)
                xi /= np.linalg.norm(xi)
                direct = sradon_direct(f, xi)
                spectral = float(evaluate_spectrum(rspec, xi[None, :])[0])
                assert abs(direct - spectral) <= 1e-8 * scale


# 4 ---------------------------------------------------------------------------

def test_criterion_04_randomized_comparison(grid16):
    """500 random certified pairs across both branches; zero violations."""
    rng = np.random.default_rng(7)
    p_values = (1.5, 2.0, 3.0, 0.25, 0.5)
    with timed(120.0):
        for trial in range(500):
            p = p_values[trial % len(p_values)]
            # hypothesis bearer: small positive even perturbation of 1,
            # halving the amplitude until the power certifies
            amp = 0.2
            while True:
                h = random_positive_even(rng, grid16, l_max=6, amplitude=amp)
                if certify_pd_r1(h, p - 1.0).is_positive_definite:
                    break
                amp *= 0.5
            bump = random_positive_even(rng, grid16, l_max=4, amplitude=0.3)
            extra = SphericalFunction(
                grid16, 0.1 * rng.uniform(0.2, 1.0) * bump.values,
                parity="even")
            if p > 1.0:
                f = h
                g = SphericalFunction(grid16, h.values + extra.values,
                                      parity="even")
            else:
                # reverse branch: the hypothesis sits on the dominating side
                g = h
                f = SphericalFunction(
                    grid16, rng.uniform(0.5, 0.95) * h.values, parity="even")
            rep = verify_comparison_spherical(f, g, p)
            assert rep.hypothesis_holds and rep.conclusion_holds, (trial, p)
            assert rep.lp_f <= rep.lp_g + 1e-9, (trial, p)


# 5 ---------------------------------------------------------------------------

def test_criterion_05_constructor_past_threshold(grid16):
    with timed(10.0):
        lo, hi = 0.3, 0.8   # certified positive definite / certified not
        assert certify_pd_r1(zonal(grid16, lo), 1.0).is_positive_definite
        assert not certify_pd_r1(zonal(grid16, hi), 1.0).is_positive_definite
        while hi - lo > 1e-6:
            mid = 0.5 * (lo + hi)
            if certify_pd_r1(zonal(grid16, mid), 1.0).is_positive_definite:
                lo = mid
            else:
                hi = mid
        a_star = 0.5 * (lo + hi)
        # the analytic flip sits at 1/2; the grid sees it slightly later
        # because its polar nodes stop short of the poles
        assert 0.5 < a_star < 0.55
        g = zonal(grid16, 1.1 * a_star)
        f, rep = construct_counterexample_spherical(g, 2.0)
        rf, rg = sradon_map(f), sradon_map(g)
        assert float(np.min(rg.values - rf.values)) >= -1e-9 * rg.max_abs()
        assert f.min() > 0.0
        assert lp_norm_sphere(f, 2.0) - lp_norm_sphere(g, 2.0) > 1e-8


# 6 ---------------------------------------------------------------------------

def test_criterion_06_slicing(grid16):
    with timed(30.0):
        one = constant_function(grid16, 1.0)
        one.spectrum = analyze(one, 4)
        rep = slicing_check(one, 2.0)
        root = math.sqrt(4.0 * math.pi)
        assert abs(rep.lhs - root) <= 1e-10
        assert abs(rep.rhs - root) <= 1e-10
        rng = np.random.default_rng(11)
        done = 0
        while done < 100:
            amp = 0.2
            while True:
                f = random_positive_even(rng, grid16, l_max=6, amplitude=amp)
                if certify_pd_r1(f, 1.0).is_positive_definite:
                    break
                amp *= 0.5
            rep = slicing_check(f, 2.0)
            assert rep.hypothesis_holds
            assert rep.margin >= -1e-9 * abs(rep.rhs)
            done += 1


# 7 ---------------------------------------------------------------------------

def test_criterion_07_gaussian_radon(grid16):
    with timed(5.0):
        phi = gaussian(grid16)
        sino = radon_transform(phi)
        ref = math.pi * np.exp(-sino.t ** 2)
        assert float(np.max(np.abs(sino.values - ref[None, :]))) <= 1e-8
        theta = np.array([0.6, -0.48, 0.64])
        theta /= np.linalg.norm(theta)
        for t in sino.t[::128]:
            direct = radon_direct_point(phi, float(t), theta)
            assert abs(direct - math.pi * math.exp(-t * t)) <= 1e-8


# 8 ---------------------------------------------------------------------------

def test_criterion_08_gaussian_not_intersection(grid16):
    with timed(5.0):
        cert = certify_intersection_function(gaussian(grid16))
        assert not cert.is_intersection_function
        worst = min(cert.per_direction, key=lambda c: c.witness_value)
        omega, mhat = worst.transform_data
        ref = math.pi ** 1.5 * 2.0 * math.sqrt(math.pi) \
            * (2.0 - 4.0 * omega ** 2) * np.exp(-omega ** 2)
        assert float(np.max(np.abs(mhat - ref))) \
            <= 1e-6 * float(np.max(np.abs(ref)))
        assert abs(float(worst.witness_point)) > 1.0 / math.sqrt(2.0)


# 9 ---------------------------------------------------------------------------

def test_criterion_09_catalog_erf_type(grid16):
    with timed(10.0):
        entry = catalog_entry("erf-type", grid16)
        c8 = 8.0 * math.pi ** 2
        rng = np.random.default_rng(3)
        dirs = rng.standard_normal((8, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        r_nodes, m = ray_profile_samples(entry.f, dirs, 16.0, 2048)
        m_ref = c8 * np.exp(-r_nodes ** 2)
        for d in range(len(dirs)):
            assert float(np.max(np.abs(m[d] - m_ref))) <= 1e-6 * c8
            omega, mhat = fourier_1d(m[d], r_nodes[1] - r_nodes[0])
            mref = 8.0 * math.pi ** 2.5 * np.exp(-omega ** 2 / 4.0)
            assert float(np.max(np.abs(mhat - mref))) \
                <= 1e-6 * float(np.max(mref))
        # interior relation between the body data g and the radial transform
        t = symmetric_nodes(2048, 16.0)
        om, ghat = fourier_1d(entry.g_eval(t), t[1] - t[0])
        nz = om != 0.0
        lhs = om[nz] ** 2 * entry.f.fourier_radial(np.abs(om[nz]))
        residual = float(np.max(np.abs(lhs - c8 * ghat[nz]))
                         / np.max(np.abs(lhs)))
        assert residual <= 1e-5


# 10 --------------------------------------------------------------------------

def test_criterion_10_indicator_scaling(grid16):
    with timed(10.0):
        M, w = 2.0, 1e-2
        phi = mollified_ball(1.0, w, grid=grid16)
        psi = mollified_ball(M, M * w, grid=grid16).scaled(M ** -2)
        rep = verify_comparison_radon(phi, psi, 2.0)
        assert rep.domination_margin >= -1e-3
        ratio = (rep.lp_psi / rep.lp_phi) ** 2
        # M^{n - p(n-1)} = 2^{-1} at n = 3, p = 2
        assert abs(ratio - 0.5) <= 1e-3


# 11 --------------------------------------------------------------------------

def test_criterion_11_radon_counterexample(grid16):
    with timed(60.0):
        psi = gaussian(grid16)
        phi, rep = construct_counterexample_radon(psi, 2.0)
        assert phi.min_on_sample_grid(512) >= -1e-9
        assert rep.domination_margin >= -1e-9 * math.pi
        assert rep.lp_phi - rep.lp_psi > 1e-8


# 12 --------------------------------------------------------------------------

def test_criterion_12_classification_pairing(grid16):
    with timed(30.0):
        f = catalog_entry("erf-type", grid16).f
        cert = certify_intersection_function(f)
        assert cert.is_intersection_function
        report = classification_witness(f, cert, n_tests=10)
        assert len(report["per_test"]) == 10
        assert report["max_residual"] <= 1e-4
        for density in cert.mhat:        # the ray measures' densities
            assert float(np.min(density)) >= -1e-4 * float(
                np.max(np.abs(density)))


# 13 --------------------------------------------------------------------------

def test_criterion_13_cli_end_to_end(tmp_path):
    expected = {
        "spherical-compare.ini": 0,
        "spherical-counterexample.ini": 0,
        "slicing.ini": 0,
        "rn-compare.ini": 0,
        "rn-counterexample.ini": 0,
        "certify-pd.ini": 0,
        "certify-intersection.ini": 0,
        "certify-intersection-gaussian.ini": 2,
        "intersection-body.ini": 0,
        "catalog-verify.ini": 0,
    }
    schema = report_schema()
    with timed(300.0):
        for name, want in sorted(expected.items()):
            kind = None
            for line in (CONFIG_DIR / name).read_text().splitlines():
                if line.strip().startswith("kind"):
                    kind = line.split("=", 1)[1].strip()
            out = tmp_path / name
            code = main([kind, "--config", str(CONFIG_DIR / name),
                         "--out", str(out)])
            assert code == want, name
            report = json.loads((out / "report.json").read_text())
            jsonschema.validate(report, schema)
            for key in ("scenario", "inputs", "certificates", "norms",
                        "margins", "residuals", "timing"):
                assert key in report, (name, key)
        # byte reproducibility modulo the timing block
        name = "rn-compare.ini"
        raws = []
        for i in range(2):
            out = tmp_path / f"repro{i}"
            main(["rn-compare", "--config", str(CONFIG_DIR / name),
                  "--out", str(out)])
            raws.append((out / "report.json").read_text())
        a, b = (json.loads(r) for r in raws)
        a.pop("timing")
        b.pop("timing")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
