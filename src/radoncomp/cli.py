"""Config-driven command line front end.

    radoncomp <kind> --config <file> [--out <dir>] [--tol-scale <float>]
              [--threads <int>]
    radoncomp --emit-schema

Subcommands mirror the scenario kinds.  Exit codes: 0 conclusion verified /
construction succeeded; 2 hypothesis failed (report written); 3 domination
failed; 4 construction failed; 1 input or usage error.  Reports are
byte-reproducible across reruns except for the timing block.  The R^3
runners import radon3d and compare3d themselves, so an S^2 run never loads
them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .config import SCENARIO_KINDS, ScenarioConfig, load_config
from .errors import (
    ConstructionFailed,
    DominationFails,
    InputInvalid,
    NotApplicable,
    RadoncompError,
)
from .exprlang import angular_context, evaluate, radial_context
from .funk import (
    StarBody,
    construct_counterexample_spherical,
    intersection_body_of,
    slicing_check,
    verify_comparison_spherical,
)
from .multipliers import certify_pd_r1
from .reports import (
    emit_report,
    report_schema,
    write_sphere_csv,
    write_transform_csv,
)
from .sphere import SphericalFunction, build_grid
from .tolerances import DEFAULTS

__all__ = ["main", "run_scenario"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_HYPOTHESIS = 2
EXIT_DOMINATION = 3
EXIT_CONSTRUCTION = 4
# exit code and note prefix of each refusal that still writes a report
_REFUSALS = {DominationFails: (EXIT_DOMINATION, "domination failed"),
             NotApplicable: (EXIT_HYPOTHESIS, "not applicable"),
             ConstructionFailed: (EXIT_CONSTRUCTION, "construction failed")}


# ----------------------------------------------------------------------------
# Building inputs from config
# ----------------------------------------------------------------------------

def _grid(cfg: ScenarioConfig):
    return build_grid(cfg.n_polar, cfg.n_azimuth)

def _angular_fn(cfg: ScenarioConfig, name: str, grid) -> SphericalFunction:
    nodes = grid.nodes
    vals = evaluate(cfg.asts[name],
                    angular_context(nodes[:, 0], nodes[:, 1], nodes[:, 2]))
    vals = np.broadcast_to(np.asarray(vals, float), (grid.n_nodes,)).copy()
    return SphericalFunction(grid, vals, parity="even")


def _separable_fn(cfg: ScenarioConfig, prefix: str, grid):
    from .radon3d import RadialProfile, SeparableFunction, separable_radial

    ast = cfg.asts[f"{prefix}_radial"]
    radial_eval = (lambda r: np.broadcast_to(
        np.asarray(evaluate(ast, radial_context(np.asarray(r, float))),
                   float), np.shape(r)).copy())
    ang_name = f"{prefix}_angular"
    if ang_name not in cfg.asts:
        return separable_radial(radial_eval, grid, r_max=cfg.r_max,
                                n=cfg.n_t, name=prefix)
    ang = _angular_fn(cfg, ang_name, grid)
    samples = radial_eval(np.linspace(0.0, cfg.r_max, cfg.n_t))
    profile = RadialProfile(samples, cfg.r_max, "schwartz", radial_eval)
    return SeparableFunction([(profile, ang)], name=prefix)


# ----------------------------------------------------------------------------
# Scenario pipelines: each returns (exit_code, certificates, norms, margins,
# residuals, notes) and may write CSVs into out_dir
# ----------------------------------------------------------------------------

def _comparison_result(code, rep, a, b, margins, residuals):
    """Runner result of a ComparisonReport whose pair is named a and b in
    the norm keys: lp_f/lp_g on S^2, lp_phi/lp_psi on R^3."""
    certs = [rep.certificate.to_json_dict()] if rep.certificate else []
    return (code, certs, {f"lp_{a}": rep.lp_f, f"lp_{b}": rep.lp_g},
            {"domination": rep.domination_margin, **margins}, residuals,
            rep.notes)


def _run_spherical_compare(cfg, out, tol):
    grid = _grid(cfg)
    f = _angular_fn(cfg, "f", grid)
    g = _angular_fn(cfg, "g", grid)
    rep = verify_comparison_spherical(f, g, cfg.p, rel_tol=tol["rel_tol"])
    write_sphere_csv(out / "f.csv", f)
    write_sphere_csv(out / "g.csv", g)
    write_sphere_csv(out / "radon_f.csv", rep.transforms[0])
    write_sphere_csv(out / "radon_g.csv", rep.transforms[1])
    code = EXIT_OK if rep.conclusion_holds else EXIT_HYPOTHESIS
    return _comparison_result(code, rep, "f", "g",
                              {"norm_gap": rep.lp_g - rep.lp_f},
                              dict(rep.chain))


def _run_spherical_counterexample(cfg, out, tol):
    grid = _grid(cfg)
    g = _angular_fn(cfg, "g", grid)
    f, rep = construct_counterexample_spherical(
        g, cfg.p, rel_tol=tol["rel_tol"], gap_tol=tol["gap_tol"])
    write_sphere_csv(out / "constructed.csv", f)
    write_sphere_csv(out / "base.csv", g)
    return _comparison_result(EXIT_OK, rep, "f", "g",
                              {"norm_gap": rep.chain["norm_gap"],
                               "min_constructed": rep.chain["min_constructed"]},
                              {})


def _run_slicing(cfg, out, tol):
    grid = _grid(cfg)
    f = _angular_fn(cfg, "f", grid)
    rep = slicing_check(f, cfg.p, lower_branch=cfg.lower_branch,
                        rel_tol=tol["rel_tol"])
    write_sphere_csv(out / "f.csv", f)
    code = EXIT_OK if (rep.hypothesis_holds and rep.holds) else EXIT_HYPOTHESIS
    return (code, [rep.certificate.to_json_dict()],
            {"lp_f": rep.lhs, "bound": rep.rhs},
            {"slicing": rep.margin},
            {}, f"extremal value {rep.extremal_value!r} at direction "
                f"{[float(v) for v in rep.extremal_direction]}")


def _run_rn_compare(cfg, out, tol):
    from .compare3d import verify_comparison_radon

    grid = _grid(cfg)
    phi = _separable_fn(cfg, "phi", grid)
    psi = _separable_fn(cfg, "psi", grid)
    rep = verify_comparison_radon(phi, psi, cfg.p,
                                  rel_tol=tol["rel_tol"],
                                  chain_tol=tol["chain_tol"],
                                  tail_tol=tol["tail_tol"])
    rep.transforms[0].to_csv(str(out / "sinogram_phi.csv"))
    rep.transforms[1].to_csv(str(out / "sinogram_psi.csv"))
    code = EXIT_OK if rep.conclusion_holds else EXIT_HYPOTHESIS
    return _comparison_result(code, rep, "phi", "psi",
                              {"norm_gap": rep.lp_g - rep.lp_f},
                              dict(rep.chain))


def _run_rn_counterexample(cfg, out, tol):
    from .compare3d import construct_counterexample_radon

    grid = _grid(cfg)
    psi = _separable_fn(cfg, "psi", grid)
    phi, rep = construct_counterexample_radon(
        psi, cfg.p, rel_tol=tol["rel_tol"], gap_tol=tol["gap_tol"],
        tail_tol=tol["tail_tol"])
    rep.transforms[0].to_csv(str(out / "sinogram_phi.csv"))
    rep.transforms[1].to_csv(str(out / "sinogram_psi.csv"))
    return _comparison_result(EXIT_OK, rep, "phi", "psi",
                              {"norm_gap": rep.chain["norm_gap"]}, {})


def _run_certify_pd(cfg, out, tol):
    grid = _grid(cfg)
    f = _angular_fn(cfg, "f", grid)
    cert = certify_pd_r1(f, cfg.q, rel_tol=tol["rel_tol"])
    write_sphere_csv(out / "f.csv", f)
    write_sphere_csv(out / "transform.csv", cert.transform_data)
    code = EXIT_OK if cert.is_positive_definite else EXIT_HYPOTHESIS
    tr = cert.transform_data.values
    return (code, [cert.to_json_dict()],
            {"transform_min": float(np.min(tr)),
             "transform_max": float(np.max(tr))},
            {"positivity": float(np.min(tr))},
            {"power_truncation":
             cert.extra.get("power_truncation_residual", 0.0)},
            f"verdict {cert.verdict}")


def _run_certify_intersection(cfg, out, tol):
    from .radon3d import catalog_entry, certify_intersection_function

    grid = _grid(cfg)
    if cfg.catalog:
        f = catalog_entry(cfg.catalog, grid, r_max=cfg.r_max, n=cfg.n_t).f
    else:
        f = _separable_fn(cfg, "f", grid)
    cert = certify_intersection_function(
        f, r_max=cfg.r_max, n=cfg.n_t, rel_tol=tol["rel_tol"],
        tail_tol=tol["tail_tol"], tail_correction=cfg.tail_correction)
    d = int(np.argmin(cert.minima))                 # the lowest row
    write_transform_csv(out / "transform_worst_direction.csv", cert.omega,
                        cert.rows[cert.index[d]])
    code = EXIT_OK if cert.is_intersection_function else EXIT_HYPOTHESIS
    return (code, [cert.to_json_dict()],
            {},
            {"positivity": float(cert.minima[d])},
            {}, f"verdict {cert.verdict}")


def _run_intersection_body(cfg, out, tol):
    grid = _grid(cfg)
    rho = _angular_fn(cfg, "rho", grid)
    body = StarBody(rho, name="L")
    il = intersection_body_of(body)
    write_sphere_csv(out / "radial.csv", body.radial)
    write_sphere_csv(out / "radial_intersection_body.csv", il.radial)
    return (EXIT_OK, [],
            {"rho_min": float(np.min(rho.values)),
             "rho_il_min": float(np.min(il.radial.values))},
            {},
            {"spectral_identity":
             il.meta.get("spectral_identity_residual", 0.0)},
            il.name)


def _run_catalog_verify(cfg, out, tol):
    from .radon3d import (RELATION_CONSTANT, catalog_entry, fourier_1d,
                          ray_profile_samples, symmetric_nodes)

    grid = _grid(cfg)
    entry = catalog_entry(cfg.catalog, grid, r_max=cfg.r_max, n=cfg.n_t)
    residuals = {}
    direction = np.array([[0.0, 0.0, 1.0]])
    r_nodes, m = ray_profile_samples(entry.f, direction, cfg.r_max, cfg.n_t)
    dt = 2.0 * cfg.r_max / cfg.n_t
    omega, mhat = fourier_1d(m[0], dt)
    if entry.h_eval is not None:
        m_ref = RELATION_CONSTANT * entry.h_eval(r_nodes)
        residuals["ray_profile"] = float(
            np.max(np.abs(m[0] - m_ref)) / np.max(np.abs(m_ref)))
    if entry.mhat_eval is not None:
        ref = entry.mhat_eval(omega)
        residuals["ray_profile_transform"] = float(
            np.max(np.abs(mhat - ref)) / np.max(np.abs(ref)))
    if entry.g_eval is not None and entry.f.fourier_radial is not None:
        # interior relation: r^2 f^(r) = 8 pi^2 * (1D transform of g)(r)
        t = symmetric_nodes(cfg.n_t, cfg.r_max)
        om_g, ghat = fourier_1d(entry.g_eval(t), dt)
        nz = om_g != 0.0           # the closed form r^2 f^(r) has a 0 * inf
        lhs = om_g[nz] ** 2 * entry.f.fourier_radial(np.abs(om_g[nz]))
        residuals["relation"] = float(
            np.max(np.abs(lhs - RELATION_CONSTANT * ghat[nz]))
            / max(float(np.max(np.abs(lhs))), 1e-300))
    write_transform_csv(out / "ray_profile.csv", r_nodes, m[0], label="m")
    write_transform_csv(out / "ray_profile_transform.csv", omega, mhat)
    limit = tol["catalog_tol"]
    worst = max(residuals.values(), default=0.0)
    code = EXIT_OK if worst <= limit else EXIT_HYPOTHESIS
    return (code, [], {},
            {"tolerance_margin": limit - worst},
            residuals, f"catalog entry {entry.name}: {entry.notes}")


_RUNNERS = {
    "spherical-compare": _run_spherical_compare,
    "spherical-counterexample": _run_spherical_counterexample,
    "slicing": _run_slicing,
    "rn-compare": _run_rn_compare,
    "rn-counterexample": _run_rn_counterexample,
    "certify-pd": _run_certify_pd,
    "certify-intersection": _run_certify_intersection,
    "intersection-body": _run_intersection_body,
    "catalog-verify": _run_catalog_verify,
}


def run_scenario(cfg: ScenarioConfig, out_dir: str | None = None,
                 tol_scale: float = 1.0) -> int:
    """Run one scenario end to end; writes report.json, manifest.json, CSVs."""
    if not 0.0 < tol_scale < math.inf:
        raise InputInvalid(f"--tol-scale must be finite and above 0, got "
                           f"{tol_scale}")
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    tol = {k: cfg.tolerances.get(k, v) * tol_scale for k, v in DEFAULTS.items()}
    started = time.perf_counter()
    try:
        code, certs, norms, margins, residuals, notes = \
            _RUNNERS[cfg.kind](cfg, out, tol)
    except (DominationFails, NotApplicable, ConstructionFailed) as exc:
        code, prefix = _REFUSALS[type(exc)]
        certs, norms, margins, residuals = [], {}, {}, {}
        notes = f"{prefix}: {exc}"
    wall = time.perf_counter() - started
    inputs = {
        "kind": cfg.kind, "p": cfg.p, "q": cfg.q, "catalog": cfg.catalog,
        "expressions": dict(cfg.expressions),
        "grid": {"n_polar": cfg.n_polar, "n_azimuth": cfg.n_azimuth,
                 "n_t": cfg.n_t, "r_max": cfg.r_max},
        "tol_scale": tol_scale,
    }
    emit_report(out, cfg.kind, inputs, certs, norms, margins, residuals,
                wall_seconds=wall, exit_code=code, notes=notes,
                raw_config=cfg.raw)
    return code


# ----------------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------------

def _configure_threads(n: int | None) -> None:
    # NumPy, and with it the BLAS, is loaded by now, so setting
    # OPENBLAS_NUM_THREADS and the like here would change nothing: only
    # threadpoolctl resizes a loaded BLAS pool.
    source, given = "--threads", n
    if n is None:
        source = "RADONCOMP_THREADS"
        given = os.environ.get(source)
        if not given:
            return
        n = int(given) if given.strip().isdecimal() else 0
    if n < 1:
        raise InputInvalid(f"{source} must be a positive integer, got "
                           f"{given!r}")
    try:
        import threadpoolctl

        threadpoolctl.threadpool_limits(n)
    except ImportError:
        pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radoncomp",
        description="Radon-transform comparison toolkit: scenario runner")
    parser.add_argument("--emit-schema", action="store_true",
                        help="print the report.json schema and exit")
    sub = parser.add_subparsers(dest="command")
    for kind in SCENARIO_KINDS:
        sp = sub.add_parser(kind, help=f"run a {kind} scenario")
        sp.add_argument("--config", required=True, help="INI scenario config")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--tol-scale", type=float, default=1.0,
                        help="multiply each of the five [tolerances] values "
                             "by this factor, the certificates inside compare, "
                             "counterexample and slicing included")
        sp.add_argument("--threads", type=int, default=None,
                        help="BLAS/OpenMP thread cap, applied through "
                             "threadpoolctl; without threadpoolctl installed "
                             "it has no effect (fallback: RADONCOMP_THREADS)")
    return parser


def main(argv: list | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse has printed the usage and error
        return EXIT_INPUT if exc.code else EXIT_OK
    if args.emit_schema:
        json.dump(report_schema(), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return EXIT_OK
    if not args.command:
        _build_parser().print_usage(sys.stderr)
        return EXIT_INPUT
    try:
        _configure_threads(args.threads)
        cfg = load_config(args.config)
        if cfg.kind != args.command:
            print(f"config kind {cfg.kind!r} does not match subcommand "
                  f"{args.command!r}", file=sys.stderr)
            return EXIT_INPUT
        return run_scenario(cfg, args.out, args.tol_scale)
    except RadoncompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
