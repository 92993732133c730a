"""End-to-end command line runs over the shipped scenario configs: exit
codes, schema-valid reports, byte reproducibility, and input-error paths."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import radoncomp
from radoncomp.cli import main
from radoncomp.config import load_config
from radoncomp.reports import report_schema

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# every shipped config and its documented exit code
SHIPPED = {
    "spherical-compare.ini": 0,
    "spherical-counterexample.ini": 0,
    "slicing.ini": 0,
    "rn-compare.ini": 0,
    "rn-counterexample.ini": 0,
    "rn-counterexample-nonradial.ini": 0,
    "certify-pd.ini": 0,
    "certify-intersection.ini": 0,
    "certify-intersection-gaussian.ini": 2,   # Gaussian is not one; reported
    "intersection-body.ini": 0,
    "catalog-verify.ini": 0,
}


def kind_of(name):
    for line in (CONFIG_DIR / name).read_text().splitlines():
        if line.strip().startswith("kind"):
            return line.split("=", 1)[1].strip()
    raise AssertionError(name)


@pytest.mark.parametrize("name,expected", sorted(SHIPPED.items()))
def test_shipped_configs_run(tmp_path, name, expected):
    out = tmp_path / "out"
    code = main([kind_of(name), "--config", str(CONFIG_DIR / name),
                 "--out", str(out)])
    assert code == expected
    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, report_schema())
    assert report["scenario"] == kind_of(name)
    assert report["timing"]["wall_seconds"] >= 0.0
    # every CSV cell below the optional column-name header is a plain float
    for path in out.glob("*.csv"):
        rows = [line for line in path.read_text().splitlines()
                if not line.startswith("#")]
        if rows[0][0].isalpha():
            rows = rows[1:]
        assert rows, path.name
        for row in rows:
            [float(cell) for cell in row.split(",")]


def test_report_byte_reproducible(tmp_path):
    name = "spherical-compare.ini"
    outs = []
    for i in range(2):
        out = tmp_path / f"run{i}"
        assert main([kind_of(name), "--config", str(CONFIG_DIR / name),
                     "--out", str(out)]) == 0
        outs.append((out / "report.json").read_bytes())
    a, b = (json.loads(raw) for raw in outs)
    a.pop("timing")
    b.pop("timing")
    assert json.dumps(a, indent=2, sort_keys=True) \
        == json.dumps(b, indent=2, sort_keys=True)
    # and the serialization itself is canonical: sorted keys, two-space
    # indent, trailing newline
    assert outs[0].endswith(b"\n")
    assert outs[0].decode() == json.dumps(json.loads(outs[0]), indent=2,
                                          sort_keys=True) + "\n"


def test_csv_outputs_written(tmp_path):
    out = tmp_path / "out"
    main(["rn-compare", "--config", str(CONFIG_DIR / "rn-compare.ini"),
          "--out", str(out)])
    assert (out / "sinogram_phi.csv").exists()
    assert (out / "sinogram_psi.csv").exists()


def _child(*args, timeout=300):
    """Run the interpreter with args, on this checkout's src."""
    src = str(Path(radoncomp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


def _loaded_after(code, args=()):
    """Run code in a fresh interpreter; its stdout lines.  It must exit 0
    and write nothing to stderr (no warning either)."""
    run = _child("-c", code, *args)
    assert run.returncode == 0 and run.stderr == "", run.stderr
    return run.stdout.splitlines()


# prints the loaded scipy, numpy.random, jsonschema and importlib.metadata
# modules
_LOADED = (
    "import sys\n"
    "def loaded():\n"
    "    print(sorted(m for m in sys.modules\n"
    "                 if m.split('.')[0] in ('scipy', 'jsonschema')\n"
    "                 or m.split('.')[:2] in (['numpy', 'random'], ['numpy', 'ma'],\n"
    "                                         ['importlib', 'metadata'])))\n")


def test_cli_runs_load_no_scipy_numpy_random_jsonschema_or_metadata(tmp_path):
    # the special functions, splines and quadratures are NumPy and standard
    # library code, the evenness check samples fixed directions, a valid
    # report passes the schema walk without jsonschema, and the manifest
    # takes radoncomp.__version__: neither the import, nor any shipped run,
    # nor --emit-schema loads any of those modules
    code = _LOADED + (
        "import contextlib, io\n"
        "from radoncomp.cli import main\n"
        "loaded()\n"
        "for kind, config, out, code in zip(*[iter(sys.argv[1:])] * 4):\n"
        "    assert main([kind, '--config', config, '--out', out]) == int(code)\n"
        "    loaded()\n"
        "with contextlib.redirect_stdout(io.StringIO()) as schema:\n"
        "    assert main(['--emit-schema']) == 0\n"
        "assert schema.getvalue().startswith('{')\n"
        "loaded()\n")
    args = []
    for name, expected in sorted(SHIPPED.items()):
        args += [kind_of(name), str(CONFIG_DIR / name), str(tmp_path / name),
                 str(expected)]
    assert _loaded_after(code, args) == ["[]"] * (2 + len(SHIPPED))


def test_r3_library_calls_load_no_scipy_or_numpy_random():
    # the benchmark's R^3 warm-up (a non-radial radon_transform and
    # certification) and the plane transform of the mollified ball
    code = _LOADED + (
        "import numpy as np\n"
        "import radoncomp as rc\n"
        "from radoncomp.radon3d import radial_profile\n"
        "grid = rc.build_grid(16, 32)\n"
        "z = grid.nodes[:, 2]\n"
        "f = rc.SeparableFunction([\n"
        "    (radial_profile(lambda r: np.exp(-r * r)),\n"
        "     rc.SphericalFunction(grid, np.ones(grid.n_nodes), parity='even')),\n"
        "    (radial_profile(lambda r: r * r * np.exp(-1.2 * r * r)),\n"
        "     rc.SphericalFunction(grid, 0.3 * (1.5 * z * z - 0.5),\n"
        "                          parity='even'))])\n"
        "rc.radon_transform(f)\n"
        "rc.certify_intersection_function(f)\n"
        "ball = rc.mollified_ball(grid=grid)\n"
        "rc.radon_transform(ball)\n"
        "loaded()\n")
    assert _loaded_after(code) == ["[]"]


def test_s2_runs_load_no_r3_modules(tmp_path):
    # radoncomp exports the R^3 names lazily and the CLI imports radon3d and
    # compare3d in its R^3 runners only; the names still resolve on use
    code = (
        "import sys\n"
        "from radoncomp.cli import main\n"
        "r3 = ('radoncomp.radon3d', 'radoncomp.compare3d')\n"
        "for kind, config, out, code in zip(*[iter(sys.argv[1:])] * 4):\n"
        "    assert main([kind, '--config', config, '--out', out]) == int(code)\n"
        "print(sorted(m for m in sys.modules if m in r3))\n"
        "import radoncomp as rc\n"
        "print(rc.radon3d.radial_profile.__module__, rc.lp_norm_rn.__module__)\n"
        "print(sorted(m for m in sys.modules if m in r3))\n")
    args = []
    for name, expected in sorted(SHIPPED.items()):
        if not name.startswith(("rn-", "certify-intersection", "catalog")):
            args += [kind_of(name), str(CONFIG_DIR / name),
                     str(tmp_path / name), str(expected)]
    assert len(args) == 4 * 5
    assert _loaded_after(code, args) == [
        "[]", "radoncomp.radon3d radoncomp.compare3d",
        "['radoncomp.compare3d', 'radoncomp.radon3d']"]


def test_every_export_resolves():
    # a name left in a module's __all__ or in the package's lazy table after
    # its definition is gone would fail only when someone reads it
    import importlib
    import pkgutil

    for info in pkgutil.iter_modules(radoncomp.__path__):
        module = importlib.import_module(f"radoncomp.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.{name}"
    for module, names in radoncomp._LAZY.items():
        assert getattr(radoncomp, module).__name__ == f"radoncomp.{module}"
        for name in names:
            assert getattr(radoncomp, name) is getattr(
                importlib.import_module(f"radoncomp.{module}"), name), name


def test_lazy_exports_follow_the_module(monkeypatch):
    # nothing is cached in the package: a rebinding in radon3d (as a tracer
    # makes) shows through radoncomp.<name>, and undoing it shows too
    from radoncomp import radon3d

    original = radon3d.certify_intersection_function
    monkeypatch.setattr(radon3d, "certify_intersection_function", len)
    assert radoncomp.certify_intersection_function is len
    monkeypatch.undo()
    assert radoncomp.certify_intersection_function is original
    assert "certify_intersection_function" not in vars(radoncomp)
    with pytest.raises(AttributeError):
        radoncomp.no_such_name


def test_slicing_run_certifies_once(tmp_path, monkeypatch):
    # the report's certificate is the one slicing_check judged its
    # hypothesis by, not a second certify_pd_r1 of the same f
    from radoncomp import cli, funk, multipliers

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return multipliers.certify_pd_r1(*args, **kwargs)

    monkeypatch.setattr(funk, "certify_pd_r1", counted)
    monkeypatch.setattr(cli, "certify_pd_r1", counted)
    out = tmp_path / "out"
    assert main(["slicing", "--config", str(CONFIG_DIR / "slicing.ini"),
                 "--out", str(out)]) == 0
    assert calls == [(1.0,)]


def test_spherical_compare_transforms_f_and_g_once(tmp_path, monkeypatch):
    # the radon_f/radon_g CSVs are the verifier's own Rf and Rg
    from radoncomp import cli, funk

    calls = []
    real = funk.sradon_map

    def counted(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(funk, "sradon_map", counted)
    monkeypatch.setattr(cli, "sradon_map", counted, raising=False)
    cfg = load_config(CONFIG_DIR / "spherical-compare.ini")
    assert cli.run_scenario(cfg, str(tmp_path / "out")) == 0
    assert len(calls) == 2


def test_seed_key_is_echoed_not_read(tmp_path):
    cfg = tmp_path / "seeded.ini"
    cfg.write_text((CONFIG_DIR / "certify-pd.ini").read_text()
                   .replace("q = 1", "q = 1\nseed = 7"))
    out = tmp_path / "out"
    assert main(["certify-pd", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["scenario"]["seed"] == "7"


def test_emit_schema(capsys):
    assert main(["--emit-schema"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == report_schema()


def test_no_subcommand_is_input_error():
    assert main([]) == 1


def test_kind_subcommand_mismatch():
    assert main(["slicing", "--config",
                 str(CONFIG_DIR / "spherical-compare.ini")]) == 1


def test_missing_config_file(tmp_path):
    assert main(["slicing", "--config", str(tmp_path / "nope.ini")]) == 1


@pytest.mark.parametrize("argv, complaint", [
    (["slicing", "--config", "x.ini", "--tol-scale", "abc"],
     "invalid float value: 'abc'"),
    (["slicing", "--config", "x.ini", "--threads", "abc"],
     "invalid int value: 'abc'"),
    (["slicing"], "the following arguments are required: --config"),
    (["no-such-kind", "--config", "x.ini"], "invalid choice: 'no-such-kind'"),
])
def test_usage_errors_exit_1_with_argparse_text(capsys, argv, complaint):
    # exit 2 means "hypothesis failed (report written)"; these write nothing
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: radoncomp") and complaint in err


def test_help_still_exits_0(capsys):
    assert main(["slicing", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: radoncomp slicing")


@pytest.mark.parametrize("flag, env", [
    (["--threads", "0"], ""), (["--threads", "-3"], ""),
    ([], "abc"), ([], "0"), ([], "-2"), ([], "1.5"),
])
def test_malformed_thread_setting_is_input_error(tmp_path, capsys, monkeypatch,
                                                 flag, env):
    monkeypatch.setenv("RADONCOMP_THREADS", env)
    out = tmp_path / "out"
    assert main(["certify-pd", "--config", str(CONFIG_DIR / "certify-pd.ini"),
                 "--out", str(out)] + flag) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert ("--threads" if flag else "RADONCOMP_THREADS") in err
    assert not out.exists()


@pytest.mark.parametrize("flag, env", [(["--threads", "1"], ""),
                                       ([], "1"), ([], "")])
def test_one_thread_runs_as_before(tmp_path, monkeypatch, flag, env):
    # radonbench starts every CLI child with --threads 1; empty means no cap
    monkeypatch.setenv("RADONCOMP_THREADS", env)
    out = tmp_path / "out"
    assert main(["certify-pd", "--config", str(CONFIG_DIR / "certify-pd.ini"),
                 "--out", str(out)] + flag) == 0
    assert (out / "report.json").exists()


def test_bad_expression_is_input_error(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(
        "[scenario]\nkind = certify-pd\nq = 1\n"
        "[functions]\nf = 1 + (\n"
        "[output]\ndir = out\n")
    assert main(["certify-pd", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("section, line", [
    ("grid", "n_polar = abc"),
    ("scenario", "p = x"),
    ("scenario", "tail_correction = maybe"),
    ("tolerances", "rel_tol = tiny"),
    # keys and sections that nothing reads are refused, not ignored
    ("grid", "l_max = 3"),
    ("grid", "t_max = 16"),
    ("grid", "n_polr = 8"),
    ("tolerances", "rel_tl = 1e-3"),
    ("scenario", "bandwidth = 8"),
    ("output", "format = csv"),
    ("solver", "method = fast"),
])
def test_malformed_number_is_input_error(tmp_path, capsys, section, line):
    sections = {"scenario": ["kind = certify-pd", "q = 1"],
                "functions": ["f = 1 + z^2"], "output": ["dir = out"]}
    sections.setdefault(section, []).append(line)
    cfg = tmp_path / "bad.ini"
    cfg.write_text("".join(f"[{name}]\n" + "".join(f"{e}\n" for e in body)
                           for name, body in sections.items()))
    assert main(["certify-pd", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    key = line.split(" =")[0]
    assert err.startswith("error: ") and f"[{section}] {key}" in err
    assert "Traceback" not in err


def test_malformed_catalog_name_is_input_error(tmp_path, capsys):
    cfg = tmp_path / "gamma.ini"
    cfg.write_text("[scenario]\nkind = certify-intersection\n"
                   "catalog = gamma-q(abc)\n")
    assert main(["certify-intersection", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "gamma-q(abc)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("expression", [
    "legendre(1/0, z)", "gauss(1/0)", "legendre(1e400, z)",
    "legendre((-8)^(1/3), z)",
    # the degree-k recurrence would run 1e30 steps
    "legendre(1e30, z)",
])
def test_constant_argument_is_refused(tmp_path, expression):
    # the evenness check folds the constant at load: a value that is not a
    # finite number, or a degree past the recurrence's limit, is refused
    # with one error line instead of a traceback or a hang
    cfg = tmp_path / "const.ini"
    cfg.write_text("[scenario]\nkind = certify-pd\nq = 1\n"
                   f"[functions]\nf = {expression}\n")
    run = _child("-m", "radoncomp.cli", "certify-pd", "--config", str(cfg),
                 "--out", str(tmp_path / "out"), timeout=60)
    assert run.returncode == 1
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), run.stderr


@pytest.mark.parametrize("section, line", [
    # a NaN tolerance once certified the Gaussian as an intersection function
    ("tolerances", "rel_tol = nan"),
    ("tolerances", "rel_tol = 0"),
    ("tolerances", "tail_tol = -1e-6"),
    ("scenario", "p = nan"),
    ("scenario", "q = inf"),
    ("grid", "r_max = 1e400"),
    ("grid", "r_max = 0"),
    # each of these crashed a kernel with a traceback
    ("grid", "n_t = 0"),
    ("grid", "n_t = 3"),
    ("grid", "n_t = 4"),
    ("grid", "n_t = 6"),
])
def test_unusable_number_is_refused_at_load(tmp_path, capsys, section, line):
    sections = {"scenario": ["kind = certify-intersection"],
                "functions": ["f_radial = exp(-r^2)"]}
    sections.setdefault(section, []).append(line)
    cfg = tmp_path / "bad.ini"
    cfg.write_text("".join(f"[{name}]\n" + "".join(f"{e}\n" for e in body)
                           for name, body in sections.items()))
    out = tmp_path / "out"
    assert main(["certify-intersection", "--config", str(cfg),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    key = line.split(" =")[0]
    assert err.startswith("error: ") and f"[{section}] {key}" in err
    assert not out.exists()


def test_smallest_offset_grid_loads(tmp_path):
    cfg = tmp_path / "n7.ini"
    cfg.write_text("[scenario]\nkind = certify-intersection\n[grid]\n"
                   "n_t = 7\n[functions]\nf_radial = exp(-r^2)\n")
    assert load_config(cfg).n_t == 7


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
def test_tol_scale_must_be_finite_and_positive(tmp_path, capsys, scale):
    # --tol-scale nan once turned the Gaussian's exit 2 into exit 0
    out = tmp_path / "out"
    config = CONFIG_DIR / "certify-intersection-gaussian.ini"
    assert main(["certify-intersection", "--config", str(config),
                 "--out", str(out), "--tol-scale", scale]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--tol-scale" in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["spherical-compare.ini",
                                  "spherical-counterexample.ini",
                                  "slicing.ini", "rn-counterexample.ini"])
def test_tolerances_reach_the_inner_certificate(tmp_path, name):
    # the hypothesis certificate inside compare, counterexample and slicing
    # takes the run's rel_tol: --tol-scale 1000 and [tolerances]
    # rel_tol = 1e-6 each scale its tolerance by 1000
    override = tmp_path / name
    override.write_text((CONFIG_DIR / name).read_text()
                        + "\n[tolerances]\nrel_tol = 1e-6\n")

    def tolerance(out, config, *extra):
        assert main([kind_of(name), "--config", str(config),
                     "--out", str(tmp_path / out), *extra]) == 0
        report = json.loads((tmp_path / out / "report.json").read_text())
        return report["certificates"][0]["tolerance"]

    base = tolerance("base", CONFIG_DIR / name)
    assert tolerance("scaled", CONFIG_DIR / name, "--tol-scale", "1000") \
        == pytest.approx(1000.0 * base, rel=1e-12)
    assert tolerance("override", override) \
        == pytest.approx(1000.0 * base, rel=1e-12)


def test_s2_exponent_errors_match_r3(tmp_path, capsys):
    # p = 0 is out of range (exit 1, one error line); a counterexample at
    # p = 1 is not applicable (exit 2, report written)
    for kind in ("spherical-compare", "slicing"):
        cfg = tmp_path / f"{kind}.ini"
        cfg.write_text((CONFIG_DIR / f"{kind}.ini").read_text()
                       .replace("p = 2", "p = 0"))
        assert main([kind, "--config", str(cfg),
                     "--out", str(tmp_path / kind)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: p must be positive"), err
    cfg = tmp_path / "ce.ini"
    cfg.write_text((CONFIG_DIR / "spherical-counterexample.ini").read_text()
                   .replace("p = 2", "p = 1"))
    out = tmp_path / "ce"
    assert main(["spherical-counterexample", "--config", str(cfg),
                 "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["notes"].startswith("not applicable: at p = 1")


def test_overflowing_norm_is_input_error(tmp_path):
    # |f|^p overflows at p = 1e6: the run wrote "lp_f": Infinity and exit 2
    cfg = tmp_path / "big-p.ini"
    cfg.write_text((CONFIG_DIR / "spherical-compare.ini").read_text()
                   .replace("p = 2", "p = 1e6"))
    out = tmp_path / "out"
    run = _child("-m", "radoncomp.cli", "spherical-compare", "--config",
                 str(cfg), "--out", str(out))
    assert run.returncode == 1
    assert run.stderr.startswith("error: ") and "Warning" not in run.stderr
    for path in out.glob("*"):
        assert not re.search(r"\b(Infinity|NaN|inf|nan)\b", path.read_text()), \
            path.name


def test_singular_expression_prints_only_the_error_line(tmp_path):
    # exp(-r^2) / r^2 divides by zero at r = 0: the run refuses the input
    # with one error line, and NumPy prints no warning before it
    cfg = tmp_path / "singular.ini"
    cfg.write_text("[scenario]\nkind = certify-intersection\n[functions]\n"
                   "f_radial = exp(-r^2) / r^2\n"
                   "f_angular = 1 + 0.1*legendre(2, z)\n")
    run = _child("-m", "radoncomp.cli", "certify-intersection", "--config",
                  str(cfg), "--out", str(tmp_path / "out"))
    assert run.returncode == 1
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), run.stderr


def test_non_finite_samples_are_input_error(tmp_path):
    # (r - 1)^0.5 is NaN inside the unit ball
    cfg = tmp_path / "nan.ini"
    cfg.write_text(
        "[scenario]\nkind = rn-compare\np = 1\n"
        "[functions]\nphi_radial = exp(-r^2) * (r - 1)^0.5\n"
        "psi_radial = 1.3*exp(-0.9*r^2)\n"
        "[output]\ndir = out\n")
    assert main(["rn-compare", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 1


def test_non_finite_sphere_samples_are_input_error(tmp_path):
    # (z^2 - 0.5)^0.5 is NaN in the band |z| < 1/sqrt(2)
    cfg = tmp_path / "nan.ini"
    cfg.write_text(
        "[scenario]\nkind = certify-pd\nq = 1\n"
        "[functions]\nf = (z^2 - 0.5)^0.5 + 1\n"
        "[output]\ndir = out\n")
    assert main(["certify-pd", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 1


def test_infinite_origin_profile_is_input_error(tmp_path):
    # gauss_r2 = e^{-r^2} / r^2 is infinite at r = 0: its plane integrals
    # through the origin diverge
    cfg = tmp_path / "r2.ini"
    cfg.write_text(
        "[scenario]\nkind = rn-compare\np = 1\n"
        "[functions]\nphi_radial = gauss_r2\npsi_radial = 1.2*gauss_r2\n"
        "[output]\ndir = out\n")
    assert main(["rn-compare", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 1


def test_singular_degree2_origin_is_input_error(tmp_path):
    # e^{-r^2}/r^2 (1 + 0.1 P_2(z)): its ray profile grows like r, so the
    # certificate is refused; it was once "intersection-function" with a NaN
    # witness
    cfg = tmp_path / "sing.ini"
    cfg.write_text(
        "[scenario]\nkind = certify-intersection\n"
        "[functions]\nf_radial = exp(-r^2) / r^2\n"
        "f_angular = 1 + 0.1*legendre(2, z)\n"
        "[output]\ndir = out\n")
    with np.errstate(divide="ignore"):
        assert main(["certify-intersection", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("degree, code", [(30, 0), (32, 1)])
def test_degree_30_runs_and_degree_32_is_input_error(tmp_path, capsys, degree,
                                                    code):
    # a live degree-32 term: its plane integral would not keep its digits,
    # so the sinogram is refused with exit 1 and no report; degree 30 runs
    cfg = tmp_path / "deg.ini"
    cfg.write_text(
        "[scenario]\nkind = rn-compare\np = 1\n"
        "[grid]\nn_polar = 34\nn_azimuth = 68\n"
        "[functions]\nphi_radial = exp(-r^2)\n"
        f"phi_angular = 2 + legendre({degree}, z)\npsi_radial = 4*exp(-r^2)\n"
        "[output]\ndir = out\n")
    assert main(["rn-compare", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == code
    assert ("degree 32 " in capsys.readouterr().err) == (code == 1)
    assert (tmp_path / "out" / "report.json").exists() == (code == 0)


def test_domination_failure_exit_code(tmp_path):
    # phi strictly above psi: domination cannot hold; exit 3 with a report
    cfg = tmp_path / "dom.ini"
    cfg.write_text(
        "[scenario]\nkind = rn-compare\np = 1\n"
        "[functions]\nphi_radial = 1.3*exp(-0.9*r^2)\n"
        "psi_radial = exp(-r^2)\n"
        "[output]\ndir = out\n")
    out = tmp_path / "out"
    assert main(["rn-compare", "--config", str(cfg), "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, report_schema())
    assert "domination failed" in report["notes"]


def test_construction_failure_exit_code(tmp_path):
    # an absurd required norm gap makes the construction unreachable; exit 4
    cfg = tmp_path / "con.ini"
    cfg.write_text(
        "[scenario]\nkind = rn-counterexample\np = 2\n"
        "[functions]\npsi_radial = exp(-r^2)\n"
        "[tolerances]\ngap_tol = 1e9\n"
        "[output]\ndir = out\n")
    out = tmp_path / "out"
    assert main(["rn-counterexample", "--config", str(cfg),
                 "--out", str(out)]) == 4
    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, report_schema())
    assert "construction failed" in report["notes"]


def test_not_applicable_exit_code(tmp_path):
    # base function is certified, so no counterexample exists; exit 2
    cfg = tmp_path / "na.ini"
    cfg.write_text(
        "[scenario]\nkind = spherical-counterexample\np = 2\n"
        "[functions]\ng = 1 + 0.2*legendre(2, z)\n"
        "[output]\ndir = out\n")
    out = tmp_path / "out"
    assert main(["spherical-counterexample", "--config", str(cfg),
                 "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert "not applicable" in report["notes"]
