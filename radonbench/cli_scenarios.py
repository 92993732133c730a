"""cli-scenarios: the ten shipped configs plus seed-perturbed variants of
known verdict, each run as a fresh ``python -m radoncomp.cli`` child, one at
a time.

This is what a CLI user waits for: interpreter start and import, config
parsing and the expression language, the pipeline itself, and report, manifest
and CSV emission (about 23 MB of sinogram CSV per ``rn-*`` run).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np

from tracing import SHIPPED_CONFIGS
from verdicts import Verdict, close

# Exit codes observed for the shipped configs: the Gaussian is not an
# intersection function (exit 2); the other nine conclude (exit 0).
SHIPPED_EXIT = {stem: (2 if stem == "certify-intersection-gaussian" else 0)
                for stem in SHIPPED_CONFIGS}

# Seed-perturbed variants, one of each per round, then the ill-posed probe
# (f = c / z^2 is not integrable on S^2, so certify-pd must refuse it).
VARIANTS = ("certify-pd", "spherical-compare", "slicing", "intersection-body",
            "certify-intersection", "spherical-counterexample")

Z16 = np.polynomial.legendre.leggauss(16)[0]    # polar nodes of the 16x32 grid
P2 = "legendre(2, z)"


def _shipped_oracle(stem: str, rep: dict) -> str | None:
    n, m = rep["norms"], rep["margins"]
    if stem == "rn-compare":
        return close(n["lp_phi"], math.pi ** 1.5, 1e-7, "lp_phi") or close(
            n["lp_psi"], 1.3 * (math.pi / 0.9) ** 1.5, 1e-7, "lp_psi")
    if stem == "certify-pd":
        return close(n["transform_min"], 4 * math.pi, 1e-8, "transform")
    if stem == "slicing":
        return close(n["lp_f"], math.sqrt(4 * math.pi), 1e-9, "lp_f")
    if stem in ("rn-counterexample", "spherical-counterexample"):
        if not m["norm_gap"] > 0.0:
            return "counterexample without a norm gap"
    return None


def _variant(rng, kind: str) -> tuple:
    """(config text, expected exit code, oracle on the report or None)."""
    if kind == "certify-pd":
        # f = R g with g = c + a z^2 >= 0.5 c: positive definite, and the
        # synthesized transform is 8 pi^2 g
        c = rng.uniform(0.5, 1.5)
        a = c * rng.uniform(-0.5, 2.0)
        g_min = float(np.min(c + a * Z16 ** 2))
        text = (f"[scenario]\nkind = certify-pd\nq = 1\n[functions]\n"
                f"f = {2 * math.pi * c!r} + {math.pi * a!r}*(1 - z^2)\n")
        return text, 0, lambda rep: close(
            rep["norms"]["transform_min"], 8 * math.pi ** 2 * g_min, 1e-8,
            "transform min")
    if kind == "spherical-compare":
        eps, s = rng.uniform(0.0, 0.4), rng.uniform(1.05, 1.3)
        lp_f = math.sqrt(4 * math.pi * (1 + eps * eps / 5))
        text = (f"[scenario]\nkind = spherical-compare\np = 2\n[functions]\n"
                f"f = 1 + {eps!r}*{P2}\ng = {s!r}*(1 + {eps!r}*{P2})\n")
        return text, 0, lambda rep: close(rep["norms"]["lp_f"], lp_f, 1e-9,
                                          "lp_f") or close(
            rep["norms"]["lp_g"], s * lp_f, 1e-9, "lp_g")
    if kind == "slicing":
        c, eps = rng.uniform(0.5, 2.0), rng.uniform(0.0, 0.4)
        lp_f = c * math.sqrt(4 * math.pi * (1 + eps * eps / 5))
        text = (f"[scenario]\nkind = slicing\np = 2\n[functions]\n"
                f"f = {c!r}*(1 + {eps!r}*{P2})\n")
        return text, 0, lambda rep: close(rep["norms"]["lp_f"], lp_f, 1e-9,
                                          "lp_f")
    if kind == "intersection-body":
        # rho^2 = (1 + a P2)^2 is a polynomial in s = 1 - z^2, whose
        # great-circle transform is closed-form; rho_IL = R(rho^2) / 2
        a = rng.uniform(-0.4, 0.4)
        s = 1.0 - Z16 ** 2
        b0, b1 = 1.0 + a, -1.5 * a                    # 1 + a P2 = b0 + b1 s
        # R[1] = 2 pi, R[s] = 2 pi (1 - s/2), R[s^2] = 2 pi (1 - s + 3 s^2/8)
        r_sq = 2 * math.pi * (b0 * b0 + 2 * b0 * b1 * (1 - s / 2)
                              + b1 * b1 * (1 - s + 3 * s * s / 8))
        il_min = float(np.min(r_sq)) / 2
        text = (f"[scenario]\nkind = intersection-body\n[functions]\n"
                f"rho = 1 + {a!r}*{P2}\n")
        return text, 0, lambda rep: close(rep["norms"]["rho_il_min"], il_min,
                                          1e-9, "rho_il_min")
    if kind == "certify-intersection":
        A, a = rng.uniform(0.5, 2.0), rng.uniform(0.5, 1.5)
        text = (f"[scenario]\nkind = certify-intersection\n[functions]\n"
                f"f_radial = {A!r}*exp(-{a!r}*r^2)\n")
        return text, 2, None
    if kind == "spherical-counterexample":
        a = rng.uniform(0.65, 0.95)
        text = (f"[scenario]\nkind = spherical-counterexample\np = 2\n"
                f"[functions]\ng = 1 + {a!r}*{P2}\n")

        def oracle(rep):
            m = rep["margins"]
            if not (m["norm_gap"] > 0 and m["min_constructed"] > 0
                    and m["domination"] >= -1e-9):
                return f"counterexample postconditions fail: {m}"
            return None
        return text, 0, oracle
    if kind == "ill-posed":
        c = rng.uniform(0.5, 2.0)
        text = (f"[scenario]\nkind = certify-pd\nq = 1\n[functions]\n"
                f"f = {c!r}/z^2\n")
        return text, None, None
    raise ValueError(kind)


class CliRunner:
    """Runs CLI children inside ``work`` (a directory of the checkout).

    Untraced, a child is ``python -m radoncomp.cli``; traced, it is
    ``child.py cli``, which installs the tracing wrappers first and leaves
    its spans in a file that ``invoke`` reads back.
    """

    def __init__(self, root: Path, work: Path, env: dict, traced: bool):
        self.root, self.work, self.env, self.traced = root, work, env, traced
        self.count = 0

    def invoke(self, kind: str, config: Path) -> dict:
        self.count += 1
        out = self.work / f"out-{self.count}"
        args = [kind, "--config", str(config), "--out", str(out),
                "--threads", "1"]
        spans = self.work / f"spans-{self.count}.json"
        if self.traced:
            cmd = [sys.executable, str(Path(__file__).with_name("child.py")),
                   "cli", str(spans), *args]
        else:
            cmd = [sys.executable, "-m", "radoncomp.cli", *args]
        proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=150)
        child = None
        if self.traced:
            try:
                child = json.loads(spans.read_text())
                spans.unlink()
            except (OSError, ValueError):
                pass
        return {"code": proc.returncode, "out": out, "stderr": proc.stderr,
                "child": child}


def make_round(rc, seed: int, index: int, runner: CliRunner) -> list:
    rng = np.random.default_rng([seed, index, 3])
    verdicts = []
    for stem in SHIPPED_CONFIGS:
        path = runner.root / "configs" / f"{stem}.ini"
        kind = _kind(path)
        verdicts.append(_cli_verdict(
            rc, runner, f"shipped.{stem}", kind, path, SHIPPED_EXIT[stem],
            lambda rep, stem=stem: _shipped_oracle(stem, rep)))
    for i, kind in enumerate(VARIANTS + ("ill-posed",)):
        text, code, oracle = _variant(rng, kind)
        path = runner.work / f"variant-{index}-{i}.ini"
        path.write_text(text)
        verdicts.append(_cli_verdict(rc, runner, f"variant.{kind}",
                                     _kind(path), path, code, oracle))
    return verdicts


def _kind(path: Path) -> str:
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "kind":
            return value.split(";")[0].strip()
    raise ValueError(f"no kind in {path}")


def _cli_verdict(rc, runner, name, kind, path, expected, oracle):
    ill_posed = expected is None

    def run():
        return runner.invoke(kind, path)

    def check(res, exc):
        try:
            return _check(rc, res, exc, expected, oracle, ill_posed)
        finally:
            if res is not None:
                shutil.rmtree(res["out"], ignore_errors=True)
    return Verdict(name, run, check, ill_posed=ill_posed)


def _check(rc, res, exc, expected, oracle, ill_posed):
    if exc is not None:
        return f"could not run the CLI: {exc}"
    code = res["code"]
    if ill_posed:
        # a refusal is exit 1 (input error), or exit 2 with a finite report
        if code == 1:
            return None
        if code != 2:
            return f"ill-posed input accepted with exit {code}"
    elif code != expected:
        tail = res["stderr"].strip().splitlines()[-1:] or [""]
        return f"exit {code}, expected {expected} ({tail[0]})"
    try:
        text = (res["out"] / "report.json").read_text()
        rep = json.loads(text, parse_constant=_reject_constant)
        json.loads((res["out"] / "manifest.json").read_text())
    except (OSError, ValueError) as err:
        return f"unreadable report or manifest: {err}"
    try:
        rc.validate_report(rep)
    except jsonschema.ValidationError as err:
        return f"report fails its schema: {str(err).splitlines()[0]}"
    if rep["exit_code"] != code:
        return f"report exit_code {rep['exit_code']} != process exit {code}"
    return oracle(rep) if oracle is not None else None


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in report")
