"""radoncomp benchmark: seeded, closed-loop verdict workloads.

    python3 radonbench/run.py --workload <sphere-mix|rn-mix|cli-scenarios>
                              --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (it needs ``src/radoncomp`` and
``configs/``).  One caller sends one verdict at a time and waits for it; BLAS
is pinned to one thread.  With ``--trace 0`` the run prints the end-to-end
metrics; with ``--trace 1`` it wraps every public radoncomp function, records
spans, and prints the per-layer metrics.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads, here and in every child (inherited).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "RADONCOMP_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import Span, Tracer, layer_metrics, per_layer_names, self_times
from verdicts import signature

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sphere-mix", "rn-mix", "cli-scenarios")

# Nominal seconds of one round on the reference machine (2-core Xeon); a
# traced run does a fixed number of rounds derived from --seconds, so its
# counts repeat exactly for a given seed.
NOMINAL_ROUND_S = {"sphere-mix": 3.5, "rn-mix": 16.0, "cli-scenarios": 23.0}
SETUP_SAMPLES = 5


@dataclass
class Outcome:
    name: str
    ill_posed: bool
    latency: float
    failure: str | None
    signature: str


def fail(message: str) -> None:
    print(f"radonbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    return env


def measure_setup(workload: str, env: dict) -> list:
    """Seconds of import plus warm-up, each in a fresh child process."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "setup", workload],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            fail(f"setup child failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_rounds(make_round, seconds: float | None, rounds: int | None,
               tracer=None) -> list:
    """Closed loop: run whole rounds, one verdict at a time, until
    ``seconds`` have passed (or ``rounds`` are done).  Oracles run after
    each verdict, outside its timed span."""
    outcomes = []
    start = time.perf_counter()
    index = 0
    while True:
        for v in make_round(index):
            rid = len(outcomes)
            if tracer is not None:
                tracer.request = rid
                root = tracer.open("bench.verdict")
            t0 = time.perf_counter()
            try:
                result, exc = v.run(), None
            except Exception as err:      # a verdict that raises is an outcome
                result, exc = None, err
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(root)
                tracer.request = None
                if isinstance(result, dict) and result.get("child"):
                    adopt_child_spans(tracer, root, rid, result["child"])
            try:
                failure = v.check(result, exc)
            except Exception as err:      # an oracle crash is a failure
                failure = f"oracle raised {type(err).__name__}: {err}"
            outcomes.append(Outcome(v.name, v.ill_posed, latency, failure,
                                    signature(result, exc)))
        index += 1
        if rounds is not None and index >= rounds:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return outcomes


def adopt_child_spans(tracer, root: int, rid: int, child: dict) -> None:
    """Hang a CLI child's spans under the parent's verdict span."""
    offset = len(tracer.spans)
    for s in child["spans"]:
        parent = root if s["parent"] is None else s["parent"] + offset
        tracer.spans.append(Span(s["name"], s["start"], s["end"], parent, rid,
                                 s["band"], s["work"], s["ok"]))


def provenance(workload: str, seed: int, traced: bool) -> dict:
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "workload": workload, "seed": seed,
        "mode": "traced" if traced else "untraced",
        "commit": commit, "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def make_rounds(workload: str, rc, seed: int, work: Path, traced: bool):
    seed %= 2 ** 32             # numpy seed sequences take no negative entries
    if workload == "sphere-mix":
        import sphere_mix
        return lambda i: sphere_mix.make_round(rc, seed, i)
    if workload == "rn-mix":
        import rn_mix
        return lambda i: rn_mix.make_round(rc, seed, i)
    import cli_scenarios
    runner = cli_scenarios.CliRunner(ROOT, work, child_env(), traced)
    return lambda i: cli_scenarios.make_round(rc, seed, i, runner)


def peak_rss_mb(workload: str) -> float:
    who = (resource.RUSAGE_CHILDREN if workload == "cli-scenarios"
           else resource.RUSAGE_SELF)
    return resource.getrusage(who).ru_maxrss / 1024.0     # KiB on Linux


def summarize(outcomes: list) -> tuple:
    well = [o for o in outcomes if not o.ill_posed]
    ill = [o for o in outcomes if o.ill_posed]
    bad_well = [o for o in well if o.failure]
    bad_ill = [o for o in ill if o.failure]
    for o in (bad_well + bad_ill)[:8]:
        print(f"radonbench: {'ill-posed' if o.ill_posed else 'FAILED'} "
              f"{o.name}: {o.failure}", file=sys.stderr)
    return well, ill, bad_well, bad_ill


def end_to_end(workload: str, outcomes: list, setup: list) -> tuple:
    lat = [o.latency for o in outcomes]
    n = len(lat)
    well, ill, bad_well, bad_ill = summarize(outcomes)
    metrics = {
        "verdicts_per_s": (n / sum(lat), "1/s"),
        "verdict_p50_s": (statistics.median(lat), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }
    p90 = statistics.quantiles(lat, n=10)[-1] if n >= 100 else None
    lines = [
        f"verdicts_per_s  {metrics['verdicts_per_s'][0]:.6g} 1/s  "
        f"(n={n} verdicts, {sum(lat):.3f} s busy)",
        f"verdict_p50_s   {metrics['verdict_p50_s'][0]:.6g} s  (n={n})",
        (f"verdict_p90_s   {p90:.6g} s  (n={n})" if p90 is not None else
         f"verdict_p90_s   omitted: n={n} < 100"),
        f"setup_s         {metrics['setup_s'][0]:.6g} s  "
        f"(median of {len(setup)}: {', '.join(f'{s:.4f}' for s in setup)})",
        f"peak_rss_mb     {metrics['peak_rss_mb'][0]:.6g} MB",
        f"fail_ratio      {(len(bad_well) + len(bad_ill)) / n:.6g} 1  "
        f"({len(bad_well)} of {len(well)} well-posed wrong, "
        f"{len(bad_ill)} of {len(ill)} ill-posed not refused)",
    ]
    return metrics, lines, len(bad_well)


def traced_run(workload, rc, seed, seconds, work, prov) -> tuple:
    rounds = max(1, round(seconds / NOMINAL_ROUND_S[workload] / 2))
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_rounds(make_rounds(workload, rc, seed, work, True),
                            None, rounds, tracer)
    finally:
        tracer.uninstall()
    plain = run_rounds(make_rounds(workload, rc, seed, work, False),
                       None, rounds)
    spans = tracer.dump()
    metrics = layer_metrics(spans, len(traced))
    own = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s["parent"] is None]
    busy = sum(spans[i]["end"] - spans[i]["start"] for i in roots)
    bench_side = sum(own[i] for i in roots)
    # per verdict, the self times of its spans sum to its traced duration
    by_request = {}
    for s, t in zip(spans, own):
        by_request[s["request"]] = by_request.get(s["request"], 0.0) + t
    closure = max((abs(by_request[spans[i]["request"]]
                       - (spans[i]["end"] - spans[i]["start"])) for i in roots),
                  default=0.0)
    metrics["trace.overhead_ratio"] = busy / sum(o.latency for o in plain)
    if workload == "cli-scenarios":
        imports = [s["end"] - s["start"] for s in spans
                   if s["name"] == "cli.import"]
        metrics["cli.import_s"] = statistics.median(imports)
        by_stem = {}
        for o in traced:
            if o.name.startswith("shipped."):
                by_stem.setdefault(o.name[len("shipped."):], []).append(
                    o.latency)
        for stem, lat in by_stem.items():
            metrics[f"cli.{stem}.s"] = statistics.median(lat)
    mismatched = [a.name for a, b in zip(traced, plain)
                  if a.signature != b.signature]
    _, _, bad_well, bad_ill = summarize(traced)
    lines = [
        f"traced {len(traced)} verdicts in {rounds} round(s): "
        f"{busy:.3f} s traced vs {sum(o.latency for o in plain):.3f} s "
        f"untraced (overhead ratio {metrics['trace.overhead_ratio']:.4f})",
        f"benchmark-side time in verdict spans: {bench_side:.6f} s "
        f"({bench_side / busy:.2%}); self-time closure error {closure:.3e} s",
        f"traced and untraced verdicts identical: {not mismatched}"
        + (f" (differ: {mismatched[:5]})" if mismatched else ""),
    ]
    path = HERE / ".out" / f"trace-{workload}-seed{seed}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"provenance": prov, "spans": spans}))
    lines.append(f"spans written to {path.relative_to(ROOT)}")
    units = per_layer_names()
    out = {name: (metrics.get(name, 0), unit) for name, unit in units.items()}
    return out, lines, traced, len(bad_well) + len(mismatched)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "radoncomp" / "__init__.py").is_file():
        fail(f"no radoncomp sources under {SRC}; run from a source checkout")
    if args.workload == "cli-scenarios" and not (ROOT / "configs").is_dir():
        fail(f"no shipped configs under {ROOT / 'configs'}")
    sys.path.insert(0, str(SRC))
    env = child_env()
    work = HERE / ".out" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup = [] if args.trace else measure_setup(args.workload, env)
        import child
        import radoncomp as rc

        if args.workload != "cli-scenarios":
            child.setup(args.workload)
        header = (f"# radonbench {args.workload} seed={args.seed} "
                  f"{'traced' if args.trace else 'untraced'}")
        prov = provenance(args.workload, args.seed, bool(args.trace))
        if args.trace:
            metrics, lines, outcomes, failed = traced_run(
                args.workload, rc, args.seed, args.seconds, work, prov)
        else:
            outcomes = run_rounds(
                make_rounds(args.workload, rc, args.seed, work, False),
                args.seconds, None)
            metrics, lines, failed = end_to_end(args.workload, outcomes, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(header)
    for line in lines:
        print(line)
    print("provenance " + json.dumps(prov))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
