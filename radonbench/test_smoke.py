"""Smoke test of the benchmark at its smallest size (one round per run).

    python3 -m pytest -q radonbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import self_times  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
PRINTED = ("verdicts_per_s", "verdict_p50_s", "verdict_p90_s", "setup_s",
           "peak_rss_mb", "fail_ratio")


def bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "radonbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    plain = bench(request.param, 0)
    traced = bench(request.param, 1)
    return request.param, plain, traced


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_untraced_emits_end_to_end_metrics(runs):
    _, plain, _ = runs
    out = result(plain)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())
    text = plain.stdout
    for name in PRINTED:
        assert f"\n{name} " in text, name
    assert "provenance " in text


def test_well_posed_share_never_fails(runs):
    _, plain, traced = runs
    for proc in (plain, traced):
        out = result(proc)
        assert out["correct"] and out["failed"] == 0, proc.stderr
    assert "(0 of " in plain.stdout.split("\nfail_ratio", 1)[1].splitlines()[0]


def test_traced_emits_layer_metrics_and_same_verdicts(runs):
    workload, _, traced = runs
    out = result(traced)
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert "traced and untraced verdicts identical: True" in traced.stdout
    assert out["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_self_times_sum_to_each_verdict(runs):
    workload, _, traced = runs
    result(traced)
    spans = json.loads((HERE / ".out" / f"trace-{workload}-seed7.json")
                       .read_text())["spans"]
    own = self_times(spans)
    per_request = {}
    for s, t in zip(spans, own):
        per_request[s["request"]] = per_request.get(s["request"], 0.0) + t
    roots = [s for s in spans if s["parent"] is None]
    assert roots and all(s["name"] == "bench.verdict" for s in roots)
    for s in roots:
        assert per_request[s["request"]] == pytest.approx(
            s["end"] - s["start"], abs=1e-9)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
