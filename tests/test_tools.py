"""The repository tools: the benchmark recorder's checkout gate and the
config comparison's exit status."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import config_compare  # noqa: E402


@pytest.mark.parametrize("present", [[], ["BENCHMARK.json"]])
def test_bench_record_refuses_a_checkout_without_the_benchmark(tmp_path, present):
    for name in present:
        (tmp_path / name).write_text("{}")
    label = "refused-checkout-probe"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_record.py"), str(tmp_path),
         label, "1"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "radonbench/run.py" in proc.stderr
    assert not (ROOT / f"BENCH_{label}.json").exists()


def _run(tmp_path, name, code, files):
    out = tmp_path / name
    out.mkdir()
    for fname, doc in files.items():
        (out / fname).write_text(json.dumps(doc))
    return code, out


@pytest.mark.parametrize("other, differs", [
    ((0, {"report.json": {"x": 1.0, "v": "ok"}}), False),
    ((0, {"report.json": {"x": 1.0 + 1e-14, "v": "ok"}}), False),
    ((0, {"report.json": {"x": 1.0 + 1e-10, "v": "ok"}}), True),
    ((0, {"report.json": {"x": 1.0, "v": "no"}}), True),
    ((0, {"report.json": {"x": 1.0}}), True),
    ((2, {"report.json": {"x": 1.0, "v": "ok"}}), True),
    ((0, {}), True),
])
def test_config_compare_fails_on_any_difference(tmp_path, other, differs):
    this = _run(tmp_path, "this", 0, {"report.json": {"x": 1.0, "v": "ok"}})
    that = _run(tmp_path, "that", *other)
    assert config_compare.compare_runs([{"a.ini": that}, {"a.ini": this}]) \
        is differs


def test_config_compare_fails_on_a_missing_config(tmp_path):
    run = _run(tmp_path, "this", 0, {"report.json": {"x": 1.0}})
    assert config_compare.compare_runs([{"a.ini": run}, {}])
