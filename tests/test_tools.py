"""The repository tools: the benchmark recorder's checkout gate, the paired
recorder's alternating order, and the config comparison's exit status."""

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


STUB_RUN = '''import json, sys
from pathlib import Path
here = Path(__file__).resolve().parents[1]
seed = sys.argv[sys.argv.index("--seed") + 1]
with open(here.parent / "order.log", "a") as log:
    log.write(f"{here.name} {seed}\\n")
print("provenance " + json.dumps({"checkout": here.name}))
print(json.dumps({"metrics": {"verdicts_per_s": {"value": 1.0}}}))
'''


def test_bench_pairs_alternates_the_side_that_runs_first(tmp_path):
    tools = tmp_path / "repo" / "tools"
    tools.mkdir(parents=True)
    for name in ("bench_record.py", "bench_pairs.py"):
        (tools / name).write_text((ROOT / "tools" / name).read_text())
    for side in ("parent", "change"):
        (tmp_path / side / "radonbench").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text(
            json.dumps({"workloads": [{"name": "w"}]}))
        (tmp_path / side / "radonbench" / "run.py").write_text(STUB_RUN)
    proc = subprocess.run(
        [sys.executable, str(tools / "bench_pairs.py"), str(tmp_path / "parent"),
         str(tmp_path / "change"), "probe", "11", "12", "13"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "order.log").read_text().split("\n")[:-1] == [
        "parent 11", "change 11", "change 12", "parent 12",
        "parent 13", "change 13"]
    for label, side in (("probe-parent", "parent"), ("probe", "change")):
        runs = json.loads((tmp_path / "repo" / f"BENCH_{label}.json")
                          .read_text())["runs"]
        assert [(r["workload"], r["seed"], r["exit_code"]) for r in runs] \
            == [("w", 11, 0), ("w", 12, 0), ("w", 13, 0)]
        assert all(r["provenance"] == {"checkout": side} for r in runs)


def test_bench_pairs_refuses_before_any_run(tmp_path):
    (tmp_path / "parent" / "radonbench").mkdir(parents=True)
    (tmp_path / "parent" / "BENCHMARK.json").write_text(
        json.dumps({"workloads": [{"name": "w"}]}))
    (tmp_path / "parent" / "radonbench" / "run.py").write_text(STUB_RUN)
    (tmp_path / "change").mkdir()
    label = "refused-pair-probe"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"),
         str(tmp_path / "parent"), str(tmp_path / "change"), label, "1"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "change" in proc.stderr and "BENCHMARK.json" in proc.stderr
    assert not (tmp_path / "order.log").exists()
    assert not (ROOT / f"BENCH_{label}-parent.json").exists()
