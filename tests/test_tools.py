"""The repository tools: the benchmark recorder's checkout gate and its
record of failed runs, the paired recorder's alternating order, the pair
comparison's exclusion of failed runs, the in-process round timer, and the
config comparison's exit status and its byte-identity line."""

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
        (out / fname).write_text(doc if isinstance(doc, str) else json.dumps(doc))
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


def test_config_compare_prints_identical_for_equal_canonical_bytes(tmp_path,
                                                                   capsys):
    # the timing block is dropped and the keys sorted before the bytes meet;
    # a number moved within the gate still prints its largest move
    this = _run(tmp_path, "this", 0, {"report.json": {"x": 1.0, "timing": 2.0},
                                      "a.csv": "t,v\n0,1.5\n"})
    that = _run(tmp_path, "that", 0, {"report.json": {"timing": 9.0, "x": 1.0},
                                      "a.csv": "t,v\n0,1.5000000000000002\n"})
    assert not config_compare.compare_runs([{"a.ini": that}, {"a.ini": this}])
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "a.ini exit 0 / 0"
    assert out[1].startswith("  a.csv: max rel diff 1.48e-16 at row 1 col 1")
    assert out[2] == "  report.json: identical"


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


WRONG_OUTPUT_RUN = '''import json, sys
print("wrong-output: verify.p2 lp_f: got 1.0, expected 2.0", file=sys.stderr)
print("provenance " + json.dumps({}))
print(json.dumps({"correct": False, "attempted": 3, "failed": 1,
                  "metrics": {"verdicts_per_s": {"value": 1.0}}}))
'''


def test_bench_record_fails_a_run_that_reads_correct_false(tmp_path):
    # radonbench exits 0 when a verdict's check fails; its stderr names it
    tools = tmp_path / "repo" / "tools"
    tools.mkdir(parents=True)
    (tools / "bench_record.py").write_text(
        (ROOT / "tools" / "bench_record.py").read_text())
    checkout = tmp_path / "checkout"
    (checkout / "radonbench").mkdir(parents=True)
    (checkout / "BENCHMARK.json").write_text(
        json.dumps({"workloads": [{"name": "w"}]}))
    (checkout / "radonbench" / "run.py").write_text(WRONG_OUTPUT_RUN)
    proc = subprocess.run(
        [sys.executable, str(tools / "bench_record.py"), str(checkout),
         "probe", "5"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "FAILED" in proc.stderr and "--workload w --seed 5" in proc.stderr
    assert "verify.p2 lp_f" in proc.stderr
    [run] = json.loads((tmp_path / "repo" / "BENCH_probe.json")
                       .read_text())["runs"]
    assert run["exit_code"] == 0 and run["result"]["correct"] is False
    assert "verify.p2 lp_f" in run["stderr_tail"]


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


def _one_run_bench(path, correct):
    metrics = {name: {"value": 1.0} for name in
               ("verdicts_per_s", "verdict_p50_s", "setup_s", "peak_rss_mb")}
    run = {"workload": "rn-mix", "seed": 1, "exit_code": 0,
           "lines": ["fail_ratio      0 1  (0 of 9 well-posed wrong)"],
           "result": {"correct": correct, "metrics": metrics}}
    if not correct:
        run["stderr_tail"] = "radonbench: FAILED verify.p2: lp_phi"
    path.write_text(json.dumps({"runs": [run]}))
    return str(path)


@pytest.mark.parametrize("correct", [True, False])
def test_bench_compare_leaves_out_a_run_that_reads_correct_false(tmp_path,
                                                                 correct):
    # bench_record.py keeps such a run with exit code 0; it must not pair
    parent = _one_run_bench(tmp_path / "parent.json", True)
    change = _one_run_bench(tmp_path / "change.json", correct)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_compare.py"), parent,
         change], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    at = lines.index(f"rn-mix: {1 if correct else 0} pairs "
                     f"(seeds {1 if correct else ''})")
    assert lines[at + 1].split() == ["failed", "runs", "parent", "0",
                                     "change", "0" if correct else "1"]
    assert any("verdicts_per_s" in line for line in lines[at:]) is correct


def test_ab_rounds_runs_two_rounds_of_one_checkout_against_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_rounds.py"), str(ROOT),
         str(ROOT), "rn-mix", "2", "3"], capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    head, means, ratio = proc.stdout.splitlines()
    assert head.startswith("rn-mix seed 3, 2 rounds")
    a, b = (float(means.split()[i]) for i in (1, 6))
    assert a > 0.0 and b > 0.0
    won = ratio.split("won")
    assert int(won[1].split()[0]) + int(won[2].split()[0]) <= 2
    assert subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_rounds.py"), str(ROOT),
         str(ROOT), "cli-scenarios", "2", "3"], capture_output=True,
        timeout=60).returncode == 2
