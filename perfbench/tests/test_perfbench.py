"""Self-test of the benchmark.  From the repository root:

    python3 -m pytest perfbench/tests -q

Each test runs perfbench/run.py for one second on the cheapest workload, so
the module takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402 - needs the paths above

COUNTERS = (
    "specfun.hyp2f1.calls",
    "specfun.hyp2f1.lanes",
    "phase.refine.points",
    "oracle.rhs_calls",
    "solutions.eval.calls",
)


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def result(workload, seed, trace):
    proc = run("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return [result("verify", 7, 1), result("verify", 7, 1)]


def test_benchmark_lists_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_printed_with_units():
    res = result("verify", 7, 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_per_layer_metrics_printed_with_units(traced):
    for res in traced:
        assert res["correct"]
        assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in BENCH["per_layer"]}


def test_self_times_account_for_traced_wall_time(traced):
    metrics = traced[0]["metrics"]
    shares = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_pct"))
    assert shares == pytest.approx(100.0, abs=1e-6)


def test_counters_repeat_for_one_seed(traced):
    first, second = (res["metrics"] for res in traced)
    for name in COUNTERS:
        assert first[name]["value"] > 0
        assert first[name]["value"] == second[name]["value"], name


def test_seed_changes_inputs():
    def inputs(cls, seed):
        return json.dumps(cls(seed).inputs(), default=str)

    for cls in WORKLOADS.values():
        assert inputs(cls, 1) == inputs(cls, 1)
        assert inputs(cls, 1) != inputs(cls, 2)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = run("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
