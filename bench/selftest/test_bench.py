"""Self-test of the benchmark itself (not part of the package's suite).

Run from the root of a checkout:

    python3 -m pytest -q bench/selftest

A minimal-size pass of every workload must print every metric named in
BENCHMARK.json with its unit; checks that fail by design must be counted;
and the benchmark must refuse to run where the program's sources are
missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from run import end_to_end, require_repeats, result_line  # noqa: E402
from spans import per_layer_units  # noqa: E402
from workloads import Tally  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_minimal_pass_prints_every_metric(workload, trace):
    out = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                    "--trace", str(trace), "--mini")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    expected = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in expected}


def test_per_layer_metrics_match_benchmark_json():
    assert per_layer_units() == {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}


def _summary(tally):
    result = json.loads(result_line(tally, end_to_end(tally, [1.0], [1.0])))
    return result, result["failed"] / result["attempted"]


def test_failing_check_is_counted():
    tally = Tally()
    tally.check("holds", 0.5, 1.0)
    tally.require("holds", True)
    before, failed_share_before = _summary(tally)
    tally.check("fails by design", 2.0, 1.0)
    tally.check("NaN fails", float("nan"), 1.0)
    after, failed_share_after = _summary(tally)
    assert before["correct"] and before["failed"] == 0
    assert not after["correct"] and after["failed"] == 2 and after["attempted"] == 4
    assert failed_share_after > failed_share_before
    assert after["metrics"]["checks_passed"]["value"] < before["metrics"]["checks_passed"]["value"]


def test_count_that_differs_between_passes_fails():
    tally = Tally()
    require_repeats(tally, [{"iterations": [5, 6]}, {"iterations": [5, 6]}])
    assert tally.failed == 0
    require_repeats(tally, [{"iterations": [5, 6]}, {"iterations": [5, 7]}])
    assert tally.failed == 1


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        out = run_bench("--workload", "oracles", "--seed", "1", "--seconds", "1", "--trace", "0",
                        cwd=bare)
        assert out.returncode != 0
        assert '"correct"' not in out.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
