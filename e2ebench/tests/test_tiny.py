"""Every workload end to end at ``--size tiny``: the result line has the
shape BENCHMARK.json promises, and only the known faults fail."""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

#: Failed operations per round at tiny size: the metamorphic family
#: (3 suites x permuted/scaled, of which g-c keeps its cluster score
#: under permutation) and the fractional cpu-cycles counter.
KNOWN_FAILED = {"cold-compare": 1, "rescore": 5, "served": 0}


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_round(workload):
    result, stderr = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, stderr
    assert result["attempted"] >= 1
    assert result["failed"] == KNOWN_FAILED[workload], stderr
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_round_prints_every_layer():
    result, stderr = _run("rescore", 1)
    assert result["correct"] is True, stderr
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert result["metrics"]["engine.dtw_pairs"]["value"] > 0
    assert "self_s" in stderr


def test_refuses_to_run_without_the_program(tmp_path):
    import shutil

    shutil.copytree(BENCH, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "rescore",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
