"""Smoke-size runs of every workload through the benchmark command."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from layers import PER_LAYER_UNITS  # noqa: E402
from record import END_TO_END_UNITS  # noqa: E402


@pytest.fixture(scope="module")
def build(tmp_path_factory):
    """One build directory, so the native kernels compile once."""
    return tmp_path_factory.mktemp("perfbench-build")


def _run(build, cwd, *args, timeout=180):
    env = dict(os.environ, CARGO_TARGET_DIR=str(build))
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout)


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout[-3000:]
    assert result["attempted"] >= 1 and result["failed"] == 0
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
    return result


@pytest.mark.parametrize("workload", ["grid-baselines", "grid-meta",
                                      "serve-churn"])
def test_smoke_end_to_end(build, workload):
    proc = _run(build, ROOT, "--workload", workload, "--seed", "3",
                "--seconds", "1", "--trace", "0", "--smoke")
    result = _result(proc)
    assert list(result["metrics"]) == list(END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "samples" in proc.stdout and "host: nproc=" in proc.stdout


@pytest.mark.parametrize("workload", ["grid-baselines", "serve-churn"])
def test_smoke_traced(build, workload):
    proc = _run(build, ROOT, "--workload", workload, "--seed", "3",
                "--seconds", "1", "--trace", "1", "--smoke")
    result = _result(proc)
    assert list(result["metrics"]) == list(PER_LAYER_UNITS)
    assert "unattributed" in proc.stdout
    traces = os.listdir(build / "traces")
    assert traces and all(name.endswith(".jsonl") for name in traces)


def test_quality_figures_repeat_exactly(build):
    args = ("--workload", "grid-meta", "--seed", "5", "--seconds", "1",
            "--trace", "1", "--smoke")
    first = _run(build, ROOT, *args)
    second = _run(build, ROOT, *args)
    m1 = _result(first)["metrics"]
    m2 = _result(second)["metrics"]
    assert m1["meta.probes_per_instance"] == m2["meta.probes_per_instance"]
    digest = [line for line in first.stdout.splitlines()
              if line.startswith("result_digests")]
    assert digest and digest == [line for line in second.stdout.splitlines()
                                 if line.startswith("result_digests")]


def test_refuses_to_run_without_the_program(build, tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _run(build, str(bare), "--workload", "grid-meta", "--seed",
                "1", "--seconds", "1", "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
