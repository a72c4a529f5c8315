"""Shared fixtures for the benchmark harness.

Every bench regenerates one of the paper's tables or figures at a reduced
scale (README "Reproducing the paper" lists the experiments; the paper's
§4-§5 define them) and prints the same rows/series the paper reports.
Outputs are also written to
``benchmarks/output/`` so they can be inspected after a
``pytest benchmarks/ --benchmark-only`` run.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(__file__)
OUTPUT_DIR = os.path.join(BENCH_DIR, "output")


@pytest.fixture(scope="session")
def output_dir() -> str:
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture(scope="session")
def emit(output_dir):
    """Print a rendered table/figure and persist it under benchmarks/output."""

    def _emit(name: str, text: str) -> None:
        print(f"\n{text}\n")
        with open(os.path.join(output_dir, f"{name}.txt"), "w") as fh:
            fh.write(text + "\n")

    return _emit


def _c_compiler_id() -> str | None:
    """First line of ``$CC --version`` (``cc`` by default, as the native
    kernel backend compiles with), or ``None`` without a compiler."""
    try:
        out = subprocess.run([os.environ.get("CC", "cc"), "--version"],
                             capture_output=True, text=True, timeout=30,
                             check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    return out.splitlines()[0].strip() if out.strip() else None


@pytest.fixture(scope="session")
def write_bench(output_dir):
    """Write a ``BENCH_*.json`` record stamped with the host it ran on.

    ``write_bench(name, record)`` adds a ``host`` object (CPU count,
    platform, Python, numpy, the C compiler the native kernels build
    with, active kernel backend) and writes the record to
    ``benchmarks/output/<name>``; with ``REPRO_BENCH_UPDATE`` set it also
    refreshes the committed baseline ``benchmarks/<name>``.
    """
    from repro import kernels
    static = {"cpu_count": os.cpu_count(),
              "platform": platform.platform(),
              "python": platform.python_version(),
              "numpy": np.__version__,
              "c_compiler": _c_compiler_id()}

    def _write(name: str, record: dict) -> None:
        host = {**static, "kernel_backend": kernels.current_backend_name()}
        record = {**record, "host": host}
        paths = [os.path.join(output_dir, name)]
        if os.environ.get("REPRO_BENCH_UPDATE"):
            paths.append(os.path.join(BENCH_DIR, name))
        for path in paths:
            with open(path, "w") as fh:
                json.dump(record, fh, indent=2)
                fh.write("\n")

    return _write
