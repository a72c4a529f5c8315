"""Shared fixtures for the benchmark harness.

Every bench regenerates one of the paper's tables or figures at a reduced
scale (README "Reproducing the paper" lists the experiments; the paper's
§4-§5 define them) and prints the same rows/series the paper reports.
Outputs are also written to
``benchmarks/output/`` so they can be inspected after a
``pytest benchmarks/ --benchmark-only`` run.
"""

from __future__ import annotations

import os

import pytest

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")


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
