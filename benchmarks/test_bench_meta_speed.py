"""Benchmark: the METAHVP probe engine on the reference grid.

Solves the reference instances with the META* oracle
(:class:`~repro.algorithms.vector_packing.FusedProbeEngine` under the
active kernel backend), checks the certified yields against the frozen
``yield_v1`` column of the committed ``benchmarks/BENCH_meta.json`` (the
yields the original seed engine certified — kept there as a historical
record), and records wall-clock numbers to
``benchmarks/output/BENCH_meta.json``.  Two gates guard the engine:

* a deterministic work gate — total strategy executions on the
  reference grid are machine-invariant, so growing >20% over the
  committed baseline means the engine structurally regressed (lost
  memoization or adaptive-ordering effectiveness), not that the host was
  noisy;
* a disabled-observability budget — instrumentation with tracing off
  must cost < 2% of the sweep.

Refresh the committed baseline after an intentional change with::

    REPRO_BENCH_UPDATE=1 python -m pytest benchmarks/test_bench_meta_speed.py

The refresh keeps the baseline's historical v1 columns.
"""

import json
import os
import time

import pytest

from repro import obs
from repro.algorithms.vector_packing import FusedProbeEngine, hvp_strategies
from repro.algorithms.yield_search import (
    DEFAULT_TOLERANCE,
    binary_search_max_yield,
)
from repro.experiments.report import format_table
from repro.workloads import ScenarioConfig, generate_instance

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_meta.json")

#: Deterministic regression gate: strategy executions may grow this much.
MAX_WORK_GROWTH = 1.2

REFERENCE_INSTANCES = [
    ScenarioConfig(hosts=12, services=48, cov=cov, slack=slack,
                   seed=2012, instance_index=0)
    for cov in (0.25, 0.75)
    for slack in (0.4, 0.6)
]

#: Per-instance columns of the seed engine, frozen in the baseline.
V1_COLUMNS = ("seconds_v1", "yield_v1")


@pytest.fixture(scope="module")
def baseline():
    with open(BASELINE_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def sweep():
    """Solve every reference instance with the engine, timed."""
    strategies = hvp_strategies()
    rows = []
    for cfg in REFERENCE_INSTANCES:
        inst = generate_instance(cfg)
        engine = FusedProbeEngine(inst, strategies)
        t0 = time.perf_counter()
        alloc = binary_search_max_yield(inst, engine, improve=False)
        rows.append({
            "label": cfg.label(),
            "seconds_v2": time.perf_counter() - t0,
            "yield_v2": None if alloc is None else alloc.minimum_yield(),
            "probes_v2": engine.probes,
            "strategy_runs_v2": engine.strategy_runs,
        })
    return rows


def test_engine_certifies_frozen_v1_yields(sweep, baseline):
    frozen = {r["label"]: r["yield_v1"] for r in baseline["instances"]}
    for row in sweep:
        y1, y2 = frozen[row["label"]], row["yield_v2"]
        assert (y1 is None) == (y2 is None), row["label"]
        if y1 is not None:
            assert y2 == pytest.approx(y1, abs=DEFAULT_TOLERANCE), row["label"]


def test_work_gate_and_record(sweep, baseline, emit, write_bench):
    total = sum(r["seconds_v2"] for r in sweep)
    total_runs = sum(r["strategy_runs_v2"] for r in sweep)

    table = format_table(
        ("instance", "yield", "time", "probes", "strategy runs"),
        [(r["label"],
          "-" if r["yield_v2"] is None else f"{r['yield_v2']:.4f}",
          f"{r['seconds_v2']:.3f}s", r["probes_v2"], r["strategy_runs_v2"])
         for r in sweep],
        title=f"METAHVP probe engine — {total:.2f}s, "
              f"{total_runs} strategy runs")
    emit("meta_speed", table)

    frozen = {r["label"]: r for r in baseline["instances"]}
    record = {
        "suite": "metahvp-probe-engine",
        "engines": {
            "v1": baseline["engines"]["v1"],
            "v2": "FusedProbeEngine: shared-probe factory + hint-first "
                  "strategy scan, one probe_scan kernel call per probe "
                  "where the backend has one",
        },
        "instances": [
            {"label": r["label"],
             **{k: frozen[r["label"]][k] for k in V1_COLUMNS},
             **{k: v for k, v in r.items() if k != "label"}}
            for r in sweep],
        "total_seconds": {"v1": baseline["total_seconds"]["v1"],
                          "v2": round(total, 3)},
        "strategy_runs_v2": total_runs,
    }
    write_bench("BENCH_meta.json", record)

    ceiling = MAX_WORK_GROWTH * baseline["strategy_runs_v2"]
    assert total_runs <= ceiling, (
        f"engine work regressed: {total_runs} strategy executions "
        f"vs committed baseline {baseline['strategy_runs_v2']} "
        f"(ceiling {ceiling:.0f})")


#: Observability-off budget: instrumentation may cost this fraction of
#: the sweep at most.
MAX_OBS_OVERHEAD = 0.02


def test_disabled_obs_overhead_within_budget(sweep):
    """With no ``--obs-log``, tracing must cost < 2% of the sweep.

    A disabled instrumentation site is one module-global bool check
    (``obs.enabled()``) plus, on the few unguarded sites, the shared
    no-op span singleton.  Measure that fast path's per-hit cost
    directly, scale it by a generous over-count of the instrumented
    events the sweep actually executed (several guards per probe, plus
    per-instance factory/engine/search sites), and compare against the
    sweep's own wall clock — a same-run ratio, so it holds on slow CI
    hosts.
    """
    assert not obs.enabled(), "benchmark must run with tracing disabled"
    reps = 100_000
    t0 = time.perf_counter()
    for _ in range(reps):
        if not obs.enabled():
            pass
        with obs.span("bench.noop"):
            pass
    per_hit = (time.perf_counter() - t0) / reps

    hits = sum(r["probes_v2"] for r in sweep) * 4 + len(sweep) * 8
    overhead = per_hit * hits
    total = sum(r["seconds_v2"] for r in sweep)
    print(f"disabled-obs overhead: {per_hit * 1e9:.0f}ns/hit x {hits} "
          f"hits = {overhead * 1e3:.3f}ms vs sweep {total:.2f}s "
          f"({overhead / total:.4%})")
    assert overhead <= MAX_OBS_OVERHEAD * total, (
        f"disabled instrumentation costs {overhead / total:.2%} of "
        f"the sweep (budget {MAX_OBS_OVERHEAD:.0%})")
