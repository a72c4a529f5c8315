"""Benchmark: batched solving (``solve_many``) vs sequential solves.

Part 1 solves the reference METAHVP instances twice under the active
kernel backend — once sequentially with the fused kernel switched off
(the per-strategy scan: one kernel call per strategy run) and once
through ``solve_many`` (one fused kernel call per probe) — and asserts
the two are interchangeable: identical certified yields, placements,
and probe counts.  The same-run gate requires the batched path to be
≥ ``MIN_BATCH_SPEEDUP``× faster; it is skipped when the backend has no
fused probe-scan kernel (numpy).

Part 2 reports the wall-clock of the full Table 1 and Table 2 quick
grids run batched (``batch=32``) — the end-to-end number the batching
work targets — plus each algorithm's summed solve-seconds and the share
spent inside the batched META* algorithms alone.

Results land in ``benchmarks/output/BENCH_batch.json``; the committed
baseline ``benchmarks/BENCH_batch.json`` records the reference
machine's numbers.  Refresh it after an intentional change with::

    REPRO_BENCH_UPDATE=1 python -m pytest benchmarks/test_bench_batch.py
"""

import json
import os
import time
from collections import defaultdict

import numpy as np
import pytest

from repro import kernels
from repro.algorithms.vector_packing import (
    FusedProbeEngine,
    MetaSolver,
    hvp_strategies,
)
from repro.algorithms.yield_search import binary_search_max_yield
from repro.experiments import QUICK_GRID
from repro.experiments.report import format_table
from repro.experiments.runner import run_grid
from repro.experiments.table1 import DEFAULT_TABLE1_ALGORITHMS
from repro.experiments.table2 import DEFAULT_TABLE2_ALGORITHMS
from repro.workloads import ScenarioConfig, generate_instance


#: Same-run acceptance floor: batched METAHVP sweep vs the sequential
#: per-strategy scan (the reference machine records ~5-10x).
MIN_BATCH_SPEEDUP = 2.0

REFERENCE_INSTANCES = [
    ScenarioConfig(hosts=12, services=48, cov=cov, slack=slack,
                   seed=2012, instance_index=0)
    for cov in (0.25, 0.75)
    for slack in (0.4, 0.6)
]

GRID_BATCH = 32


def _per_strategy_solve(instance, strategies, stats):
    """The engine with its fused scan switched off: each probe runs the
    same hint-first scan one strategy at a time, as on numpy."""
    engine = FusedProbeEngine(instance, strategies)
    engine.supported = False
    return binary_search_max_yield(instance, engine, stats=stats)


@pytest.fixture(scope="module")
def sweep():
    """The reference METAHVP sweep, sequential and batched, same run."""
    strategies = hvp_strategies()
    solver = MetaSolver(strategies)
    instances = [generate_instance(cfg) for cfg in REFERENCE_INSTANCES]
    # Untimed warm-up: fault in kernels and strategy tables.
    _per_strategy_solve(instances[0], strategies, {})
    solver.solve_many(instances[:1], threads=1)

    seq_stats = [{} for _ in instances]
    t0 = time.perf_counter()
    seq = [_per_strategy_solve(inst, strategies, st)
           for inst, st in zip(instances, seq_stats)]
    seq_seconds = time.perf_counter() - t0

    bat_stats = [{} for _ in instances]
    t0 = time.perf_counter()
    bat = solver.solve_many(instances, stats=bat_stats, threads=1)
    bat_seconds = time.perf_counter() - t0

    return {
        "backend": kernels.get_backend().name,
        "fused": kernels.get_backend().supports_probe_scan,
        "sequential": {"allocs": seq, "stats": seq_stats,
                       "seconds": seq_seconds},
        "batched": {"allocs": bat, "stats": bat_stats,
                    "seconds": bat_seconds},
    }


def test_batched_is_interchangeable(sweep):
    """Identical yields, placements, and oracle work per instance."""
    for cfg, a, b, sa, sb in zip(REFERENCE_INSTANCES,
                                 sweep["sequential"]["allocs"],
                                 sweep["batched"]["allocs"],
                                 sweep["sequential"]["stats"],
                                 sweep["batched"]["stats"]):
        assert (a is None) == (b is None), cfg.label()
        if a is not None:
            assert np.array_equal(a.placement, b.placement), cfg.label()
            assert np.array_equal(a.yields, b.yields), cfg.label()
        assert sa.get("certified") == sb.get("certified"), cfg.label()
        assert sa.get("probes") == sb.get("probes"), cfg.label()


@pytest.fixture(scope="module")
def grid_walls(sweep):
    """Full quick Table 1 + Table 2 grids, run batched."""
    if not sweep["fused"]:
        return None  # meaningless without the fused kernel; gate skips
    walls = {}
    meta_seconds = {}
    algorithm_seconds = {}
    for label, algos in (("table1", DEFAULT_TABLE1_ALGORITHMS),
                         ("table2", DEFAULT_TABLE2_ALGORITHMS)):
        t0 = time.perf_counter()
        results = run_grid(QUICK_GRID.configs(), algos, workers=1,
                           batch=GRID_BATCH)
        walls[label] = time.perf_counter() - t0
        per = defaultdict(float)
        for task in results:
            for r in task.results:
                per[r.algorithm] += r.seconds
        meta_seconds[label] = sum(v for k, v in per.items()
                                  if k.startswith("META") and k != "METAGREEDY")
        algorithm_seconds[label] = dict(per)
    return {"walls": walls, "meta_solve_seconds": meta_seconds,
            "algorithm_seconds": algorithm_seconds}


def test_batch_speedup_and_record(sweep, grid_walls, emit, write_bench,
                                  output_dir):
    seq = sweep["sequential"]["seconds"]
    bat = sweep["batched"]["seconds"]
    speedup = seq / bat

    rows = [("sequential", f"{seq:.2f}s", "-"),
            ("batched", f"{bat:.2f}s", f"{speedup:.1f}x")]
    table = format_table(
        ("dispatch", "total", "speedup"),
        rows,
        title=f"METAHVP sweep, solve_many vs per-strategy scan "
              f"(backend: {sweep['backend']})")
    emit("batch_solving", table)

    record = {
        "suite": "batched-solving",
        "backend": sweep["backend"],
        "fused_probe_scan": sweep["fused"],
        "sweep_seconds": {"sequential": round(seq, 3),
                          "batched": round(bat, 3)},
        "speedup": round(speedup, 2),
        "min_gate": MIN_BATCH_SPEEDUP,
        "identical_results": True,  # asserted above
        "quick_grid": None if grid_walls is None else {
            "batch": GRID_BATCH,
            "wall_seconds": {k: round(v, 2)
                             for k, v in grid_walls["walls"].items()},
            "meta_solve_seconds": {
                k: round(v, 2)
                for k, v in grid_walls["meta_solve_seconds"].items()},
            "algorithm_seconds": {
                grid: {algo: round(v, 2) for algo, v in per.items()}
                for grid, per in grid_walls["algorithm_seconds"].items()},
            "note": ("wall includes the non-kernel baselines "
                     "(RRND/RRNZ/METAGREEDY); meta_solve_seconds is the "
                     "batched META* share; algorithm_seconds sums each "
                     "algorithm's per-instance seconds, and RRND's and "
                     "RRNZ's each include the LP relaxation they share, "
                     "so they can add up to more than the wall"),
        },
    }
    write_bench("BENCH_batch.json", record)
    with open(os.path.join(output_dir, "BENCH_batch.json")) as fh:
        host = json.load(fh)["host"]
    assert host["cpu_count"] == os.cpu_count()
    assert host["kernel_backend"] == sweep["backend"]
    assert {"platform", "python", "numpy", "c_compiler"} <= host.keys()

    if not sweep["fused"]:
        pytest.skip("backend has no fused probe scan; no speedup to gate")
    assert speedup >= MIN_BATCH_SPEEDUP, (
        f"batched sweep is only {speedup:.2f}x faster than sequential "
        f"(acceptance floor {MIN_BATCH_SPEEDUP}x)")
