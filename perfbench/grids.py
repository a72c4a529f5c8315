"""The two grid workloads.

``grid-baselines`` is the quick Table 1 grid (16 hosts; 30 and 60
services; 5 CoV x 3 slack values) solved by RRND, RRNZ,
METAGREEDY, METAVP and METAHVP with the warm chain on, through the
same path as ``repro --workers 1 --batch 32 table1``: the experiment
spec's ``run`` with a checkpoint, then its render.  It spends most of
its time in the LP, greedy and ``improve_yields``.

``grid-meta`` is METAVP and METAHVP alone on a paper-scale platform
(64 hosts; 250 and 500 services; CoV {0, 0.5, 1} x slack {0.3, 0.5,
0.7}) through ``run_grid(workers=1, batch=32)``.  Nearly all of its time
is ``MetaSolver.solve_many`` and the kernels; LP and greedy never run.

A run holds ``SUB_GRIDS`` sub-grids, each seeded from ``--seed`` and
holding one instance per cell of the workload's grid, so the inputs, the
result digests and every quality figure depend on the arguments alone,
never on timing.  It solves them round-robin, one pass per sub-grid,
until ``--seconds`` have passed and every sub-grid has been solved at
least once; a pass that has begun is finished.  The first pass over each
sub-grid gives the quality figures and its result digest, and every
later pass must give the same digest.  ``instances_per_s`` is every
instance solved over the summed wall of every pass: a shared host slows
a process by a factor that drifts over tens of seconds, and the mean
over the whole window is steadier than the fastest or the median pass.
The request percentiles are over the solve time (every algorithm on one
instance) of every instance of every pass; ``mean_min_yield`` averages
every (instance, algorithm) pair of the first passes, a failed pair
counting as 0.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, replace

from record import Outcome
from spans import Tracer, format_tree, percentile, self_time_tree

#: Sub-grids per run: 240 quick-grid instances (two quick grids' worth),
#: or 144 META* instances.  One pass over all of them takes about 28 s
#: or 14 s on the 2-core reference box.  A failed pair's yield of 0
#: makes ``mean_min_yield`` vary from seed to seed; the 240 instances
#: keep that within a tenth or so.
SUB_GRIDS = {"grid-baselines": 8, "grid-meta": 8}
#: Slack for "a heuristic's min yield never exceeds the LP bound".
LP_BOUND_TOL = 1e-6
BATCH = 32

META_ALGORITHMS = ("METAVP", "METAHVP")


@dataclass
class Prepared:
    workload: str
    algorithms: tuple[str, ...]
    base_grid: object
    tmp: str
    smoke: bool


def _grid(workload: str, seed: int, smoke: bool):
    from repro.experiments.config import QUICK_GRID, GridSpec

    if workload == "grid-baselines":
        if smoke:
            return GridSpec(hosts=8, services=(16,), cov_values=(0.0, 0.5),
                            slack_values=(0.5,), instances=2, seed=seed)
        return replace(QUICK_GRID, instances=1, seed=seed)
    if smoke:
        return GridSpec(hosts=16, services=(40,), cov_values=(0.0, 1.0),
                        slack_values=(0.5,), instances=2, seed=seed)
    return GridSpec(hosts=64, services=(250, 500),
                    cov_values=(0.0, 0.5, 1.0),
                    slack_values=(0.3, 0.5, 0.7), instances=1, seed=seed)


def prepare(workload: str, seed: int, build: str, smoke: bool) -> Prepared:
    """Everything a run does before its first timed pass."""
    from repro import kernels
    from repro.experiments.table1 import DEFAULT_TABLE1_ALGORITHMS

    kernels.use_backend("native")
    algorithms = (tuple(DEFAULT_TABLE1_ALGORITHMS)
                  if workload == "grid-baselines" else META_ALGORITHMS)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=build)
    return Prepared(workload, algorithms, _grid(workload, seed, smoke), tmp,
                    smoke)


def pass_seed(seed: int, k: int) -> int:
    return seed if k == 0 else seed + 100_003 * k


def run_pass(prep: Prepared, grid, tag: str):
    """Solve one grid the way the CLI does; returns (wall seconds,
    task results in grid order, rendered table or None)."""
    from repro.experiments.persistence import load_results
    from repro.experiments.runner import run_grid
    from repro.experiments.table1 import table1_experiment

    ckpt = os.path.join(prep.tmp, f"{tag}.jsonl")
    start = time.perf_counter()
    if prep.workload == "grid-baselines":
        spec = table1_experiment(grid, prep.algorithms)
        rendered = spec.render(spec.run(1, checkpoint=ckpt, batch=BATCH))
        wall = time.perf_counter() - start
        results = load_results(ckpt)
    else:
        results = run_grid(grid.configs(), prep.algorithms, 1,
                           checkpoint=ckpt, batch=BATCH)
        rendered = None
        wall = time.perf_counter() - start
    os.unlink(ckpt)
    return wall, results, rendered


def result_digest(results) -> str:
    """SHA-256 over the (config, algorithm, min_yield) rows."""
    from repro.experiments.persistence import scenario_key

    h = hashlib.sha256()
    for task in results:
        key = repr(scenario_key(task.config))
        for r in task.results:
            h.update(f"{key}|{r.algorithm}|{r.min_yield!r}\n".encode())
    return h.hexdigest()


def lp_bound_excess(results) -> tuple[float, int, list[str]]:
    """Largest heuristic min yield minus the instance's LP relaxation
    bound, over all solved pairs, plus any pair above bound + tol."""
    from repro.core.exceptions import InfeasibleProblemError
    from repro.lp import solve_relaxation
    from repro.workloads import generate_instance

    worst = float("-inf")
    pairs = 0
    bad: list[str] = []
    for task in results:
        instance = generate_instance(task.config)
        try:
            bound = solve_relaxation(instance).min_yield
        except InfeasibleProblemError:
            bound = None
        for r in task.results:
            if r.min_yield is None:
                continue
            if bound is None:
                bad.append(f"{task.config.label()} {r.algorithm} solved an "
                           "instance whose LP relaxation is infeasible")
                continue
            pairs += 1
            worst = max(worst, r.min_yield - bound)
            if r.min_yield > bound + LP_BOUND_TOL:
                bad.append(f"{task.config.label()} {r.algorithm} "
                           f"{r.min_yield!r} > LP bound {bound!r}")
    return worst, pairs, bad


def _check_yields(out: Outcome, results, label: str) -> None:
    bad = [f"{t.config.label()} {r.algorithm}={r.min_yield!r}"
           for t in results for r in t.results
           if r.min_yield is not None and not 0.0 <= r.min_yield <= 1.0]
    out.check(f"{label}yields_in_unit_interval", not bad,
              f"{len(bad)} yields outside [0, 1], e.g. {bad[:3]}")


def run(workload: str, seed: int, seconds: float, trace: bool, build: str,
        smoke: bool, tracer_path: str | None) -> Outcome:
    prep = prepare(workload, seed, build, smoke)
    try:
        return _run(prep, seed, seconds, trace, tracer_path)
    finally:
        shutil.rmtree(prep.tmp, ignore_errors=True)


def _run(prep: Prepared, seed: int, seconds: float, trace: bool,
         tracer_path: str | None) -> Outcome:
    workload = prep.workload
    out = Outcome(workload)
    count = 1 if prep.smoke else SUB_GRIDS[workload]
    grids = [replace(prep.base_grid, seed=pass_seed(seed, k))
             for k in range(count)]

    walls: list[list[float]] = [[] for _ in grids]
    per_instance_ms: list[float] = []
    first: list = [None] * count
    digests: list[str | None] = [None] * count
    failed: set[int] = set()
    start = time.perf_counter()
    for p in itertools.count():
        k = p % count
        if p >= count and (len(failed) == count
                           or time.perf_counter() - start >= seconds):
            break
        if k in failed:
            continue
        grid = grids[k]
        n = grid.instance_count()
        out.attempted += n
        try:
            wall, results, rendered = run_pass(prep, grid, f"pass{p}")
        except Exception as exc:  # a raising task aborts its pass
            out.failed += n
            failed.add(k)
            out.check(f"pass{p}_completed", False,
                      f"{type(exc).__name__}: {exc}")
            continue
        out.succeeded += len(results)
        out.failed += n - len(results)
        walls[k].append(wall)
        per_instance_ms.extend(1e3 * sum(r.seconds for r in t.results)
                               for t in results)
        digest = result_digest(results)
        if p < count:
            first[k], digests[k] = results, digest
            _check_yields(out, results, f"grid{k}_")
            out.check(f"grid{k}_complete", len(results) == n,
                      f"{len(results)} of {n} tasks in the checkpoint")
        else:
            out.check(f"pass{p}_same_results", digest == digests[k],
                      f"sub-grid {k} gave other results than its first "
                      "pass")
        if rendered is not None:
            out.check(f"pass{p}_rendered", bool(rendered.strip()),
                      "empty table")
    done = [k for k in range(count) if first[k] is not None]
    out.details["result_digests"] = [digests[k] for k in done]
    out.details["passes"] = sum(len(w) for w in walls)
    out.details["grid_instances_per_s"] = [
        round(len(first[k]) * len(walls[k]) / sum(walls[k]), 3)
        for k in done]

    flat = [t for k in done for t in first[k]]
    if workload == "grid-baselines" and flat:
        worst, pairs, bad = lp_bound_excess(flat)
        out.details["lp_bound_max_excess"] = f"{worst:.6f} over {pairs} pairs"
        out.check("min_yield_within_lp_bound", not bad,
                  f"{len(bad)} pairs above the bound, e.g. {bad[:3]}")

    yields = [r.min_yield or 0.0 for t in flat for r in t.results]
    if done:
        out.put("instances_per_s",
                len(per_instance_ms) / sum(sum(w) for w in walls), "1/s",
                sum(len(w) for w in walls))
        out.put("mean_min_yield", statistics.fmean(yields), "yield",
                len(yields))
        out.put("request_p50_ms", percentile(per_instance_ms, 50), "ms",
                len(per_instance_ms))
        out.put("request_p99_ms", percentile(per_instance_ms, 99), "ms",
                len(per_instance_ms))
    failed_pairs = sum(r.min_yield is None for t in flat for r in t.results)
    out.details["failed_pairs"] = f"{failed_pairs} of {len(yields)}"
    out.put("peak_rss_mb",
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB", 1)

    if trace and len(done) == count:
        _traced_passes(out, prep, grids, walls, digests, tracer_path)
    return out


def _traced_passes(out: Outcome, prep: Prepared, grids, walls, digests,
                   tracer_path: str | None) -> None:
    from layers import instrument, layer_metrics

    tracer = Tracer()
    stats = instrument(tracer)
    traced_walls = []
    try:
        for k, grid in enumerate(grids):
            with tracer.span("grid.pass"):
                wall, results, _ = run_pass(prep, grid, f"traced{k}")
            traced_walls.append(wall)
            out.check(f"traced_pass{k}_matches_untraced",
                      result_digest(results) == digests[k],
                      "tracing changed the results")
    finally:
        tracer.restore()
    for name, (value, samples) in layer_metrics(tracer, stats).items():
        out.put(name, value, "", samples)
    untraced = sum(statistics.fmean(w) for w in walls)
    out.put("trace.overhead_share", sum(traced_walls) / untraced - 1.0,
            "", len(traced_walls))
    out.tree = format_tree(self_time_tree(tracer.spans))
    if tracer_path:
        tracer.write_jsonl(tracer_path)
