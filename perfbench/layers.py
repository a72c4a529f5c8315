"""Timing wrappers around each layer of ``repro`` and the per-layer
metrics derived from the spans they record.

:func:`instrument` patches the public entry points of every layer the
benchmark reports on (workload generation, the LP relaxation, rounding,
greedy, the META* solver and its yield search, ``Allocation``, the
kernel backend, the experiment runner's checkpoint and render, and the
service controller and journal).  It returns a :class:`LayerStats` that
also keeps the counts the wrappers read from return values: META*
``stats`` dicts, rounding outcomes and greedy placements.

Every per-layer metric is emitted on every workload; a layer that a
workload never calls reads 0 with 0 samples.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from spans import Span, Tracer, self_times

#: Per-layer metrics in output order: name -> unit.
PER_LAYER_UNITS = {
    "workloads.generate_s": "s",
    "lp.solve_s": "s",
    "lp.solves": "count",
    "rounding.draw_s": "s",
    "rounding.success_share": "share",
    "greedy.self_s": "s",
    "greedy.distinct_placement_share": "share",
    "allocation.improve_s": "s",
    "allocation.improve_calls": "count",
    "meta.solve_s": "s",
    "meta.batch_size": "count",
    "meta.probes_per_instance": "count",
    "meta.hint_used_share": "share",
    "kernels.probe_scan_calls": "count",
    "kernels.probe_scan_s": "s",
    "kernels.fit_thresholds_s": "s",
    "experiments.checkpoint_append_s": "s",
    "experiments.unattributed_s": "s",
    "service.solve_ms": "ms",
    "service.overhead_ms": "ms",
    "service.queue_ms": "ms",
    "service.journal_append_s": "s",
    "service.probes_per_request": "count",
    "service.warm_share": "share",
    "service.admit_reject_share": "share",
    "loadgen.lag_ms": "ms",
    "trace.overhead_share": "share",
}

#: Kernel backend methods wrapped, and the span name of each.
_KERNEL_METHODS = {
    "probe_scan": "kernels.probe_scan",
    "batch_fit_thresholds": "kernels.fit_thresholds",
    "affine_fit_thresholds": "kernels.fit_thresholds",
    "first_fit": "kernels.first_fit",
    "best_fit": "kernels.best_fit",
    "permutation_pack": "kernels.permutation_pack",
    "incremental_best_fit": "kernels.incremental_best_fit",
}


@dataclass
class LayerStats:
    """Counts read from return values while tracing."""

    meta_calls: int = 0
    meta_instances: int = 0
    meta_probes: int = 0
    meta_hint_used: int = 0
    rounding_draws: int = 0
    rounding_successes: int = 0
    #: Greedy member calls made by METAGREEDY, and per METAGREEDY span
    #: index the digests of the distinct placements its members returned.
    greedy_members: int = 0
    greedy_placements: dict[int, set] = field(default_factory=dict)


def _algo_span_name(algo, *args, **kwargs) -> str:
    if algo.name.startswith("GREEDY:"):
        return "greedy.member"
    return f"algo.{algo.name}"


def instrument(tracer: Tracer) -> LayerStats:
    """Patch every layer; undo with ``tracer.restore()``."""
    from repro import kernels
    from repro.algorithms.base import NamedAlgorithm
    from repro.algorithms.vector_packing.meta import MetaSolver
    from repro.core.allocation import Allocation
    from repro.experiments.persistence import ResultStore
    from repro.experiments.spec import GridExperiment
    from repro.service.controller import AllocationController
    from repro.service.journal import EventJournal

    stats = LayerStats()

    def count_meta(per_instance: list) -> None:
        stats.meta_calls += 1
        stats.meta_instances += len(per_instance)
        for st in per_instance:
            stats.meta_probes += st.get("probes", 0)
            stats.meta_hint_used += bool(st.get("hint_used", False))

    # Both entry points take ``stats`` fourth, after self.
    def on_meta_many(sp: Span, args, kwargs, result) -> None:
        per = kwargs.get("stats", args[3] if len(args) > 3 else None)
        count_meta(per or [{} for _ in result])

    def on_meta_one(sp: Span, args, kwargs, result) -> None:
        st = kwargs.get("stats", args[3] if len(args) > 3 else None)
        count_meta([st or {}])

    def on_draw(sp: Span, args, kwargs, result) -> None:
        stats.rounding_draws += 1
        stats.rounding_successes += result is not None

    def on_algo(sp: Span, args, kwargs, result) -> None:
        if sp.name != "greedy.member":
            return
        owner = tracer.open_ancestor("algo.METAGREEDY")
        if owner is None:
            return
        stats.greedy_members += 1
        if result is not None:
            digest = hashlib.sha1(result.placement.tobytes()).digest()
            stats.greedy_placements.setdefault(owner.index, set()).add(digest)

    tracer.patch_function("repro.workloads.instances", "generate_instance",
                          "workloads.generate")
    tracer.patch_function("repro.lp.solver", "solve_relaxation",
                          "lp.solve_relaxation")
    tracer.patch_function("repro.algorithms.rounding",
                          "round_probabilities", "rounding.draw", on_draw)
    tracer.patch_function("repro.algorithms.yield_search",
                          "binary_search_max_yield", "yield_search.search")
    tracer.patch_attr(NamedAlgorithm, "__call__", _algo_span_name, on_algo)
    tracer.patch_attr(MetaSolver, "solve_many", "meta.solve_many",
                      on_meta_many)
    tracer.patch_attr(MetaSolver, "solve_with_hint", "meta.solve_with_hint",
                      on_meta_one)
    tracer.patch_attr(Allocation, "improve_yields", "allocation.improve")
    backend = kernels.get_backend()
    for method, name in _KERNEL_METHODS.items():
        tracer.patch_attr(backend, method, name)
    tracer.patch_attr(ResultStore, "append",
                      "experiments.checkpoint_append")
    tracer.patch_attr(GridExperiment, "render", "experiments.render")
    tracer.patch_attr(AllocationController, "admit", "service.admit")
    tracer.patch_attr(AllocationController, "depart", "service.depart")
    tracer.patch_attr(EventJournal, "append", "service.journal_append")
    return stats


def _has_ancestor(spans: list[Span], sp: Span, name: str) -> bool:
    idx = sp.parent
    while idx >= 0:
        if spans[idx].name == name:
            return True
        idx = spans[idx].parent
    return False


def layer_metrics(tracer: Tracer, stats: LayerStats
                  ) -> dict[str, tuple[float, int]]:
    """Span- and count-derived per-layer metrics: name -> (value,
    samples).  The service and load-generator metrics that come from
    HTTP responses are added by the serve workload itself."""
    spans = tracer.spans
    selfs = self_times(spans)

    def total(name: str) -> tuple[float, int]:
        hits = tracer.by_name(name)
        return sum(sp.duration for sp in hits), len(hits)

    def share(num: int, den: int) -> tuple[float, int]:
        return (num / den if den else 0.0), den

    improve = tracer.by_name("allocation.improve")
    greedy_total, greedy_n = total("algo.METAGREEDY")
    greedy_improve = sum(sp.duration for sp in improve
                         if _has_ancestor(spans, sp, "algo.METAGREEDY"))
    members = stats.greedy_members
    distinct = sum(len(v) for v in stats.greedy_placements.values())
    # The META* layer's own Python: the solver entry points and the
    # yield search around the kernel and improve_yields calls.
    meta_self = sum(selfs[sp.index] for sp in spans
                    if sp.name in ("meta.solve_many", "meta.solve_with_hint",
                                   "yield_search.search"))
    roots = [sp for sp in spans if sp.parent < 0]
    out = {
        "workloads.generate_s": total("workloads.generate"),
        "lp.solve_s": total("lp.solve_relaxation"),
        "lp.solves": (float(len(tracer.by_name("lp.solve_relaxation"))),
                      len(tracer.by_name("lp.solve_relaxation"))),
        "rounding.draw_s": total("rounding.draw"),
        "rounding.success_share": share(stats.rounding_successes,
                                        stats.rounding_draws),
        "greedy.self_s": (greedy_total - greedy_improve, greedy_n),
        "greedy.distinct_placement_share": share(distinct, members),
        "allocation.improve_s": total("allocation.improve"),
        "allocation.improve_calls": (float(len(improve)), len(improve)),
        "meta.solve_s": (meta_self, stats.meta_calls),
        "meta.batch_size": ((stats.meta_instances / stats.meta_calls
                             if stats.meta_calls else 0.0),
                            stats.meta_calls),
        "meta.probes_per_instance": ((stats.meta_probes
                                      / stats.meta_instances
                                      if stats.meta_instances else 0.0),
                                     stats.meta_instances),
        "meta.hint_used_share": share(stats.meta_hint_used,
                                      stats.meta_instances),
        "kernels.probe_scan_calls": (
            float(len(tracer.by_name("kernels.probe_scan"))),
            len(tracer.by_name("kernels.probe_scan"))),
        "kernels.probe_scan_s": total("kernels.probe_scan"),
        "kernels.fit_thresholds_s": total("kernels.fit_thresholds"),
        "experiments.checkpoint_append_s": total(
            "experiments.checkpoint_append"),
        "experiments.unattributed_s": (
            sum(selfs[sp.index] for sp in roots
                if sp.name == "grid.pass"),
            sum(1 for sp in roots if sp.name == "grid.pass")),
        "service.journal_append_s": total("service.journal_append"),
    }
    return out
