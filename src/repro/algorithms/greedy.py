"""Greedy placement algorithms (§3.4): 7 service sorts × 7 node pickers.

Each greedy algorithm walks the services in sorted order and commits each
to a node chosen by a local criterion, considering only the service's rigid
*requirements* for feasibility.  Once every service is placed, yields are
set per node with the closed-form max-min computation (the fluid *needs*
then share whatever headroom the placement left) — this mirrors the
original homogeneous formulation of [3], where greedy placement is a
single pass and the yield optimization happens after placement.

Service sorting strategies (on aggregate vectors):

* S1 — no sorting;
* S2 — decreasing max need;
* S3 — decreasing sum of needs;
* S4 — decreasing max requirement;
* S5 — decreasing sum of requirements;
* S6 — decreasing max(sum of requirements, sum of needs);
* S7 — decreasing (sum of requirements + sum of needs).

Node selection strategies (among nodes whose remaining capacity fits the
service's requirements):

* P1 — most available capacity in the dimension of the service's max need;
* P2 — min ratio of total load (after placement) to total capacity;
* P3 — least remaining capacity in the dimension of the service's largest
  requirement (best fit);
* P4 — least total available capacity (best fit);
* P5 — most remaining capacity in the dimension of the largest requirement
  (worst fit);
* P6 — most total available capacity (worst fit);
* P7 — first fitting node (first fit).

All variants run as one lock-step numpy scan, :func:`greedy_scan`.  The
loads of V variants form a ``(V, H, D)`` array; step *t* places each
variant's *t*-th service at once: a ``(V, H)`` fit mask, each row's
picker score over the nodes, and a masked ``argmax`` (a "least" picker
negates its score), so the lowest fitting node index wins ties exactly
as a per-variant ``cands[argmax(score[cands])]`` would.  A variant that
finds no fitting node drops out.  :func:`greedy_algorithm` is the same
scan over one variant.

METAGREEDY scans all 49 variants, keeps the distinct placements
(``np.unique(..., axis=0)``; about 61% of the successful placements are
distinct on the quick grid), scores each once with the batched closed
form (:func:`~repro.core.allocation.improved_yields`), and returns the
first variant in S × P order that reaches the best minimum yield — the
same allocation a loop over the 49 members keeping the first strict
improvement returns.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .. import obs
from ..core.allocation import Allocation, improved_yields
from ..core.resources import STRICT_FIT_ATOL
from ..core.instance import ProblemInstance
from .base import NamedAlgorithm

__all__ = [
    "SERVICE_SORTS",
    "NODE_PICKERS",
    "VARIANTS",
    "greedy_scan",
    "greedy_algorithm",
    "all_greedy_algorithms",
    "metagreedy",
]


# ----------------------------------------------------------------------
# Service sorting (S1-S7).  Each returns the processing order (indices).
# ----------------------------------------------------------------------

def _desc(keys: np.ndarray) -> np.ndarray:
    # Stable descending order: sort ascending on negated keys.
    return np.argsort(-keys, kind="stable")


def _order_s1(inst: ProblemInstance) -> np.ndarray:
    return np.arange(inst.num_services)


def _order_s2(inst: ProblemInstance) -> np.ndarray:
    return _desc(inst.services.need_agg.max(axis=1))


def _order_s3(inst: ProblemInstance) -> np.ndarray:
    return _desc(inst.services.need_agg.sum(axis=1))


def _order_s4(inst: ProblemInstance) -> np.ndarray:
    return _desc(inst.services.req_agg.max(axis=1))


def _order_s5(inst: ProblemInstance) -> np.ndarray:
    return _desc(inst.services.req_agg.sum(axis=1))


def _order_s6(inst: ProblemInstance) -> np.ndarray:
    sums_r = inst.services.req_agg.sum(axis=1)
    sums_n = inst.services.need_agg.sum(axis=1)
    return _desc(np.maximum(sums_r, sums_n))


def _order_s7(inst: ProblemInstance) -> np.ndarray:
    return _desc(inst.services.req_agg.sum(axis=1)
                 + inst.services.need_agg.sum(axis=1))


SERVICE_SORTS: dict[str, Callable[[ProblemInstance], np.ndarray]] = {
    "S1": _order_s1, "S2": _order_s2, "S3": _order_s3, "S4": _order_s4,
    "S5": _order_s5, "S6": _order_s6, "S7": _order_s7,
}


# ----------------------------------------------------------------------
# Node picking (P1-P7).  Each picker is a per-node score and a sense:
# +1 picks the fitting node of largest score, -1 the smallest; ties go to
# the lowest node index.  Scores, for service j on node h under loads L:
#   need_dim  c^a_h - L_h in the dimension of j's largest need;
#   req_dim   c^a_h - L_h in the dimension of j's largest requirement;
#   total     sum_d (c^a_hd - L_hd);
#   ratio     (sum_d L_hd + sum_d r^a_jd) / sum_d c^a_hd;
#   first     constant (the first fitting node).
# ----------------------------------------------------------------------

NODE_PICKERS: dict[str, tuple[str, int]] = {
    "P1": ("need_dim", +1), "P2": ("ratio", -1), "P3": ("req_dim", -1),
    "P4": ("total", -1), "P5": ("req_dim", +1), "P6": ("total", +1),
    "P7": ("first", +1),
}

#: Row of each score in the scan's ``(5, V, H)`` score array.
_SLOT = {name: k for k, name in enumerate(
    ("need_dim", "req_dim", "total", "ratio", "first"))}

#: Every S x P variant in the order METAGREEDY ranks them.
VARIANTS: tuple[tuple[str, str], ...] = tuple(
    (s, p) for s in SERVICE_SORTS for p in NODE_PICKERS)


# ----------------------------------------------------------------------
# The lock-step scan.
# ----------------------------------------------------------------------

def greedy_scan(instance: ProblemInstance,
                variants: Sequence[tuple[str, str]]
                ) -> tuple[np.ndarray, np.ndarray]:
    """Place every ``(sort, picker)`` variant of *variants* together.

    Returns ``(placements, ok)``: a ``(V, J)`` node table and a ``(V,)``
    mask of the variants that placed every service.  A failed variant's
    row is meaningless.
    """
    sv, nd = instance.services, instance.nodes
    V, J, H = len(variants), instance.num_services, instance.num_nodes
    with obs.span("greedy.scan", tags={"variants": V, "services": J}):
        rows = np.arange(V)
        by_sort = {s: SERVICE_SORTS[s](instance) for s, _ in variants}
        orders = np.stack([by_sort[s] for s, _ in variants])
        kind = np.array([_SLOT[NODE_PICKERS[p][0]] for _, p in variants])
        sense = np.array([float(NODE_PICKERS[p][1]) for _, p in variants])
        used = {NODE_PICKERS[p][0] for _, p in variants}
        # Static elementary feasibility of requirements, (J, H).
        elem_ok = (sv.req_elem[:, None, :]
                   <= nd.elementary[None, :, :] + STRICT_FIT_ATOL).all(axis=2)
        cap = nd.aggregate
        cap_tol = cap + STRICT_FIT_ATOL
        cap_sum = cap.sum(axis=1)
        req_sum = sv.req_agg.sum(axis=1)
        dim_of = {"need_dim": sv.need_agg.argmax(axis=1),
                  "req_dim": sv.req_agg.argmax(axis=1)}

        loads = np.zeros((V, H, instance.dims))
        placements = np.full((V, J), -1, dtype=np.int64)
        ok = np.ones(V, dtype=bool)
        scores = np.zeros((len(_SLOT), V, H))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for t in range(J):
                j = orders[:, t]
                req = sv.req_agg[j]
                fit = elem_ok[j] & (loads + req[:, None, :] <= cap_tol
                                    ).all(axis=2)
                remaining = cap - loads
                for name in used & dim_of.keys():
                    scores[_SLOT[name]] = remaining[rows, :, dim_of[name][j]]
                if "total" in used:
                    scores[_SLOT["total"]] = remaining.sum(axis=2)
                if "ratio" in used:
                    scores[_SLOT["ratio"]] = (
                        loads.sum(axis=2) + req_sum[j][:, None]) / cap_sum
                # Negating a "least" score keeps argmax's first-index tie
                # rule; non-fitting nodes can never win.
                key = np.where(fit, scores[kind, rows] * sense[:, None],
                               -np.inf)
                pick = key.argmax(axis=1)
                ok &= fit.any(axis=1)
                # Only when every fitting node scores -inf can argmax land
                # on a non-fitting one; the first fitting node ties then.
                stray = ok & ~fit[rows, pick]
                if stray.any():
                    pick[stray] = fit[stray].argmax(axis=1)
                loads[rows, pick] += req
                placements[rows, j] = pick
                if not ok.any():
                    break
    return placements, ok


def greedy_algorithm(sort_name: str, pick_name: str) -> NamedAlgorithm:
    """One of the 49 greedy combinations, e.g. ``greedy_algorithm("S3", "P2")``."""
    if sort_name not in SERVICE_SORTS or pick_name not in NODE_PICKERS:
        raise KeyError(f"unknown greedy variant {sort_name}:{pick_name}")
    variant = ((sort_name, pick_name),)

    def solve(instance: ProblemInstance) -> Optional[Allocation]:
        placements, ok = greedy_scan(instance, variant)
        if not ok[0]:
            return None
        # Requirements are guaranteed to fit; distribute needs per node.
        return Allocation.uniform(instance, placements[0], 0.0).improve_yields()

    return NamedAlgorithm(f"GREEDY:{sort_name}:{pick_name}", solve)


def all_greedy_algorithms() -> tuple[NamedAlgorithm, ...]:
    """All 49 sort × picker combinations (§3.4)."""
    return tuple(greedy_algorithm(s, p) for s, p in VARIANTS)


def metagreedy() -> NamedAlgorithm:
    """METAGREEDY: run all 49 greedy algorithms, keep the best minimum yield."""

    def solve(instance: ProblemInstance) -> Optional[Allocation]:
        placements, ok = greedy_scan(instance, VARIANTS)
        if not ok.any():
            return None
        distinct, inverse = np.unique(placements[ok], axis=0,
                                      return_inverse=True)
        yields = improved_yields(instance, distinct, 0.0)
        # The first variant in S x P order that reaches the best yield.
        best = int(inverse.reshape(-1)[np.argmax(
            yields.min(axis=1)[inverse.reshape(-1)])])
        return Allocation(instance, distinct[best], yields[best])

    return NamedAlgorithm("METAGREEDY", solve)
