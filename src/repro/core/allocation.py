"""Allocations: placements plus per-service yields, with validation.

An :class:`Allocation` assigns every service to exactly one node and a yield
in [0, 1].  Validity (§2, Eqs. 5-6 of the MILP) means:

* **elementary**: for each service *j* on node *h* and dimension *d*:
  ``r^e_jd + y_j n^e_jd <= c^e_hd``;
* **aggregate**: for each node *h* and dimension *d*:
  ``Σ_{j on h} (r^a_jd + y_j n^a_jd) <= c^a_hd``.

The module also provides :func:`max_min_yield_on_node`, the closed-form
"maximize the minimum yield for a fixed placement on one node" computation
that underlies both the binary-search refinement step and the ALLOCCAPS /
ALLOCWEIGHTS runtime policies of §6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import InvalidAllocationError
from .instance import ProblemInstance
from .resources import FEASIBILITY_ATOL, FEASIBILITY_RTOL

__all__ = ["Allocation", "improved_yields", "max_min_yield_on_node", "node_loads",
           "uniform_yield_demands"]

UNPLACED = -1


def uniform_yield_demands(instance: ProblemInstance, y: float) -> tuple[np.ndarray, np.ndarray]:
    """``(J, D)`` elementary and aggregate demands at uniform yield *y*."""
    sv = instance.services
    return sv.req_elem + y * sv.need_elem, sv.req_agg + y * sv.need_agg


def node_loads(instance: ProblemInstance, placement: np.ndarray,
               yields: np.ndarray) -> np.ndarray:
    """Aggregate load per node, shape ``(H, D)``.

    Services with placement ``UNPLACED`` contribute nothing.
    """
    sv = instance.services
    demands = sv.req_agg + yields[:, None] * sv.need_agg
    loads = np.zeros((instance.num_nodes, instance.dims))
    placed = placement >= 0
    # np.add.at accumulates duplicates correctly (fancy-index += would not).
    np.add.at(loads, placement[placed], demands[placed])
    return loads


def max_min_yield_on_node(cap_elem: np.ndarray, cap_agg: np.ndarray,
                          req_elem: np.ndarray, req_agg: np.ndarray,
                          need_elem: np.ndarray, need_agg: np.ndarray) -> float:
    """Largest uniform yield for the given services co-located on one node.

    Inputs are the node's ``(D,)`` capacity vectors and the ``(K, D)``
    requirement/need arrays of the K services placed there.  Returns the
    maximum *y* such that every elementary and aggregate constraint holds,
    clamped to [0, 1], or ``-1.0`` if even *y = 0* (requirements alone) is
    infeasible.

    At the max-min optimum all services share one uniform yield: granting
    the minimum-yield service more requires aggregate budget that must come
    from another service, which would then become the new minimum.  Hence
    the closed form: per-dimension aggregate headroom divided by aggregate
    need, intersected with each service's elementary headroom.
    """
    if req_elem.shape[0] == 0:
        return 1.0
    # Feasibility at y = 0.
    if (req_elem > cap_elem + FEASIBILITY_ATOL).any():
        return -1.0
    agg_req = req_agg.sum(axis=0)
    if (agg_req > cap_agg * (1 + FEASIBILITY_RTOL) + FEASIBILITY_ATOL).any():
        return -1.0

    y = 1.0
    # Elementary: r^e + y n^e <= c^e for every service and dimension.
    mask = need_elem > 0
    if mask.any():
        headroom = (cap_elem - req_elem)[mask] / need_elem[mask]
        y = min(y, headroom.min())
    # Aggregate: sum(r^a) + y sum(n^a) <= c^a per dimension.
    agg_need = need_agg.sum(axis=0)
    dmask = agg_need > 0
    if dmask.any():
        y = min(y, ((cap_agg - agg_req)[dmask] / agg_need[dmask]).min())
    return float(min(1.0, max(0.0, y)))


@dataclass
class Allocation:
    """A complete solution: node assignment and yield for every service."""

    instance: ProblemInstance
    placement: np.ndarray  # (J,) int64, node index or UNPLACED
    yields: np.ndarray     # (J,) float64 in [0, 1]

    def __post_init__(self) -> None:
        J = self.instance.num_services
        self.placement = np.asarray(self.placement, dtype=np.int64)
        self.yields = np.asarray(self.yields, dtype=np.float64)
        if self.placement.shape != (J,):
            raise InvalidAllocationError(
                f"placement shape {self.placement.shape} != ({J},)")
        if self.yields.shape != (J,):
            raise InvalidAllocationError(
                f"yields shape {self.yields.shape} != ({J},)")
        if ((self.placement < UNPLACED)
                | (self.placement >= self.instance.num_nodes)).any():
            raise InvalidAllocationError("placement contains out-of-range node index")
        if ((self.yields < -FEASIBILITY_ATOL)
                | (self.yields > 1.0 + FEASIBILITY_ATOL)).any():
            raise InvalidAllocationError("yields outside [0, 1]")

    @classmethod
    def uniform(cls, instance: ProblemInstance, placement: Sequence[int],
                y: float) -> "Allocation":
        """Allocation with the same yield for every placed service."""
        placement = np.asarray(placement, dtype=np.int64)
        yields = np.where(placement >= 0, float(y), 0.0)
        return cls(instance, placement, yields)

    # ------------------------------------------------------------------
    @property
    def complete(self) -> bool:
        """True when every service is placed on some node."""
        return bool((self.placement >= 0).all())

    def minimum_yield(self) -> float:
        """The objective value: min yield over all services.

        Raises if any service is unplaced (an incomplete allocation has no
        defined objective; heuristics return ``None`` instead of building
        one).
        """
        if not self.complete:
            raise InvalidAllocationError("minimum_yield of incomplete allocation")
        return float(self.yields.min())

    def node_loads(self) -> np.ndarray:
        return node_loads(self.instance, self.placement, self.yields)

    # ------------------------------------------------------------------
    def validate(self, require_complete: bool = True) -> None:
        """Raise :class:`InvalidAllocationError` unless all constraints hold."""
        inst = self.instance
        if require_complete and not self.complete:
            raise InvalidAllocationError("allocation leaves services unplaced")
        placed = self.placement >= 0
        if not placed.any():
            return
        sv = inst.services
        hs = self.placement[placed]
        ys = self.yields[placed][:, None]
        elem_demand = sv.req_elem[placed] + ys * sv.need_elem[placed]
        elem_cap = inst.nodes.elementary[hs]
        tol = FEASIBILITY_RTOL * np.maximum(elem_cap, 1.0) + FEASIBILITY_ATOL
        bad = elem_demand > elem_cap + tol
        if bad.any():
            j = int(np.flatnonzero(bad.any(axis=1))[0])
            raise InvalidAllocationError(
                f"elementary capacity exceeded for service index {j} "
                f"(demand {elem_demand[j]}, capacity {elem_cap[j]})")
        loads = self.node_loads()
        agg_cap = inst.nodes.aggregate
        tol = FEASIBILITY_RTOL * np.maximum(agg_cap, 1.0) + FEASIBILITY_ATOL
        bad = loads > agg_cap + tol
        if bad.any():
            h = int(np.flatnonzero(bad.any(axis=1))[0])
            raise InvalidAllocationError(
                f"aggregate capacity exceeded on node {h} "
                f"(load {loads[h]}, capacity {agg_cap[h]})")

    def is_valid(self, require_complete: bool = True) -> bool:
        try:
            self.validate(require_complete=require_complete)
        except InvalidAllocationError:
            return False
        return True

    # ------------------------------------------------------------------
    def improve_yields(self) -> "Allocation":
        """Raise every node's services to that node's max-min uniform yield.

        Packing heuristics certify a *uniform* yield via binary search; the
        final allocation can usually do better on under-loaded nodes.  This
        post-pass gives every placed service
        ``max(its yield, y_h)``, where ``y_h`` is
        :func:`max_min_yield_on_node` of the services placed on its node
        *h*: a yield is never lowered, nodes infeasible at ``y = 0`` keep
        their yields, and unplaced services are untouched.  All nodes are
        computed at once by :func:`improved_yields`, bit for bit what the
        per-node closed form gives.
        """
        return Allocation(self.instance, self.placement.copy(),
                          improved_yields(self.instance, self.placement,
                                          self.yields))


def _segment_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Row sums of consecutive segments of *values*, ``(len(counts), D)``.

    Segment *s* is the next ``counts[s]`` rows.  Segments of equal length
    K are summed together as one ``(n, K, D)`` block along axis 1, which
    numpy reduces exactly as it reduces one segment's ``(K, D)`` rows
    along axis 0 — so each sum equals :func:`max_min_yield_on_node`'s
    ``.sum(axis=0)`` bit for bit.  (An ``np.add.at`` accumulation adds
    strictly left to right, which differs for ``D = 1``: there numpy
    sums eight or more rows pairwise.)
    """
    out = np.zeros((counts.size, values.shape[1]))
    starts = np.cumsum(counts) - counts
    for k in np.unique(counts[counts > 0]):
        segs = np.flatnonzero(counts == k)
        out[segs] = values[starts[segs, None] + np.arange(k)].sum(axis=1)
    return out


def improved_yields(instance: ProblemInstance, placement: np.ndarray,
                    yields: np.ndarray) -> np.ndarray:
    """The yields :meth:`Allocation.improve_yields` returns, for one
    placement ``(J,)`` or a stack of them ``(U, J)``.

    Segment reductions of :func:`max_min_yield_on_node`'s closed form
    over every (placement row, node) pair at once: requirement and need
    sums per node, ``np.minimum.at`` of the per-service elementary
    headroom, and the same feasibility tests at ``y = 0``.  *yields*
    broadcasts against *placement*; the result has *placement*'s shape.
    """
    P = np.asarray(placement, dtype=np.int64)
    J, H = P.shape[-1], instance.num_nodes
    Y = np.broadcast_to(np.asarray(yields, dtype=np.float64), P.shape)
    U = int(np.prod(P.shape[:-1]))
    P2, out = P.reshape(U, J), Y.reshape(U, J).copy()
    sv, nd = instance.services, instance.nodes

    # Placed services grouped by (row, node) segment, ascending j inside.
    row, svc = np.nonzero(P2 >= 0)
    seg = row * H + P2[row, svc]
    order = np.argsort(seg, kind="stable")
    row, svc, seg = row[order], svc[order], seg[order]
    node = seg % H
    nseg = U * H
    counts = np.bincount(seg, minlength=nseg)

    # Feasibility at y = 0: every requirement fits, elementary and aggregate.
    infeasible = np.zeros(nseg, dtype=bool)
    elem_bad = (sv.req_elem[svc]
                > (nd.elementary + FEASIBILITY_ATOL)[node]).any(axis=1)
    infeasible[seg[elem_bad]] = True
    agg_req = _segment_sums(sv.req_agg[svc], counts)
    agg_need = _segment_sums(sv.need_agg[svc], counts)
    cap_agg = np.tile(nd.aggregate, (U, 1))
    cap_tol = np.tile(nd.aggregate * (1 + FEASIBILITY_RTOL) + FEASIBILITY_ATOL,
                      (U, 1))
    infeasible |= (agg_req > cap_tol).any(axis=1)

    # Elementary: r^e + y n^e <= c^e for every service and dimension.
    need_elem = sv.need_elem[svc]
    headroom = np.full(need_elem.shape, np.inf)
    np.divide(nd.elementary[node] - sv.req_elem[svc], need_elem,
              out=headroom, where=need_elem > 0)
    y_elem = np.full(nseg, np.inf)
    np.minimum.at(y_elem, seg, headroom.min(axis=1))
    # Aggregate: sum(r^a) + y sum(n^a) <= c^a per dimension.
    agg_head = np.full(agg_need.shape, np.inf)
    np.divide(cap_agg - agg_req, agg_need, out=agg_head, where=agg_need > 0)
    y_agg = agg_head.min(axis=1)

    # min(1, elementary, aggregate) clamped to [0, 1], with the scalar
    # min/max tie and NaN rules of the per-node closed form.
    y = np.where(y_elem < 1.0, y_elem, 1.0)
    y = np.where(y_agg < y, y_agg, y)
    y = np.where(y > 0.0, y, 0.0)
    y = np.where(y < 1.0, y, 1.0)
    y[infeasible] = -1.0

    y_svc = y[seg]
    cur = out[row, svc]
    out[row, svc] = np.where(y_svc >= 0, np.maximum(cur, y_svc), cur)
    return out.reshape(P.shape)
