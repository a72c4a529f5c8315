"""Randomized rounding of the relaxed LP solution: RRND and RRNZ (§3.3).

Both algorithms solve the rational relaxation of Eqs. 1-7 and use the
fractional placement matrix ``e`` as a per-service probability table:

* **RRND** draws each service's node from its fractional row.  If the
  service's requirements do not fit the drawn node (given what has already
  been placed), that node's probability is zeroed, the row renormalized
  and another draw made; the algorithm fails when a row runs out of
  support.  Services whose fractional support is entirely infeasible make
  RRND fail often — the paper measures an "extremely low success rate".
* **RRNZ** first raises every zero entry to ``ε = 0.01``, giving each
  service support on every node that could possibly hold its requirements,
  trading a small amount of solution quality for far fewer failures.

After placement, yields are assigned per node with the closed-form max-min
computation, exactly as for the greedy family.

Both draw from the same relaxation, so the experiment runner solves it
once per instance (:func:`relax`) and hands it to each algorithm's
``from_relaxation``; called on its own, each algorithm solves it itself.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.allocation import Allocation
from ..core.exceptions import InfeasibleProblemError, SolverError
from ..core.instance import ProblemInstance
from ..core.resources import STRICT_FIT_ATOL
from ..lp.relaxation import placement_probabilities
from ..lp.solver import LpSolution, solve_relaxation
from ..util.rng import as_generator
from .base import NamedAlgorithm

__all__ = ["rrnd", "rrnz", "relax", "round_probabilities", "DEFAULT_EPSILON"]

DEFAULT_EPSILON = 0.01


def round_probabilities(instance: ProblemInstance, probs: np.ndarray,
                        rng: np.random.Generator) -> Optional[np.ndarray]:
    """Draw a placement from per-service probability rows with retry.

    Feasibility during rounding considers rigid requirements only (the
    yield distribution happens after placement).  Returns the placement
    array or ``None`` when some service exhausts its support.
    """
    sv, nd = instance.services, instance.nodes
    H = instance.num_nodes
    elem_ok = (sv.req_elem[:, None, :] <= nd.elementary[None, :, :] + STRICT_FIT_ATOL
               ).all(axis=2)
    loads = np.zeros_like(nd.aggregate)
    placement = np.full(instance.num_services, -1, dtype=np.int64)
    for j in range(instance.num_services):
        p = np.clip(probs[j].astype(np.float64, copy=True), 0.0, None)
        while True:
            total = p.sum()
            if total <= 0.0:
                return None
            h = int(rng.choice(H, p=p / total))
            fits = elem_ok[j, h] and bool(
                (loads[h] + sv.req_agg[j] <= nd.aggregate[h] + STRICT_FIT_ATOL).all())
            if fits:
                loads[h] += sv.req_agg[j]
                placement[j] = h
                break
            p[h] = 0.0  # adjust probabilities and try again
    return placement


def relax(instance: ProblemInstance) -> Optional[LpSolution]:
    """The instance's LP relaxation, or ``None`` when it is infeasible or
    the solver fails (both roundings then fail)."""
    try:
        return solve_relaxation(instance)
    except (InfeasibleProblemError, SolverError):
        return None


class _Rounding:
    """RRND/RRNZ's solve: the relaxation, then one seeded draw from it.

    :meth:`from_relaxation` is the draw alone, so a caller running both
    roundings on one instance can solve the LP once and share it.
    """

    def __init__(self, epsilon: float):
        self.epsilon = epsilon

    def __call__(self, instance: ProblemInstance,
                 rng: np.random.Generator | None = None) -> Optional[Allocation]:
        return self.from_relaxation(instance, relax(instance), rng)

    def from_relaxation(self, instance: ProblemInstance,
                        relaxed: Optional[LpSolution],
                        rng: np.random.Generator | None = None
                        ) -> Optional[Allocation]:
        if relaxed is None:
            return None
        probs = placement_probabilities(relaxed, epsilon=self.epsilon)
        placement = round_probabilities(instance, probs, as_generator(rng))
        if placement is None:
            return None
        return Allocation.uniform(instance, placement, 0.0).improve_yields()


def _rounding_algorithm(name: str, epsilon: float) -> NamedAlgorithm:
    return NamedAlgorithm(name, _Rounding(epsilon), stochastic=True)


def rrnd() -> NamedAlgorithm:
    """Randomized Rounding (RRND, §3.3.1)."""
    return _rounding_algorithm("RRND", epsilon=0.0)


def rrnz(epsilon: float = DEFAULT_EPSILON) -> NamedAlgorithm:
    """Randomized Rounding with No Zero probabilities (RRNZ, §3.3.2)."""
    return _rounding_algorithm("RRNZ", epsilon=epsilon)
