"""Tests for the greedy family (S1-S7 × P1-P7) and METAGREEDY."""

import numpy as np
import pytest

from repro.algorithms.greedy import (
    NODE_PICKERS,
    SERVICE_SORTS,
    VARIANTS,
    all_greedy_algorithms,
    greedy_algorithm,
    greedy_scan,
    metagreedy,
)
from repro.core import Allocation, Node, ProblemInstance, Service
from repro.core.node import NodeArray
from repro.core.resources import STRICT_FIT_ATOL
from repro.core.service import ServiceArray


# ----------------------------------------------------------------------
# Reference: one variant at a time, one candidate list per service, a
# picker function per P.  This is the placement loop the lock-step scan
# replaced; the scan must reproduce it exactly.
# ----------------------------------------------------------------------

def _pick_p1(cands, loads, inst, j):
    remaining = inst.nodes.aggregate[cands] - loads[cands]
    dim = int(np.argmax(inst.services.need_agg[j]))
    return cands[int(np.argmax(remaining[:, dim]))]


def _pick_p2(cands, loads, inst, j):
    after = loads[cands].sum(axis=1) + inst.services.req_agg[j].sum()
    ratio = after / inst.nodes.aggregate[cands].sum(axis=1)
    return cands[int(np.argmin(ratio))]


def _pick_p3(cands, loads, inst, j):
    remaining = inst.nodes.aggregate[cands] - loads[cands]
    dim = int(np.argmax(inst.services.req_agg[j]))
    return cands[int(np.argmin(remaining[:, dim]))]


def _pick_p4(cands, loads, inst, j):
    remaining = (inst.nodes.aggregate[cands] - loads[cands]).sum(axis=1)
    return cands[int(np.argmin(remaining))]


def _pick_p5(cands, loads, inst, j):
    remaining = inst.nodes.aggregate[cands] - loads[cands]
    dim = int(np.argmax(inst.services.req_agg[j]))
    return cands[int(np.argmax(remaining[:, dim]))]


def _pick_p6(cands, loads, inst, j):
    remaining = (inst.nodes.aggregate[cands] - loads[cands]).sum(axis=1)
    return cands[int(np.argmax(remaining))]


def _pick_p7(cands, loads, inst, j):
    return cands[0]


REFERENCE_PICKERS = {
    "P1": _pick_p1, "P2": _pick_p2, "P3": _pick_p3, "P4": _pick_p4,
    "P5": _pick_p5, "P6": _pick_p6, "P7": _pick_p7,
}


def reference_place(inst, sort_name, pick_name):
    sv, nd = inst.services, inst.nodes
    pick = REFERENCE_PICKERS[pick_name]
    elem_ok = (sv.req_elem[:, None, :]
               <= nd.elementary[None, :, :] + STRICT_FIT_ATOL).all(axis=2)
    loads = np.zeros_like(nd.aggregate)
    placement = np.full(inst.num_services, -1, dtype=np.int64)
    for j in SERVICE_SORTS[sort_name](inst):
        j = int(j)
        fits = elem_ok[j] & (
            loads + sv.req_agg[j] <= nd.aggregate + STRICT_FIT_ATOL).all(axis=1)
        cands = np.flatnonzero(fits)
        if cands.size == 0:
            return None
        h = int(pick(cands, loads, inst, j))
        loads[h] += sv.req_agg[j]
        placement[j] = h
    return placement


def reference_metagreedy(inst):
    """The member loop: every variant in S x P order, first best kept."""
    best, best_yield = None, -1.0
    for s, p in VARIANTS:
        placement = reference_place(inst, s, p)
        if placement is None:
            continue
        alloc = Allocation.uniform(inst, placement, 0.0).improve_yields()
        if alloc.minimum_yield() > best_yield:
            best, best_yield = alloc, alloc.minimum_yield()
    return best


def make_instance(seed=0, hosts=4, services=10):
    rng = np.random.default_rng(seed)
    nodes = [Node.multicore(4, rng.uniform(0.05, 0.3), rng.uniform(0.3, 1.0))
             for _ in range(hosts)]
    svcs = []
    for _ in range(services):
        mem = rng.uniform(0.02, 0.15)
        svcs.append(Service.from_vectors(
            [0.01, mem], [rng.uniform(0.02, 0.08), mem],
            [0.02, 0.0], [rng.uniform(0.05, 0.3), 0.0]))
    return ProblemInstance(nodes, svcs)


class TestServiceSorts:
    def test_counts(self):
        assert len(SERVICE_SORTS) == 7
        assert len(NODE_PICKERS) == 7

    def test_s1_is_natural_order(self):
        inst = make_instance()
        np.testing.assert_array_equal(SERVICE_SORTS["S1"](inst),
                                      np.arange(10))

    def test_s2_descending_max_need(self):
        inst = make_instance()
        order = SERVICE_SORTS["S2"](inst)
        keys = inst.services.need_agg.max(axis=1)[order]
        assert (np.diff(keys) <= 1e-12).all()

    def test_s5_descending_sum_requirements(self):
        inst = make_instance()
        order = SERVICE_SORTS["S5"](inst)
        keys = inst.services.req_agg.sum(axis=1)[order]
        assert (np.diff(keys) <= 1e-12).all()

    def test_s7_descending_req_plus_need(self):
        inst = make_instance()
        order = SERVICE_SORTS["S7"](inst)
        keys = (inst.services.req_agg.sum(axis=1)
                + inst.services.need_agg.sum(axis=1))[order]
        assert (np.diff(keys) <= 1e-12).all()

    def test_all_orders_are_permutations(self):
        inst = make_instance()
        for fn in SERVICE_SORTS.values():
            assert sorted(fn(inst).tolist()) == list(range(10))


class TestGreedyAlgorithms:
    def test_49_distinct_algorithms(self):
        algos = all_greedy_algorithms()
        assert len(algos) == 49
        assert len({a.name for a in algos}) == 49

    @pytest.mark.parametrize("sort_name", list(SERVICE_SORTS))
    @pytest.mark.parametrize("pick_name", list(NODE_PICKERS))
    def test_every_combination_produces_valid_allocation(self, sort_name,
                                                         pick_name):
        inst = make_instance()
        alloc = greedy_algorithm(sort_name, pick_name)(inst)
        assert alloc is not None
        alloc.validate()
        assert alloc.minimum_yield() >= 0.0

    def test_p7_is_first_fit(self):
        # With all nodes identical and P7, the first node fills first.
        nodes = [Node.multicore(2, 0.5, 1.0)] * 3
        svc = Service.from_vectors([0.1, 0.1], [0.3, 0.1],
                                   [0.0, 0.0], [0.0, 0.0])
        inst = ProblemInstance(nodes, [svc] * 3)
        alloc = greedy_algorithm("S1", "P7")(inst)
        assert alloc.placement.tolist() == [0, 0, 0]

    def test_p6_spreads_load(self):
        # Worst fit by total availability alternates across equal nodes.
        nodes = [Node.multicore(2, 0.5, 1.0)] * 2
        svc = Service.from_vectors([0.1, 0.1], [0.3, 0.1],
                                   [0.0, 0.0], [0.0, 0.0])
        inst = ProblemInstance(nodes, [svc] * 2)
        alloc = greedy_algorithm("S1", "P6")(inst)
        assert sorted(alloc.placement.tolist()) == [0, 1]

    def test_failure_when_requirements_cannot_fit(self):
        nodes = [Node.multicore(1, 0.5, 0.2)]
        svc = Service.from_vectors([0.1, 0.15], [0.1, 0.15],
                                   [0.0, 0.0], [0.0, 0.0])
        inst = ProblemInstance(nodes, [svc] * 2)  # memory 0.3 > 0.2
        assert greedy_algorithm("S1", "P7")(inst) is None


class TestMetagreedy:
    def test_solves_and_validates(self):
        inst = make_instance()
        alloc = metagreedy()(inst)
        assert alloc is not None
        alloc.validate()

    def test_at_least_as_good_as_every_member(self):
        inst = make_instance(seed=3)
        meta_alloc = metagreedy()(inst)
        for algo in all_greedy_algorithms()[::7]:  # sample one per sort
            alloc = algo(inst)
            if alloc is not None:
                assert (meta_alloc.minimum_yield()
                        >= alloc.minimum_yield() - 1e-12)

    def test_fails_only_when_all_fail(self):
        nodes = [Node.multicore(1, 0.5, 0.2)]
        svc = Service.from_vectors([0.1, 0.15], [0.1, 0.15],
                                   [0.0, 0.0], [0.0, 0.0])
        inst = ProblemInstance(nodes, [svc] * 2)
        assert metagreedy()(inst) is None

    def test_name(self):
        assert metagreedy().name == "METAGREEDY"


def seeded_instance(seed, D, hosts, services, cov, load):
    """Heterogeneous nodes; *cov* 0 makes every node and service alike
    (score ties everywhere); *load* near or above 1 makes some variants
    fail while others succeed."""
    rng = np.random.default_rng(seed)

    def spread(mean, shape):
        if cov == 0:
            return np.full(shape, mean)
        return mean * rng.gamma(1 / cov**2, cov**2, shape)

    elem = spread(0.5, (hosts, D))
    agg = elem * (2 if cov == 0 else rng.integers(1, 5, (hosts, 1)))
    req_elem = spread(0.08, (services, D))
    need_elem = spread(0.1, (services, D))
    req_agg = req_elem * (2 if cov == 0 else rng.integers(1, 3, (services, 1)))
    need_agg = need_elem * 2
    req_elem = np.minimum(req_elem, elem.min(axis=0))
    req_agg *= load * agg.sum(axis=0) / req_agg.sum(axis=0)
    return ProblemInstance(NodeArray.from_arrays(elem, agg),
                           ServiceArray.from_arrays(req_elem, req_agg,
                                                    need_elem, need_agg))


SCAN_CASES = [
    dict(seed=seed, D=D, hosts=h, services=j, cov=cov, load=load)
    for seed, D, h, j, cov, load in [
        # D = 1: cov 0 (all ties), then some variants failing.
        (0, 1, 4, 30, 0.0, 0.7), (1, 1, 6, 40, 1.0, 0.9),
        (2, 1, 3, 20, 0.5, 0.96),
        # D = 2
        (3, 2, 8, 40, 0.0, 0.8), (2, 2, 8, 50, 0.5, 0.7),
        (2, 2, 5, 30, 1.0, 0.85), (2, 2, 16, 60, 1.0, 0.75),
        # D = 3
        (7, 3, 6, 30, 0.0, 0.9), (1, 3, 8, 40, 0.5, 0.7),
        (2, 3, 10, 50, 1.0, 0.6),
        # Every variant fails.
        (10, 2, 4, 20, 0.0, 1.1), (1, 3, 8, 40, 0.5, 0.9),
    ]
]

CASE_ID = "D{D}-H{hosts}-J{services}-cov{cov}-load{load}".format_map


class TestLockStepScan:
    """The scan is the reference loop, variant for variant, bit for bit."""

    @pytest.mark.parametrize("case", SCAN_CASES, ids=CASE_ID)
    def test_all_49_variants_match_reference(self, case):
        inst = seeded_instance(**case)
        placements, ok = greedy_scan(inst, VARIANTS)
        for v, (s, p) in enumerate(VARIANTS):
            want = reference_place(inst, s, p)
            assert ok[v] == (want is not None), (s, p)
            if want is not None:
                assert placements[v].tolist() == want.tolist(), (s, p)

    def test_cases_include_ties_and_partial_failures(self):
        outcomes = {D: set() for D in (1, 2, 3)}
        for case in SCAN_CASES:
            _, ok = greedy_scan(seeded_instance(**case), VARIANTS)
            outcomes[case["D"]].add(
                "all" if ok.all() else "none" if not ok.any() else "some")
        assert all({"all", "some"} <= seen for seen in outcomes.values())
        assert "none" in outcomes[2] | outcomes[3]
        # cov 0: every node scores alike until loaded, so ties decide.
        inst = seeded_instance(**SCAN_CASES[0])
        assert len(np.unique(inst.nodes.aggregate, axis=0)) == 1

    @pytest.mark.parametrize("case", SCAN_CASES[::3], ids=CASE_ID)
    def test_single_variant_scan_matches_table_row(self, case):
        inst = seeded_instance(**case)
        table, ok = greedy_scan(inst, VARIANTS)
        for v, variant in enumerate(VARIANTS):
            row, row_ok = greedy_scan(inst, (variant,))
            assert row_ok[0] == ok[v]
            if ok[v]:
                assert row[0].tolist() == table[v].tolist()

    @pytest.mark.parametrize("caps, req", [
        # 0/0 = NaN ratio on the empty nodes: argmin picks the first NaN.
        ([(0.5, 0.1), (0.0, 0.0), (0.0, 0.0)], 0.0),
        # Node 0 fails the elementary fit; the others overflow to a +inf
        # ratio, so every fitting node ties at -inf in the masked argmax.
        ([(0.1, 1.0), (1.0, 5e-324), (1.0, 5e-324)], 1e-12),
    ])
    def test_degenerate_ratio_scores(self, caps, req):
        nodes = NodeArray.from_arrays(np.array([[e] for e, _ in caps]),
                                      np.array([[a] for _, a in caps]))
        services = ServiceArray.from_arrays(
            np.array([[0.0], [0.5 if req else 0.0]]),
            np.array([[0.1 if not req else 0.0], [req]]),
            np.zeros((2, 1)), np.zeros((2, 1)))
        inst = ProblemInstance(nodes, services)
        for p in NODE_PICKERS:
            placements, ok = greedy_scan(inst, (("S1", p),))
            with np.errstate(all="ignore"):
                want = reference_place(inst, "S1", p)
            assert ok[0]
            assert placements[0].tolist() == want.tolist(), p


class TestMetagreedyEquivalence:
    @pytest.mark.parametrize("case", SCAN_CASES, ids=CASE_ID)
    def test_matches_reference_member_loop(self, case):
        inst = seeded_instance(**case)
        got = metagreedy()(inst)
        want = reference_metagreedy(inst)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.placement.tolist() == want.placement.tolist()
            assert got.yields.tobytes() == want.yields.tobytes()

    def test_first_best_variant_wins_ties(self):
        # Identical nodes and services: many variants reach the best
        # yield with different placements; the first in S x P order wins.
        inst = seeded_instance(**SCAN_CASES[3])
        placements, ok = greedy_scan(inst, VARIANTS)
        assert len(np.unique(placements[ok], axis=0)) > 1
        assert metagreedy()(inst).placement.tolist() == \
            reference_metagreedy(inst).placement.tolist()
