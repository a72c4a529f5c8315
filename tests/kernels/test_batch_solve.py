"""Batched solving equivalence: ``solve_many`` ≡ sequential solves.

The acceptance contract of the batched path: for every backend and every
dimension count, ``MetaSolver.solve_many`` returns exactly what a loop
of ``solve_with_hint`` calls returns — placements, per-service yields,
certified yields, probe counts — with hints honored the same way.  The
fused probe scan must match the per-strategy scan of the numpy backend
probe by probe.  The numba leg skips cleanly when the extra isn't
installed.
"""

import numpy as np
import pytest

from repro import kernels
from repro.algorithms.vector_packing import (
    FusedProbeEngine,
    MetaSolver,
    ProbeContext,
    hvp_light_strategies,
    hvp_strategies,
)
from repro.algorithms.yield_search import binary_search_max_yield
from repro.core.instance import ProblemInstance
from repro.core.node import NodeArray
from repro.core.service import ServiceArray
from repro.kernels.batch import BatchInstances
from repro.workloads import ScenarioConfig, generate_instance

AVAILABILITY = kernels.available_backends()

DIMS = (1, 2, 3, 5)


def _backend_params():
    out = []
    for name in ("numpy", "native", "numba", "loops"):
        reason = AVAILABILITY.get(name)
        marks = (pytest.mark.skip(reason=reason),) if reason else ()
        out.append(pytest.param(name, marks=marks))
    return out


def synthetic_instance(D: int, J: int = 14, H: int = 5,
                       seed: int = 0) -> ProblemInstance:
    """A feasible-at-low-yield any-D instance with fluid needs."""
    rng = np.random.default_rng(seed + 97 * D)
    cap = rng.uniform(3.0, 6.0, size=(H, D))
    nodes = NodeArray.from_arrays(cap, cap)
    req = rng.uniform(0.05, 0.6, size=(J, D))
    need = rng.uniform(0.0, 1.2, size=(J, D))
    services = ServiceArray.from_arrays(req, req, need, need)
    return ProblemInstance(nodes, services)


def _solve_sequential(solver, instances, hints):
    allocs, stats = [], []
    for inst, hint in zip(instances, hints):
        st = {}
        allocs.append(solver.solve_with_hint(inst, hint=hint, stats=st))
        stats.append(st)
    return allocs, stats


def _assert_equivalent(batch, bstats, seq, sstats, context):
    for i, (a, b) in enumerate(zip(seq, batch)):
        where = (context, i)
        assert (a is None) == (b is None), where
        if a is not None:
            assert np.array_equal(a.placement, b.placement), where
            assert np.array_equal(a.yields, b.yields), where
        assert sstats[i].get("certified") == bstats[i].get("certified"), where
        assert sstats[i].get("probes") == bstats[i].get("probes"), where
        assert "seconds" in bstats[i], where


class TestBatchInstances:
    def test_ragged_padding_and_masks(self):
        insts = [synthetic_instance(3, J=j, H=h, seed=j)
                 for j, h in ((5, 2), (9, 4), (3, 3))]
        batch = BatchInstances.from_ragged(
            [(i.services.req_elem, i.services.req_agg,
              i.services.need_elem, i.services.need_agg) for i in insts],
            [(i.nodes.elementary, i.nodes.aggregate) for i in insts])
        assert batch.batch_size == 3
        assert batch.max_items == 9 and batch.max_bins == 4
        assert batch.dims == 3
        assert batch.n_items.tolist() == [5, 9, 3]
        assert batch.n_bins.tolist() == [2, 4, 3]
        for b, inst in enumerate(insts):
            j, h = len(inst.services), len(inst.nodes)
            assert np.array_equal(batch.req_agg[b, :j],
                                  inst.services.req_agg)
            assert (batch.req_agg[b, j:] == 0).all()
            assert np.array_equal(batch.cap_agg[b, :h],
                                  inst.nodes.aggregate)
            assert batch.item_mask()[b].sum() == j
            assert batch.bin_mask()[b].sum() == h

    def test_mixed_dims_rejected(self):
        a = synthetic_instance(2)
        b = synthetic_instance(3)
        with pytest.raises(ValueError, match="dimension count"):
            BatchInstances.from_ragged(
                [(i.services.req_elem, i.services.req_agg,
                  i.services.need_elem, i.services.need_agg)
                 for i in (a, b)],
                [(i.nodes.elementary, i.nodes.aggregate) for i in (a, b)])


@pytest.mark.parametrize("backend", _backend_params())
class TestSolveManyEquivalence:
    @pytest.mark.parametrize("dims", DIMS)
    def test_any_d_matches_sequential(self, backend, dims):
        instances = [synthetic_instance(dims, J=10 + 2 * k, H=4 + k % 2,
                                        seed=k) for k in range(4)]
        hints = [None, 0.4, None, 0.9]
        solver = MetaSolver(hvp_light_strategies())
        with kernels.kernel_backend(backend):
            seq, sstats = _solve_sequential(solver, instances, hints)
            bstats = [{} for _ in instances]
            batch = solver.solve_many(instances, hints=hints, stats=bstats,
                                      threads=1)
        _assert_equivalent(batch, bstats, seq, sstats, (backend, dims))

    def test_scenario_grid_instances(self, backend):
        """The paper's 2-D instances, full METAHVP strategy list."""
        instances = [generate_instance(ScenarioConfig(
            hosts=6, services=16, cov=0.5, slack=s, seed=5))
            for s in (0.3, 0.6)]
        solver = MetaSolver(hvp_strategies()[::7])
        with kernels.kernel_backend(backend):
            seq, sstats = _solve_sequential(solver, instances,
                                            [None] * len(instances))
            bstats = [{} for _ in instances]
            batch = solver.solve_many(instances, stats=bstats, threads=1)
        _assert_equivalent(batch, bstats, seq, sstats, backend)

    def test_matches_numpy_reference(self, backend):
        """Cross-backend: batched results equal the numpy sequential run."""
        instances = [synthetic_instance(d, J=12, H=4, seed=d)
                     for d in DIMS[1:]]
        solver = MetaSolver(hvp_light_strategies())
        with kernels.kernel_backend("numpy"):
            ref, rstats = _solve_sequential(solver, instances,
                                            [None] * len(instances))
        with kernels.kernel_backend(backend):
            bstats = [{} for _ in instances]
            got = solver.solve_many(instances, stats=bstats, threads=1)
        _assert_equivalent(got, bstats, ref, rstats, backend)

    @pytest.mark.parametrize("hint", (None, 0.5))
    def test_solve_with_hint_is_one_instance_batch(self, backend, hint):
        inst = synthetic_instance(2, J=12, H=4, seed=3)
        solver = MetaSolver(hvp_light_strategies())
        with kernels.kernel_backend(backend):
            one_stats: dict = {}
            one = solver.solve_with_hint(inst, hint=hint, stats=one_stats)
            many_stats = [{}]
            many = solver.solve_many([inst], hints=[hint],
                                     stats=many_stats)[0]
        assert one is not None and many is not None
        assert np.array_equal(one.placement, many.placement)
        assert np.array_equal(one.yields, many.yields)
        for key in ("probes", "certified", "hint_used"):
            assert one_stats[key] == many_stats[0][key], key
        assert one_stats["hint_used"] == (hint is not None)

    def test_thread_pool_preserves_order(self, backend):
        instances = [synthetic_instance(2, J=8 + k, H=3, seed=k)
                     for k in range(6)]
        solver = MetaSolver(hvp_light_strategies())
        with kernels.kernel_backend(backend):
            one = solver.solve_many(instances, threads=1)
            many = solver.solve_many(instances, threads=4)
        for a, b in zip(one, many):
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(a.placement, b.placement)
                assert np.array_equal(a.yields, b.yields)


@pytest.mark.parametrize("backend", _backend_params())
class TestFusedEngine:
    def test_supported_tracks_backend(self, backend):
        inst = synthetic_instance(2)
        with kernels.kernel_backend(backend):
            engine = FusedProbeEngine(inst, hvp_light_strategies())
            assert engine.supported == \
                kernels.get_backend().supports_probe_scan

    def test_counters_match_per_strategy_engine(self, backend):
        """The fused scan answers each probe like the numpy backend's
        per-strategy scan: placement, hint, probes and strategy_runs."""
        inst = synthetic_instance(3, J=12, H=4, seed=2)
        strategies = hvp_light_strategies()
        with kernels.kernel_backend("numpy"):
            plain = FusedProbeEngine(inst, strategies)
        assert not plain.supported
        with kernels.kernel_backend(backend):
            fused = FusedProbeEngine(inst, strategies)
        if not fused.supported:
            pytest.skip("backend has no fused probe scan")
        for y in (0.0, 0.3, 0.7, 0.3, 1.4):
            with kernels.kernel_backend(backend):
                a = fused(inst, y)
            with kernels.kernel_backend("numpy"):
                b = plain(inst, y)
            assert (a is None) == (b is None), y
            if a is not None:
                assert np.array_equal(a, b), y
            assert fused.hint == plain.hint, y
            assert fused.probes == plain.probes, y
            assert fused.strategy_runs == plain.strategy_runs, y

    @pytest.mark.parametrize("dims", (2, 3))
    def test_pruned_scan_matches_each_strategy(self, backend, dims):
        """The fused scan cuts a First-Fit or 2-D Permutation-Pack fill
        once the pending demand exceeds the room left in unvisited bins.  For
        every strategy and yield up to the capacity bound, it still packs
        exactly when the unpruned packer does, with the same placement."""
        inst = synthetic_instance(dims, J=14, H=4, seed=5)
        hi = inst.yield_upper_bound()
        for strategy in hvp_strategies()[::5]:
            with kernels.kernel_backend(backend):
                engine = FusedProbeEngine(inst, (strategy,))
            if not engine.supported:
                pytest.skip("backend has no fused probe scan")
            for y in (0.0, 0.5 * hi, 0.8 * hi, 0.9 * hi, 0.97 * hi, hi):
                with kernels.kernel_backend(backend):
                    a = engine(inst, y)
                with kernels.kernel_backend("numpy"):
                    b = ProbeContext(inst, y).run(strategy)
                assert (a is None) == (b is None), (strategy.name, y)
                if a is not None:
                    assert np.array_equal(a, b), (strategy.name, y)


def _kernel_namespaces():
    from repro.kernels import _loops
    out = [pytest.param(lambda: _loops, id="loops")]
    reason = AVAILABILITY.get("native")
    marks = (pytest.mark.skip(reason=reason),) if reason else ()

    def native():
        from repro.kernels.native_backend import load_native_kernels
        return load_native_kernels()
    out.append(pytest.param(native, id="native", marks=marks))
    return out


@pytest.mark.parametrize("load", _kernel_namespaces())
def test_prune_cuts_a_doomed_fill(load):
    """Three (6, 6) items, two (10, 10) bins: the first bin takes one
    item and wastes 4, leaving 10 of room for 12 of demand.  The plain
    fill places one more item (1 unplaced); the pruned fill stops before
    the second bin (2 unplaced)."""
    k = load()
    item_agg = np.full((3, 2), 6.0)
    elem_ok = np.ones((3, 2), dtype=np.bool_)
    order = np.arange(3, dtype=np.int64)
    bins = np.arange(2, dtype=np.int64)
    cap = np.full((2, 2), 10.0)
    for prune, unplaced in ((False, 1), (True, 2)):
        def fresh():
            return (np.zeros((2, 2)), np.zeros(2),
                    np.full(3, -1, dtype=np.int64))
        loads, load_sum, assignment = fresh()
        assert k.ff_fill(item_agg, elem_ok, order, bins, loads, load_sum,
                         cap, assignment, prune) == unplaced
        loads, load_sum, assignment = fresh()
        assert k.pp_fill_2d(item_agg, elem_ok, order, order, bins, loads,
                            load_sum, cap, cap, False, assignment,
                            prune) == unplaced


class TestSolveManyEdgeCases:
    def test_empty_batch(self):
        assert MetaSolver(hvp_light_strategies()).solve_many([]) == []

    def test_length_mismatches_rejected(self):
        solver = MetaSolver(hvp_light_strategies())
        inst = synthetic_instance(2)
        with pytest.raises(ValueError, match="hints"):
            solver.solve_many([inst], hints=[None, 0.5])
        with pytest.raises(ValueError, match="stats"):
            solver.solve_many([inst], stats=[{}, {}])

    def test_mixed_dims_batch_falls_back(self):
        """A batch spanning D values still solves (no shared thresholds)."""
        instances = [synthetic_instance(2, seed=1),
                     synthetic_instance(3, seed=1)]
        solver = MetaSolver(hvp_light_strategies())
        seq, sstats = _solve_sequential(solver, instances, [None, None])
        bstats = [{}, {}]
        batch = solver.solve_many(instances, stats=bstats, threads=1)
        _assert_equivalent(batch, bstats, seq, sstats, "mixed-dims")

    def test_matches_in_order_reference(self):
        """Batched certified yields equal those of a reference oracle with
        a fresh ProbeContext per probe and strategies in list order."""
        instances = [generate_instance(ScenarioConfig(
            hosts=5, services=12, slack=0.5, seed=8, instance_index=i))
            for i in range(2)]
        strategies = hvp_light_strategies()

        def in_order(instance, y):
            ctx = ProbeContext(instance, y)
            for strategy in strategies:
                placement = ctx.run(strategy)
                if placement is not None:
                    return placement
            return None

        ref = [binary_search_max_yield(inst, in_order)
               for inst in instances]
        got = MetaSolver(strategies).solve_many(instances, threads=1)
        for a, b in zip(ref, got):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.minimum_yield() == b.minimum_yield()
