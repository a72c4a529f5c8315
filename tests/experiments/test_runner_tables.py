"""Integration tests: runner, Table 1 / Table 2 drivers, report rendering.

These use SMOKE-scale grids (8 hosts, 16 services) so the full pipeline
runs in seconds while still exercising every code path.
"""

import functools

import numpy as np
import pytest

from repro.experiments import (
    QUICK_GRID,
    SMOKE_GRID,
    GridSpec,
    format_table1,
    format_table2,
    run_grid,
    run_table1,
    run_table2,
)
from repro.experiments.runner import ALGORITHM_FACTORIES, make_algorithms
from repro.experiments.table1 import DEFAULT_TABLE1_ALGORITHMS
from repro.experiments.table2 import table2_from_results

FAST_ALGOS = ("METAGREEDY", "METAVP", "METAHVPLIGHT")

#: Grids for the path-independence check.  "counter-example" is the
#: QUICK_GRID instance where METAVP certified 0.46104 when seeded with
#: METAGREEDY's yield and 0.50089 alone: the META* oracle is not
#: monotone, so a hint from another algorithm can change the result.
PATH_GRIDS = {
    "counter-example": lambda: [
        c for c in QUICK_GRID.configs()
        if c.label() == "H16-J30-cov1-slack0.5" and c.instance_index == 3],
    "smoke": lambda: list(SMOKE_GRID.configs()),
}


def _yields(configs, algorithms, workers=1, batch=1):
    """``{(task position, algorithm): min_yield}`` of one grid run."""
    return {(i, r.algorithm): r.min_yield
            for i, task in enumerate(run_grid(configs, algorithms, workers,
                                              batch=batch))
            for r in task.results}


@functools.lru_cache(maxsize=None)
def _solo_yields(grid: str, algorithm: str) -> dict:
    return _yields(PATH_GRIDS[grid](), (algorithm,))


class TestGridSpec:
    def test_paper_grid_dimensions(self):
        from repro.experiments import PAPER_GRID
        assert PAPER_GRID.hosts == 64
        assert PAPER_GRID.services == (100, 250, 500)
        assert len(PAPER_GRID.cov_values) == 41  # 0 to 1 step 0.025
        assert len(PAPER_GRID.slack_values) == 9  # 0.1 to 0.9 step 0.1
        assert PAPER_GRID.instances == 100
        # 3 * 41 * 9 * 100 = 110,700 instances; 12,300 base per the paper
        # counting (cov, instance) pairs: 41 * 100 * 3 = 12,300.
        assert len(PAPER_GRID.cov_values) * PAPER_GRID.instances * 3 == 12300

    def test_configs_enumeration(self):
        grid = GridSpec(hosts=4, services=(8,), cov_values=(0.0, 0.5),
                        slack_values=(0.5,), instances=3)
        configs = list(grid.configs())
        assert len(configs) == 6
        assert {c.cov for c in configs} == {0.0, 0.5}

    def test_configs_filter_by_services(self):
        grid = GridSpec(services=(8, 16), cov_values=(0.0,),
                        slack_values=(0.5,), instances=1)
        assert len(list(grid.configs(services=8))) == 1


class TestRunner:
    def test_make_algorithms_validates(self):
        with pytest.raises(KeyError):
            make_algorithms(["NOPE"])
        algos = make_algorithms(["METAVP", "RRNZ"])
        assert [a.name for a in algos] == ["METAVP", "RRNZ"]

    def test_registry_covers_paper_algorithms(self):
        paper = {"RRND", "RRNZ", "METAGREEDY", "METAVP", "METAHVP",
                 "METAHVPLIGHT"}
        assert paper <= set(ALGORITHM_FACTORIES)
        # Extra baselines beyond the paper:
        assert {"RANDOM", "MILP"} <= set(ALGORITHM_FACTORIES)

    def test_run_grid_smoke(self):
        results = run_grid(SMOKE_GRID.configs(), FAST_ALGOS, workers=1)
        assert len(results) == 4  # 2 cov * 1 slack * 2 instances
        for task in results:
            assert {r.algorithm for r in task.results} == set(FAST_ALGOS)
            for r in task.results:
                assert r.seconds >= 0.0
                if r.min_yield is not None:
                    assert 0.0 <= r.min_yield <= 1.0

    def test_run_grid_deterministic(self):
        a = run_grid(SMOKE_GRID.configs(), ("METAGREEDY",), workers=1)
        b = run_grid(SMOKE_GRID.configs(), ("METAGREEDY",), workers=1)
        for ta, tb in zip(a, b):
            assert ta.by_algorithm()["METAGREEDY"].min_yield == \
                tb.by_algorithm()["METAGREEDY"].min_yield

    def test_parallel_matches_serial(self):
        serial = run_grid(SMOKE_GRID.configs(), ("METAGREEDY",), workers=1)
        parallel = run_grid(SMOKE_GRID.configs(), ("METAGREEDY",), workers=2)
        for ts, tp in zip(serial, parallel):
            assert ts.by_algorithm()["METAGREEDY"].min_yield == \
                tp.by_algorithm()["METAGREEDY"].min_yield


class TestPathIndependence:
    @pytest.mark.parametrize("grid, workers, batch", [
        ("counter-example", 1, 1),
        ("smoke", 1, 1),
        ("smoke", 1, 32),
        ("smoke", 2, 1),
        ("smoke", 2, 32),
    ])
    def test_yield_same_alone_and_in_full_list(self, grid, workers, batch):
        """Every algorithm's yield in the full Table 1 list equals its
        yield when it runs alone, at every batch size and worker count."""
        configs = PATH_GRIDS[grid]()
        full = _yields(configs, DEFAULT_TABLE1_ALGORITHMS, workers, batch)
        for algo in DEFAULT_TABLE1_ALGORITHMS:
            reference = _solo_yields(grid, algo)
            assert {k: v for k, v in full.items() if k[1] == algo} \
                == reference
            assert _yields(configs, (algo,), workers, batch) == reference
        if grid == "counter-example":
            assert full[(0, "METAVP")] == pytest.approx(0.500888, abs=1e-6)


class TestBaselineLp:
    def test_heuristics_stay_under_the_lp_bound(self):
        """The relaxation bounds the optimum (§3.2), so no Table 1
        heuristic's min yield may exceed it; an instance whose
        relaxation is infeasible has no solution at all."""
        from repro.core.exceptions import InfeasibleProblemError
        from repro.lp import solve_relaxation
        from repro.workloads import generate_instance
        checked = 0
        for task in run_grid(SMOKE_GRID.configs(), DEFAULT_TABLE1_ALGORITHMS,
                             workers=1, batch=4):
            try:
                bound = solve_relaxation(generate_instance(task.config)
                                         ).min_yield
            except InfeasibleProblemError:
                bound = None
            for r in task.results:
                if r.min_yield is None:
                    continue
                assert bound is not None, (task.config.label(), r.algorithm)
                assert r.min_yield <= bound + 1e-6, (
                    task.config.label(), r.algorithm, r.min_yield, bound)
                checked += 1
        assert checked >= len(DEFAULT_TABLE1_ALGORITHMS)

    def test_roundings_share_one_lp_and_each_pay_for_it(self, monkeypatch):
        """RRND and RRNZ on one instance cost one LP solve, and each
        one's ``seconds`` still includes that solve."""
        import time
        from repro.algorithms import rounding
        calls = []
        solve = rounding.solve_relaxation

        def slow_solve(instance):
            calls.append(instance)
            time.sleep(0.05)
            return solve(instance)

        monkeypatch.setattr(rounding, "solve_relaxation", slow_solve)
        configs = list(SMOKE_GRID.configs())
        results = run_grid(configs, ("RRND", "RRNZ"), workers=1)
        assert len(calls) == len(configs)
        for task in results:
            assert all(r.seconds >= 0.05 for r in task.results)
        # Sharing changes no draw: each result is the standalone call's.
        from repro.experiments.runner import _algo_stream_id
        from repro.util.rng import derive_seed
        from repro.workloads import generate_instance
        monkeypatch.undo()
        for task in results:
            instance = generate_instance(task.config)
            for r in task.results:
                rng = np.random.default_rng(derive_seed(
                    task.config.seed, task.config.instance_index,
                    _algo_stream_id(r.algorithm)))
                alone = ALGORITHM_FACTORIES[r.algorithm]()(instance, rng=rng)
                assert r.min_yield == (None if alone is None
                                       else alone.minimum_yield())

    def test_baseline_spans(self, tmp_path):
        """Traced runs show one ``lp.relax`` and one ``greedy.scan`` span
        per instance."""
        import json
        from repro import obs
        path = tmp_path / "trace.jsonl"
        configs = list(SMOKE_GRID.configs())
        obs.configure(str(path))
        try:
            run_grid(configs, ("RRND", "RRNZ", "METAGREEDY"), workers=1)
        finally:
            obs.disable()
        names = [json.loads(line)["name"]
                 for line in path.read_text().splitlines()]
        assert names.count("lp.relax") == len(configs)
        assert names.count("greedy.scan") == len(configs)


class TestTable1:
    def test_smoke_table1(self):
        data = run_table1(SMOKE_GRID, FAST_ALGOS, workers=1)
        assert data.algorithms == FAST_ALGOS
        assert set(data.matrices) == {16}
        matrix = data.matrices[16]
        assert len(matrix) == len(FAST_ALGOS) * (len(FAST_ALGOS) - 1)
        # METAHVPLIGHT's yield should be >= METAGREEDY's on common solves.
        cmp = matrix[("METAHVPLIGHT", "METAGREEDY")]
        if cmp.both_succeed:
            assert cmp.yield_gain_pct >= 0.0

    def test_format_table1_renders(self):
        data = run_table1(SMOKE_GRID, FAST_ALGOS, workers=1)
        text = format_table1(data)
        assert "16 services" in text
        for algo in FAST_ALGOS:
            assert algo in text


class TestTable2:
    def test_smoke_table2(self):
        data = run_table2(SMOKE_GRID, FAST_ALGOS, workers=1)
        means = data.mean_seconds[16]
        assert set(means) == set(FAST_ALGOS)
        assert all(v >= 0 for v in means.values())

    def test_table2_from_results_reuses_runs(self):
        results = run_grid(SMOKE_GRID.configs(), FAST_ALGOS, workers=1)
        data = table2_from_results({16: results}, FAST_ALGOS)
        assert set(data.mean_seconds[16]) == set(FAST_ALGOS)

    def test_format_table2_renders(self):
        data = run_table2(SMOKE_GRID, FAST_ALGOS, workers=1)
        text = format_table2(data)
        assert "16 tasks" in text
        assert "METAVP" in text
