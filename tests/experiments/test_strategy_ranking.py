"""Tests for the §5.1 strategy-ranking exploration."""

import pytest

from repro.experiments.strategy_ranking import (
    format_ranking,
    light_set_audit,
    rank_strategies,
)
from repro.algorithms.vector_packing import hvp_strategies
from repro.workloads import ScenarioConfig


@pytest.fixture(scope="module")
def ranking():
    configs = [
        ScenarioConfig(hosts=6, services=15, cov=cov, slack=0.5,
                       seed=31, instance_index=0)
        for cov in (0.25, 0.75)
    ]
    return rank_strategies(configs, workers=1)


class TestRanking:
    def test_covers_all_253_strategies(self, ranking):
        assert len(ranking.stats) == 253
        names = {s.strategy.name for s in ranking.stats}
        assert names == {s.name for s in hvp_strategies()}

    def test_sorted_by_success_then_yield(self, ranking):
        keys = [s.sort_key() for s in ranking.stats]
        assert keys == sorted(keys, reverse=True)

    def test_stats_are_consistent(self, ranking):
        for s in ranking.stats:
            assert 0 <= s.successes <= s.attempts == 2
            assert 0.0 <= s.average_yield <= 1.0
            if s.successes == 0:
                assert s.average_yield == 0.0

    def test_counts_partition_top50(self, ranking):
        packers = ranking.packer_counts(50)
        assert sum(packers.values()) == 50
        items = ranking.item_sort_counts(50)
        assert sum(items.values()) == 50

    def test_light_audit_bounds(self, ranking):
        hits, n = light_set_audit(ranking, top_n=50)
        assert 0 <= hits <= n == 50

    def test_descending_item_sorts_dominate_top(self, ranking):
        """§5.1 observation 2: high performers sort items descending."""
        top = ranking.top(30)
        descending = sum(1 for s in top
                         if s.strategy.item_sort.name.startswith("DESC"))
        assert descending >= len(top) // 2

    def test_format_renders(self, ranking):
        text = format_ranking(ranking, top_n=10)
        assert "Top 10 of 253" in text
        assert "LIGHT members" in text


class TestDeterminism:
    @pytest.fixture(scope="class")
    def configs(self):
        return [
            ScenarioConfig(hosts=6, services=15, cov=cov, slack=0.5,
                           seed=31, instance_index=i)
            for cov in (0.25, 0.75)
            for i in range(2)
        ]

    def test_ranking_is_deterministic(self, configs):
        first, again = (rank_strategies(configs, workers=1)
                        for _ in range(2))
        assert [(s.strategy.name, s.successes, s.average_yield)
                for s in first.stats] == \
            [(s.strategy.name, s.successes, s.average_yield)
             for s in again.stats]


def test_fingerprint_stable_across_engine_field_removal():
    """Cold-ranking checkpoints written while the fingerprint still
    hashed engine and warm-start fields must keep resuming; the value
    comes from that code."""
    from repro.experiments.strategy_ranking import _configs_fingerprint
    configs = [ScenarioConfig(hosts=8, services=20, cov=cov, slack=0.5,
                              seed=2012, instance_index=0)
               for cov in (0.25, 0.75)]
    assert _configs_fingerprint(configs) == "b81fb3ffbe6c"
