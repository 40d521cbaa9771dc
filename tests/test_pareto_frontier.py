"""Unit tests for repro.pareto.frontier."""

import pytest

from repro.pareto.dominance import dominates
from repro.pareto.frontier import ParetoFrontier, pareto_filter


class TestParetoFrontierExact:
    def test_insert_non_dominated(self):
        frontier = ParetoFrontier()
        assert frontier.insert((1.0, 5.0))
        assert frontier.insert((5.0, 1.0))
        assert len(frontier) == 2

    def test_dominated_insert_rejected(self):
        frontier = ParetoFrontier()
        frontier.insert((1.0, 1.0))
        assert not frontier.insert((2.0, 2.0))
        assert len(frontier) == 1

    def test_insert_evicts_dominated(self):
        frontier = ParetoFrontier()
        frontier.insert((2.0, 2.0))
        frontier.insert((3.0, 1.0))
        assert frontier.insert((1.0, 1.0))
        assert frontier.items() == [(1.0, 1.0)]

    def test_duplicate_cost_rejected(self):
        frontier = ParetoFrontier()
        frontier.insert((1.0, 2.0))
        assert not frontier.insert((1.0, 2.0))
        assert len(frontier) == 1

    def test_insert_all_counts(self):
        frontier = ParetoFrontier()
        kept = frontier.insert_all([(1.0, 5.0), (5.0, 1.0), (6.0, 6.0)])
        assert kept == 2

    def test_clear_and_bool(self):
        frontier = ParetoFrontier()
        assert not frontier
        frontier.insert((1.0,))
        assert frontier
        frontier.clear()
        assert len(frontier) == 0

    def test_iteration(self):
        frontier = ParetoFrontier()
        frontier.insert((1.0, 5.0))
        frontier.insert((5.0, 1.0))
        assert sorted(frontier) == [(1.0, 5.0), (5.0, 1.0)]

    def test_mutual_non_domination_invariant(self, rng):
        frontier = ParetoFrontier()
        for _ in range(300):
            frontier.insert((rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 10)))
        items = frontier.items()
        for first in items:
            for second in items:
                if first is second:
                    continue
                assert not (dominates(first, second) and first != second)


class TestParetoFrontierApproximate:
    def test_alpha_coarsens_insertion(self):
        frontier = ParetoFrontier(alpha=2.0)
        frontier.insert((1.0, 1.0))
        # Within factor two of the existing point → rejected.
        assert not frontier.insert((1.5, 1.9))
        # Outside factor two in one metric → kept.
        assert frontier.insert((0.4, 3.0))

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError):
            ParetoFrontier(alpha=0.5)

    def test_custom_cost_extractor(self, chain_model):
        frontier = ParetoFrontier(cost_of=lambda plan: plan.cost)
        for op in chain_model.scan_operators(1):
            frontier.insert(chain_model.make_scan(1, op))
        assert len(frontier) >= 1
        assert all(hasattr(item, "cost") for item in frontier.items())


class TestParetoFilter:
    def test_filter_keeps_non_dominated(self):
        points = [(1.0, 5.0), (5.0, 1.0), (3.0, 3.0), (6.0, 6.0)]
        result = pareto_filter(points)
        assert (6.0, 6.0) not in result
        assert set(result) == {(1.0, 5.0), (5.0, 1.0), (3.0, 3.0)}

    def test_filter_collapses_duplicates(self):
        assert pareto_filter([(1.0, 1.0), (1.0, 1.0)]) == [(1.0, 1.0)]

    def test_filter_empty(self):
        assert pareto_filter([]) == []

    def test_filter_with_alpha(self):
        points = [(1.0, 1.0), (1.5, 1.5), (10.0, 0.5)]
        result = pareto_filter(points, alpha=2.0)
        assert (1.5, 1.5) not in result
