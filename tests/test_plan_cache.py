"""Unit tests of the plan cache's pruning (Algorithm 3) on the object oracle."""

import pytest

from oracle.plan_cache import PlanCache
from repro.pareto.dominance import approx_dominates, strictly_dominates


@pytest.fixture
def cache():
    return PlanCache()


@pytest.fixture
def scan_variants(chain_model):
    return [chain_model.make_scan(0, op) for op in chain_model.scan_operators(0)]


class TestBasicOperations:
    def test_empty_cache(self, cache):
        assert len(cache) == 0
        assert cache.total_plans == 0
        assert cache.plans(frozenset({0})) == []
        assert frozenset({0}) not in cache

    def test_insert_and_retrieve(self, cache, chain_model):
        scan = chain_model.default_scan(0)
        assert cache.insert(scan)
        assert cache.plans({0}) == [scan]
        assert frozenset({0}) in cache
        assert cache.size_of({0}) == 1

    def test_plans_keyed_by_rel(self, cache, chain_model):
        scan0 = chain_model.default_scan(0)
        scan1 = chain_model.default_scan(1)
        cache.insert(scan0)
        cache.insert(scan1)
        assert cache.plans({0}) == [scan0]
        assert cache.plans({1}) == [scan1]
        assert len(cache) == 2
        assert set(cache.table_sets()) == {frozenset({0}), frozenset({1})}

    def test_clear(self, cache, chain_model):
        cache.insert(chain_model.default_scan(0))
        cache.clear()
        assert len(cache) == 0

    def test_contains_non_set_object(self, cache):
        assert "not a set" not in cache

    def test_invalid_alpha_rejected(self, cache, chain_model):
        with pytest.raises(ValueError):
            cache.insert(chain_model.default_scan(0), alpha=0.5)

    def test_frontier_costs(self, cache, scan_variants):
        cache.insert_all(scan_variants)
        costs = cache.frontier_costs({0})
        assert all(isinstance(cost, tuple) for cost in costs)


class TestPruning:
    def test_dominated_same_format_plan_rejected(self, cache, chain_model):
        # A good join order: (t0 ⋈ t1) ⋈ t2 follows the chain predicates.
        good = chain_model.default_join(
            chain_model.default_join(
                chain_model.default_scan(0), chain_model.default_scan(1)
            ),
            chain_model.default_scan(2),
        )
        # A bad join order for the same table set: the cross product t0 × t2
        # first, which inflates every cost metric.
        bad = chain_model.default_join(
            chain_model.default_join(
                chain_model.default_scan(0), chain_model.default_scan(2)
            ),
            chain_model.default_scan(1),
        )
        assert good.output_format is bad.output_format
        assert cache.insert(good) is True
        assert cache.insert(bad) is False
        assert cache.plans(good.rel) == [good]

    def test_insert_evicts_dominated_entries(self, cache, chain_model):
        scans = [chain_model.make_scan(1, op) for op in chain_model.scan_operators(1)]
        same_format = [s for s in scans if s.output_format is scans[0].output_format]
        if len(same_format) >= 2:
            worse = max(same_format, key=lambda p: p.cost[0])
            better = min(same_format, key=lambda p: p.cost[0])
            cache.insert(worse)
            cache.insert(better)
            kept = cache.plans({1})
            if strictly_dominates(better.cost, worse.cost):
                assert worse not in kept

    def test_different_output_formats_kept_separately(self, cache, chain_model):
        scans = [chain_model.make_scan(1, op) for op in chain_model.scan_operators(1)]
        formats = {s.output_format for s in scans}
        cache.insert_all(scans)
        kept_formats = {p.output_format for p in cache.plans({1})}
        assert kept_formats == formats

    def test_alpha_pruning_rejects_near_duplicates(self, cache, chain_model):
        variants = [chain_model.make_scan(1, op) for op in chain_model.scan_operators(1)]
        kept_exact = PlanCache()
        kept_exact.insert_all(variants, alpha=1.0)
        kept_coarse = PlanCache()
        kept_coarse.insert_all(variants, alpha=1e6)
        assert kept_coarse.size_of({1}) <= kept_exact.size_of({1})

    def test_cache_invariant_no_mutual_domination(self, cache, cycle_model, rng):
        """No cached plan strictly dominates another cached plan of the same format."""
        from oracle.random_plans import RandomPlanGenerator

        generator = RandomPlanGenerator(cycle_model, rng)
        for _ in range(40):
            plan = generator.random_bushy_plan()
            cache.insert(plan, alpha=1.0)
        plans = cache.plans(cycle_model.query.relations)
        for first in plans:
            for second in plans:
                if first is second or first.output_format is not second.output_format:
                    continue
                assert not strictly_dominates(first.cost, second.cost) or (
                    first.cost == second.cost
                )

    def test_alpha_cache_covers_all_inserted_plans(self, cycle_model, rng):
        """Every rejected plan must be alpha-covered by some cached plan."""
        from oracle.random_plans import RandomPlanGenerator

        alpha = 4.0
        cache = PlanCache()
        generator = RandomPlanGenerator(cycle_model, rng)
        plans = [generator.random_bushy_plan() for _ in range(40)]
        for plan in plans:
            cache.insert(plan, alpha=alpha)
        cached = cache.plans(cycle_model.query.relations)
        for plan in plans:
            same_format = [p for p in cached if p.output_format is plan.output_format]
            assert any(
                approx_dominates(entry.cost, plan.cost, alpha) for entry in same_format
            ), "an inserted plan is neither cached nor alpha-covered"

    def test_rejected_insert_returns_false(self, cache, chain_model):
        scan = chain_model.default_scan(0)
        assert cache.insert(scan) is True
        assert cache.insert(scan, alpha=1.0) is False

    def test_insert_all_returns_kept_count(self, cache, scan_variants):
        kept = cache.insert_all(scan_variants)
        assert kept == cache.total_plans
