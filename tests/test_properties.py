"""Property-based tests (hypothesis) for the core data structures and invariants.

These tests check algebraic properties that must hold for *any* input, not
just the hand-picked fixtures: dominance is a partial order, the approximation
error is consistent with α-dominance, frontier containers never keep dominated
entries, plan costs are monotone under sub-plan improvement, and the cost
model produces well-formed vectors for arbitrary random plans.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.model import MultiObjectiveCostModel
from oracle.plan_cache import PlanCache
from oracle.random_plans import RandomPlanGenerator
from repro.pareto.dominance import approx_dominates, dominates, strictly_dominates
from repro.pareto.epsilon import approximation_error, is_alpha_approximation
from repro.pareto.frontier import ParetoFrontier, pareto_filter
from repro.pareto.hypervolume import hypervolume
from repro.plans.validation import validate_plan
from repro.query.generator import SHAPE_MIN_TABLES, QueryGenerator
from repro.query.join_graph import GraphShape

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
costs2 = st.tuples(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
costs3 = st.tuples(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
# Strictly positive variant: the approximation-error indicator floors zero
# cost components (to stay finite), so its equivalence with exact
# α-dominance only holds away from exact zeros.
positive_costs3 = st.tuples(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
)
positive_cost_lists = st.lists(positive_costs3, min_size=1, max_size=30)
cost_lists = st.lists(costs3, min_size=1, max_size=30)
alphas = st.floats(min_value=1.0, max_value=100.0, allow_nan=False)


# ---------------------------------------------------------------------------
# Dominance properties
# ---------------------------------------------------------------------------
class TestDominanceProperties:
    @given(costs3)
    def test_dominance_is_reflexive(self, cost):
        assert dominates(cost, cost)
        assert not strictly_dominates(cost, cost)

    @given(costs3, costs3)
    def test_strict_dominance_is_antisymmetric(self, first, second):
        if strictly_dominates(first, second):
            assert not strictly_dominates(second, first)

    @given(costs3, costs3, costs3)
    def test_dominance_is_transitive(self, a, b, c):
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)

    @given(costs3, costs3)
    def test_strict_dominance_implies_dominance(self, first, second):
        if strictly_dominates(first, second):
            assert dominates(first, second)

    @given(costs3, costs3, alphas)
    def test_dominance_implies_alpha_dominance(self, first, second, alpha):
        if dominates(first, second):
            assert approx_dominates(first, second, alpha)

    @given(costs3, costs3, alphas, alphas)
    def test_alpha_dominance_monotone_in_alpha(self, first, second, alpha_a, alpha_b):
        small, large = min(alpha_a, alpha_b), max(alpha_a, alpha_b)
        if approx_dominates(first, second, small):
            assert approx_dominates(first, second, large)


# ---------------------------------------------------------------------------
# Frontier properties
# ---------------------------------------------------------------------------
class TestFrontierProperties:
    @given(cost_lists)
    def test_pareto_filter_is_mutually_non_dominated(self, costs):
        front = pareto_filter(costs)
        for first in front:
            for second in front:
                if first != second:
                    assert not strictly_dominates(first, second)

    @given(cost_lists)
    def test_pareto_filter_covers_input(self, costs):
        front = pareto_filter(costs)
        for cost in costs:
            assert any(dominates(kept, cost) for kept in front)

    @given(cost_lists, alphas)
    def test_frontier_insertion_order_does_not_break_coverage(self, costs, alpha):
        frontier: ParetoFrontier = ParetoFrontier(alpha=alpha)
        for cost in costs:
            frontier.insert(tuple(cost))
        kept = frontier.items()
        assert kept
        for cost in costs:
            assert any(approx_dominates(item, cost, alpha) for item in kept)

    @given(cost_lists)
    def test_approximation_error_of_subset_is_one_when_subset_is_front(self, costs):
        front = pareto_filter(costs)
        assert approximation_error(front, costs) <= 1.0 + 1e-12

    @given(positive_cost_lists, positive_cost_lists)
    def test_error_consistent_with_alpha_coverage(self, produced, reference):
        error = approximation_error(produced, reference)
        if error != float("inf"):
            assert is_alpha_approximation(produced, reference, error * (1 + 1e-9))

    @given(cost_lists, costs3)
    def test_adding_a_point_never_increases_error(self, produced, extra):
        reference = produced  # judge against the produced set itself
        base_error = approximation_error(produced, reference)
        extended_error = approximation_error(list(produced) + [extra], reference)
        assert extended_error <= base_error + 1e-12


# ---------------------------------------------------------------------------
# Hypervolume properties
# ---------------------------------------------------------------------------
class TestHypervolumeProperties:
    @given(st.lists(costs2, min_size=0, max_size=15))
    def test_hypervolume_non_negative_and_bounded(self, costs):
        reference = (1e6 + 1.0, 1e6 + 1.0)
        volume = hypervolume(costs, reference)
        assert volume >= 0.0
        # Allow for floating-point accumulation when the union nearly fills
        # the whole reference box.
        assert volume <= reference[0] * reference[1] * (1 + 1e-9)

    @given(st.lists(costs2, min_size=1, max_size=12), costs2)
    def test_hypervolume_monotone_under_union(self, costs, extra):
        reference = (1e6 + 1.0, 1e6 + 1.0)
        assert hypervolume(costs + [extra], reference) >= hypervolume(costs, reference) - 1e-6


# ---------------------------------------------------------------------------
# Plan / cost model properties on random queries and plans
# ---------------------------------------------------------------------------
class TestPlanProperties:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_tables=st.integers(min_value=2, max_value=9),
        shape=st.sampled_from(list(GraphShape)),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_plans_are_valid_and_costs_well_formed(self, seed, num_tables, shape):
        num_tables = max(num_tables, SHAPE_MIN_TABLES[shape])
        rng = random.Random(seed)
        query = QueryGenerator(rng=rng).generate(num_tables, shape)
        model = MultiObjectiveCostModel(query, metrics=("time", "buffer", "disk"))
        plan = RandomPlanGenerator(model, rng).random_bushy_plan()
        validate_plan(plan, query, model.library, model.num_metrics)
        assert all(value >= 0 for value in plan.cost)
        assert plan.cardinality >= 1.0
        # Cost of the whole plan is at least the cost of any sub-plan
        # (additive non-negative node contributions).
        for node in plan.iter_nodes():
            for metric_index in range(model.num_metrics):
                assert plan.cost[metric_index] >= node.cost[metric_index] - 1e-9

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        alpha=st.floats(min_value=1.0, max_value=30.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_plan_cache_coverage_property(self, seed, alpha):
        """Every plan offered to the cache is α-covered by a cached plan."""
        rng = random.Random(seed)
        query = QueryGenerator(rng=rng).generate(5, GraphShape.CHAIN)
        model = MultiObjectiveCostModel(query, metrics=("time", "buffer"))
        generator = RandomPlanGenerator(model, rng)
        cache = PlanCache()
        plans = [generator.random_bushy_plan() for _ in range(15)]
        for plan in plans:
            cache.insert(plan, alpha=alpha)
        cached = cache.plans(query.relations)
        for plan in plans:
            same_format = [p for p in cached if p.output_format is plan.output_format]
            assert any(approx_dominates(p.cost, plan.cost, alpha) for p in same_format)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_climb_never_worsens_cost(self, seed):
        from oracle.pareto_climb import ParetoClimber

        rng = random.Random(seed)
        query = QueryGenerator(rng=rng).generate(6, GraphShape.CYCLE)
        model = MultiObjectiveCostModel(query, metrics=("time", "buffer", "disk"))
        start = RandomPlanGenerator(model, rng).random_bushy_plan()
        result = ParetoClimber(model).climb(start)
        assert dominates(result.plan.cost, start.cost)
        validate_plan(result.plan, query, model.library, model.num_metrics)
