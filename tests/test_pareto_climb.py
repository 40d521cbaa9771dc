"""Unit tests of ParetoStep / ParetoClimb (Algorithm 2) on the object oracle."""

import pytest

from oracle.pareto_climb import ParetoClimber
from repro.core.pareto_climb import ClimbResult
from oracle.random_plans import RandomPlanGenerator
from repro.pareto.dominance import dominates, strictly_dominates
from repro.plans.transformations import TransformationRules
from repro.plans.validation import validate_plan


@pytest.fixture
def climber(chain_model):
    return ParetoClimber(chain_model)


@pytest.fixture
def random_chain_plan(chain_model, rng):
    return RandomPlanGenerator(chain_model, rng).random_bushy_plan()


class TestParetoStep:
    def test_step_returns_plans_per_format(self, climber, random_chain_plan):
        result = climber.pareto_step(random_chain_plan)
        assert result
        for output_format, plan in result.items():
            assert plan.output_format is output_format
            assert plan.rel == random_chain_plan.rel

    def test_step_never_returns_dominated_plan_vs_input(self, climber, random_chain_plan):
        result = climber.pareto_step(random_chain_plan)
        same_format = result.get(random_chain_plan.output_format)
        if same_format is not None:
            assert not strictly_dominates(random_chain_plan.cost, same_format.cost)

    def test_step_counts_plans_built(self, chain_model, random_chain_plan):
        climber = ParetoClimber(chain_model)
        assert climber.plans_built == 0
        climber.pareto_step(random_chain_plan)
        assert climber.plans_built > 0

    def test_scan_step(self, chain_model):
        climber = ParetoClimber(chain_model)
        scan = chain_model.default_scan(0)
        result = climber.pareto_step(scan)
        assert all(not plan.is_join for plan in result.values())
        assert all(plan.rel == scan.rel for plan in result.values())


class TestParetoClimb:
    def test_climb_improves_or_keeps_cost(self, climber, random_chain_plan):
        result = climber.climb(random_chain_plan)
        assert isinstance(result, ClimbResult)
        assert dominates(result.plan.cost, random_chain_plan.cost) or not strictly_dominates(
            random_chain_plan.cost, result.plan.cost
        )

    def test_climb_result_is_valid_plan(self, climber, random_chain_plan, chain_query_4, chain_model):
        result = climber.climb(random_chain_plan)
        validate_plan(result.plan, chain_query_4, chain_model.library, chain_model.num_metrics)

    def test_local_optimum_has_no_strictly_dominating_neighbor_step(
        self, climber, random_chain_plan
    ):
        """After the climb, another ParetoStep must not strictly improve the plan."""
        result = climber.climb(random_chain_plan)
        another_step = climber.pareto_step(result.plan)
        for candidate in another_step.values():
            assert not strictly_dominates(candidate.cost, result.plan.cost)

    def test_climb_from_local_optimum_is_zero_steps(self, climber, random_chain_plan):
        first = climber.climb(random_chain_plan)
        second = climber.climb(first.plan)
        assert second.path_length == 0
        assert second.plan.cost == first.plan.cost

    def test_path_length_counts_strict_improvements(self, climber, random_chain_plan):
        result = climber.climb(random_chain_plan)
        assert result.path_length >= 0
        if result.path_length == 0:
            assert result.plan.cost == random_chain_plan.cost

    def test_max_steps_bound_respected(self, chain_model, random_chain_plan):
        climber = ParetoClimber(chain_model, max_steps=1)
        result = climber.climb(random_chain_plan)
        assert result.path_length <= 1

    def test_invalid_max_steps_rejected(self, chain_model):
        with pytest.raises(ValueError):
            ParetoClimber(chain_model, max_steps=0)

    def test_climb_on_many_random_starts(self, star_model, star_query_5, rng):
        generator = RandomPlanGenerator(star_model, rng)
        climber = ParetoClimber(star_model)
        for _ in range(10):
            start = generator.random_bushy_plan()
            result = climber.climb(start)
            assert dominates(result.plan.cost, start.cost)
            validate_plan(result.plan, star_query_5, star_model.library, star_model.num_metrics)

    def test_climb_reduces_cost_on_average(self, cycle_model, rng):
        """Climbing from random plans should usually find a strictly better plan."""
        generator = RandomPlanGenerator(cycle_model, rng)
        climber = ParetoClimber(cycle_model)
        improved = 0
        for _ in range(10):
            start = generator.random_bushy_plan()
            result = climber.climb(start)
            if strictly_dominates(result.plan.cost, start.cost):
                improved += 1
        assert improved >= 7

    def test_example1_single_metric_single_operator(self, minimal_model):
        """The paper's Example 1 setting: one metric, one operator, commutation only.

        The climb must terminate and never worsen the (scalar) cost.
        """
        rules = TransformationRules(enable_associativity=True, enable_exchange=True)
        climber = ParetoClimber(minimal_model, rules)
        generator = RandomPlanGenerator(minimal_model, __import__("random").Random(0))
        for _ in range(5):
            start = generator.random_bushy_plan()
            result = climber.climb(start)
            assert result.plan.cost[0] <= start.cost[0]


class TestClimbEfficiency:
    def test_simultaneous_subtree_improvements(self, chain_model):
        """A single ParetoStep can improve several independent sub-trees at once.

        Build a plan whose two sub-trees each use a sub-optimal scan operator;
        one step must already improve both (the resulting plan improves on a
        plan where only one sub-tree was fixed).
        """
        # index_scan on a large table is cheaper than seq_scan in this model.
        seq = chain_model.library.scan_operator("seq_scan")
        scan0 = chain_model.make_scan(0, seq)
        scan1 = chain_model.make_scan(1, seq)
        scan2 = chain_model.make_scan(2, seq)
        scan3 = chain_model.make_scan(3, seq)
        left = chain_model.default_join(scan0, scan1)
        right = chain_model.default_join(scan2, scan3)
        plan = chain_model.default_join(left, right)

        climber = ParetoClimber(chain_model)
        stepped = climber.pareto_step(plan)
        best = min(stepped.values(), key=lambda p: p.cost[0])
        # The time cost must improve by at least as much as the best
        # single-table scan improvement (both sides improved together).
        single_improvements = []
        for index in range(4):
            variants = [chain_model.make_scan(index, op) for op in chain_model.scan_operators(index)]
            best_scan = min(v.cost[0] for v in variants)
            seq_scan = chain_model.make_scan(index, seq).cost[0]
            single_improvements.append(seq_scan - best_scan)
        assert plan.cost[0] - best.cost[0] >= max(single_improvements) - 1e-9
