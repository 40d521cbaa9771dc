"""Unit tests for repro.plans.validation."""

import pytest

from repro.cost.model import MultiObjectiveCostModel
from repro.plans.operators import DataFormat, JoinAlgorithm, JoinOperator
from repro.plans.plan import JoinPlan, ScanPlan
from repro.plans.validation import PlanValidationError, validate_plan
from repro.query.table import Table


@pytest.fixture
def full_plan(chain_model):
    scans = [chain_model.default_scan(i) for i in range(4)]
    left = chain_model.default_join(scans[0], scans[1])
    right = chain_model.default_join(scans[2], scans[3])
    return chain_model.default_join(left, right)


class TestValidPlans:
    def test_complete_plan_validates(self, full_plan, chain_query_4, chain_model):
        validate_plan(full_plan, chain_query_4, chain_model.library, chain_model.num_metrics)

    def test_partial_plan_with_flag(self, chain_model, chain_query_4):
        partial = chain_model.default_join(
            chain_model.default_scan(0), chain_model.default_scan(1)
        )
        validate_plan(partial, chain_query_4, require_complete=False)

    def test_scan_only_query(self, single_table_query):
        model = MultiObjectiveCostModel(single_table_query, metrics=("time",))
        validate_plan(model.default_scan(0), single_table_query)


class TestInvalidPlans:
    def test_incomplete_plan_rejected(self, chain_model, chain_query_4):
        partial = chain_model.default_join(
            chain_model.default_scan(0), chain_model.default_scan(1)
        )
        with pytest.raises(PlanValidationError):
            validate_plan(partial, chain_query_4)

    def test_foreign_table_rejected(self, chain_model, two_table_query):
        # A plan built for the 4-table query references tables outside the
        # 2-table query.
        plan = chain_model.default_scan(3)
        with pytest.raises(PlanValidationError):
            validate_plan(plan, two_table_query, require_complete=False)

    def test_wrong_metric_count_rejected(self, full_plan, chain_query_4):
        with pytest.raises(PlanValidationError):
            validate_plan(full_plan, chain_query_4, num_metrics=5)

    def test_negative_cost_rejected(self, chain_model, chain_query_4):
        scan = chain_model.default_scan(0)
        broken = ScanPlan(
            table=scan.table,
            operator=scan.operator,
            cost=(-1.0,) * chain_model.num_metrics,
            cardinality=scan.cardinality,
        )
        with pytest.raises(PlanValidationError):
            validate_plan(broken, chain_query_4, require_complete=False)

    def test_stale_table_statistics_rejected(self, chain_model, chain_query_4):
        scan = chain_model.default_scan(0)
        stale_table = Table(index=0, name="t0", cardinality=999_999)
        broken = ScanPlan(
            table=stale_table,
            operator=scan.operator,
            cost=scan.cost,
            cardinality=scan.cardinality,
        )
        with pytest.raises(PlanValidationError):
            validate_plan(broken, chain_query_4, require_complete=False)

    def test_nested_loop_with_pipelined_inner_rejected(self, chain_model, chain_query_4):
        outer = chain_model.default_scan(0)
        inner = chain_model.default_scan(1)  # pipelined by default
        assert inner.output_format is DataFormat.PIPELINED
        bnl = JoinOperator("bnl_bad", JoinAlgorithm.BLOCK_NESTED_LOOP)
        broken = JoinPlan(
            outer=outer,
            inner=inner,
            operator=bnl,
            cost=(1.0,) * chain_model.num_metrics,
            cardinality=1.0,
        )
        with pytest.raises(PlanValidationError):
            validate_plan(broken, chain_query_4, require_complete=False)

    def test_operator_outside_library_rejected(self, chain_model, chain_query_4):
        outer = chain_model.default_scan(0)
        inner = chain_model.default_scan(1)
        foreign_operator = JoinOperator("foreign_hash", JoinAlgorithm.HASH)
        broken = JoinPlan(
            outer=outer,
            inner=inner,
            operator=foreign_operator,
            cost=(1.0,) * chain_model.num_metrics,
            cardinality=1.0,
        )
        with pytest.raises(PlanValidationError):
            validate_plan(
                broken,
                chain_query_4,
                library=chain_model.library,
                require_complete=False,
            )


class TestSearchOutputsAreValid:
    def test_random_plans_validate(self, chain_model, chain_query_4, rng):
        from oracle.random_plans import RandomPlanGenerator

        generator = RandomPlanGenerator(chain_model, rng)
        for plan in generator.random_plans(25):
            validate_plan(plan, chain_query_4, chain_model.library, chain_model.num_metrics)

    def test_climbed_plans_validate(self, star_model, star_query_5, rng):
        from oracle.pareto_climb import ParetoClimber
        from oracle.random_plans import RandomPlanGenerator

        generator = RandomPlanGenerator(star_model, rng)
        climber = ParetoClimber(star_model)
        for _ in range(5):
            result = climber.climb(generator.random_bushy_plan())
            validate_plan(result.plan, star_query_5, star_model.library, star_model.num_metrics)
