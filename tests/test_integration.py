"""End-to-end integration tests across modules.

These tests exercise the full optimize-and-compare pipeline the way the
benchmark harness and the examples use it, on deliberately small inputs.
"""

import random

import pytest

from repro.baselines import make_optimizer
from repro.baselines.dp import ArenaDPOptimizer
from repro.bench.reference import union_reference_frontier
from repro.cost.model import MultiObjectiveCostModel
from repro.core.rmq import RMQOptimizer
from repro.core.frontier import AlphaSchedule
from repro.pareto.epsilon import approximation_error
from repro.plans.printer import explain_plan, plan_signature
from repro.plans.validation import validate_plan
from repro.query.catalog import Catalog
from repro.query.generator import QueryGenerator
from repro.query.join_graph import GraphShape


class TestCatalogToPlanPipeline:
    def test_catalog_query_optimize_explain(self):
        catalog = Catalog()
        catalog.add_table("customers", 10_000)
        catalog.add_table("orders", 200_000)
        catalog.add_table("items", 1_000_000)
        query = catalog.build_query(
            ["customers", "orders", "items"],
            [("customers", "orders", 1e-4), ("orders", "items", 5e-6)],
            name="sales",
        )
        model = MultiObjectiveCostModel(query, metrics=("time", "buffer", "disk"))
        optimizer = RMQOptimizer(model, rng=random.Random(0))
        plans = optimizer.run(max_steps=10)
        assert plans
        for plan in plans:
            validate_plan(plan, query, model.library, model.num_metrics)
            rendering = explain_plan(plan, metric_names=model.metric_names)
            assert "customers" in rendering or "orders" in rendering
            assert plan_signature(plan)


class TestRMQConvergenceOnSmallQuery:
    def test_rmq_approaches_dp_reference(self, rng):
        """With a fine schedule and enough iterations RMQ gets close to DP(1.01).

        This is the qualitative claim of Figures 8/9 (RMQ converges towards a
        perfect approximation on small queries).
        """
        query = QueryGenerator(rng=rng).generate(4, GraphShape.CHAIN)
        model = MultiObjectiveCostModel(query, metrics=("time", "buffer"))

        dp = ArenaDPOptimizer(model, alpha=1.01)
        dp.run(max_steps=1_000_000)
        reference = [plan.cost for plan in dp.frontier()]
        assert reference

        rmq = RMQOptimizer(
            model, rng=random.Random(1), schedule=AlphaSchedule.constant(1.0)
        )
        rmq.run(max_steps=60)
        error = approximation_error([p.cost for p in rmq.frontier()], reference)
        assert error <= 1.6

    def test_rmq_beats_sa_on_medium_query(self, rng):
        """RMQ should approximate the union reference better than SA (paper trend)."""
        query = QueryGenerator(rng=rng).generate(10, GraphShape.STAR)
        model = MultiObjectiveCostModel(query, metrics=("time", "buffer", "disk"))

        rmq = RMQOptimizer(
            model, rng=random.Random(2), schedule=AlphaSchedule.compressed()
        )
        rmq.run(max_steps=15)
        sa = make_optimizer("SA", model, random.Random(2))
        sa.run(max_steps=15)

        rmq_costs = [plan.cost for plan in rmq.frontier()]
        sa_costs = [plan.cost for plan in sa.frontier()]
        reference = union_reference_frontier([rmq_costs, sa_costs])
        assert approximation_error(rmq_costs, reference) <= approximation_error(
            sa_costs, reference
        )


class TestAllAlgorithmsOnOneTestCase:
    @pytest.fixture(scope="class")
    def test_case(self):
        rng = random.Random(99)
        query = QueryGenerator(rng=rng).generate(6, GraphShape.CYCLE)
        return MultiObjectiveCostModel(query, metrics=("time", "buffer", "disk"))

    @pytest.mark.parametrize(
        "name", ["RMQ", "II", "SA", "2P", "NSGA-II", "RandomSampling", "WeightedSum"]
    )
    def test_algorithm_produces_valid_frontier(self, name, test_case):
        optimizer = make_optimizer(name, test_case, random.Random(1))
        frontier = optimizer.run(max_steps=4)
        assert frontier, f"{name} produced no plans"
        for plan in frontier:
            validate_plan(
                plan, test_case.query, test_case.library, test_case.num_metrics
            )

    def test_union_reference_and_errors_are_consistent(self, test_case):
        frontiers = {}
        for name in ("RMQ", "II", "NSGA-II"):
            optimizer = make_optimizer(name, test_case, random.Random(5))
            frontiers[name] = [plan.cost for plan in optimizer.run(max_steps=4)]
        reference = union_reference_frontier(frontiers.values())
        errors = {
            name: approximation_error(costs, reference)
            for name, costs in frontiers.items()
        }
        assert all(error >= 1.0 for error in errors.values())
        # At least one algorithm attains the best (lowest) error, and that
        # error cannot be infinite because the reference is their union.
        assert min(errors.values()) < float("inf")


class TestExtensionScenarios:
    def test_cloud_library_monetary_time_tradeoff(self, rng):
        """With the cloud library, RMQ finds plans trading money for time."""
        from repro.plans.operators import OperatorLibrary

        query = QueryGenerator(rng=rng).generate(5, GraphShape.CHAIN)
        model = MultiObjectiveCostModel(
            query,
            metrics=("time", "monetary"),
            library=OperatorLibrary.cloud(parallelism_levels=(1, 8)),
        )
        optimizer = RMQOptimizer(
            model, rng=random.Random(3), schedule=AlphaSchedule.constant(1.0)
        )
        frontier = optimizer.run(max_steps=25)
        assert frontier
        times = [plan.cost[0] for plan in frontier]
        money = [plan.cost[1] for plan in frontier]
        if len(frontier) >= 2:
            # The fastest plan must not also be the cheapest one (a tradeoff exists).
            fastest = times.index(min(times))
            cheapest = money.index(min(money))
            assert fastest != cheapest or len(set(times)) == 1

    def test_sampling_library_precision_time_tradeoff(self, rng):
        from repro.plans.operators import OperatorLibrary

        query = QueryGenerator(rng=rng).generate(4, GraphShape.STAR)
        model = MultiObjectiveCostModel(
            query,
            metrics=("time", "precision_loss"),
            library=OperatorLibrary.sampling(sampling_rates=(1.0, 0.1)),
        )
        optimizer = RMQOptimizer(
            model, rng=random.Random(4), schedule=AlphaSchedule.constant(1.0)
        )
        frontier = optimizer.run(max_steps=25)
        assert frontier
        precision_losses = {round(plan.cost[1], 6) for plan in frontier}
        # Both exact (zero-loss) and sampled plans should appear on the frontier.
        assert len(precision_losses) >= 2
