"""Shared fixtures for the test suite.

The fixtures provide small, fully deterministic queries (fixed cardinalities
and selectivities rather than random generation) so that tests exercising
plan costs and search behaviour are reproducible without seeding tricks.

The ``sequential_oracle`` fixture is the reference every execution path of
a scenario schedule is compared against; it never touches the dispatcher.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.runner import ScenarioResult, reduce_task_results
from repro.bench.tasks import execute_task, schedule_tasks
from repro.cost.model import MultiObjectiveCostModel
from repro.plans.operators import OperatorLibrary
from repro.query.join_graph import JoinGraph
from repro.query.query import Query
from repro.query.table import Table


def build_query(cardinalities, edges, name="test_query"):
    """Build a query from a list of cardinalities and (a, b, selectivity) edges."""
    tables = [
        Table(index=i, name=f"t{i}", cardinality=float(card))
        for i, card in enumerate(cardinalities)
    ]
    graph = JoinGraph(len(tables))
    for a, b, selectivity in edges:
        graph.add_edge(a, b, selectivity)
    return Query(tables, graph, name=name)


def _sequential_oracle(spec):
    """A scenario result computed without the dispatcher under test.

    Executes every leaf of the schedule in order on the calling thread and
    reduces the results — the definition of what any worker count,
    granularity, cache state, shard merge or service job must reproduce
    bit for bit on a step-driven spec.
    """
    results = [execute_task(spec, task) for task in schedule_tasks(spec)]
    return ScenarioResult(spec=spec, cells=reduce_task_results(spec, results))


@pytest.fixture
def sequential_oracle():
    """The dispatcher-free reference run, as a ``spec -> ScenarioResult`` function."""
    return _sequential_oracle


@pytest.fixture(scope="module")
def sequential_result(step_spec):
    """The oracle result of the requesting module's ``step_spec`` fixture."""
    return _sequential_oracle(step_spec)


@pytest.fixture
def rng():
    """A deterministic random number generator."""
    return random.Random(20160626)


@pytest.fixture
def chain_query_4():
    """A 4-table chain query with mixed cardinalities."""
    return build_query(
        cardinalities=[100, 10_000, 500, 2_000],
        edges=[(0, 1, 0.01), (1, 2, 0.001), (2, 3, 0.005)],
        name="chain4",
    )


@pytest.fixture
def star_query_5():
    """A 5-table star query: table 0 is the hub."""
    return build_query(
        cardinalities=[50_000, 100, 200, 300, 400],
        edges=[(0, 1, 0.01), (0, 2, 0.005), (0, 3, 0.002), (0, 4, 0.01)],
        name="star5",
    )


@pytest.fixture
def cycle_query_6():
    """A 6-table cycle query."""
    return build_query(
        cardinalities=[100, 1_000, 10_000, 500, 5_000, 200],
        edges=[
            (0, 1, 0.01),
            (1, 2, 0.001),
            (2, 3, 0.002),
            (3, 4, 0.01),
            (4, 5, 0.05),
            (5, 0, 0.02),
        ],
        name="cycle6",
    )


@pytest.fixture
def two_table_query():
    """The smallest join query (two tables, one predicate)."""
    return build_query(
        cardinalities=[1_000, 5_000],
        edges=[(0, 1, 0.001)],
        name="two_tables",
    )


@pytest.fixture
def single_table_query():
    """A query consisting of a single table (scan only)."""
    return build_query(cardinalities=[1_234], edges=[], name="single")


@pytest.fixture
def chain_model(chain_query_4):
    """Default three-metric cost model for the 4-table chain query."""
    return MultiObjectiveCostModel(chain_query_4, metrics=("time", "buffer", "disk"))


@pytest.fixture
def star_model(star_query_5):
    """Default three-metric cost model for the 5-table star query."""
    return MultiObjectiveCostModel(star_query_5, metrics=("time", "buffer", "disk"))


@pytest.fixture
def cycle_model(cycle_query_6):
    """Default three-metric cost model for the 6-table cycle query."""
    return MultiObjectiveCostModel(cycle_query_6, metrics=("time", "buffer", "disk"))


@pytest.fixture
def two_metric_model(chain_query_4):
    """Two-metric (time, buffer) cost model for the chain query."""
    return MultiObjectiveCostModel(chain_query_4, metrics=("time", "buffer"))


@pytest.fixture
def minimal_model(chain_query_4):
    """Cost model with a single scan and join operator (single-metric search space)."""
    return MultiObjectiveCostModel(
        chain_query_4, metrics=("time",), library=OperatorLibrary.minimal()
    )
