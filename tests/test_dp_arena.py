"""Oracle-equivalence suite for the DP(α) approximation schemes.

The vectorized :class:`~repro.baselines.dp.ArenaDPOptimizer` must be
*bit-identical* to the object-plan oracle's ``DPOptimizer``
(``tests/oracle/dp.py``) — same frontiers, same DP-table contents (values, tags, and order), same
``plans_built``/``steps`` statistics at every step boundary — for every α,
query shape, and operator library, including 1-table queries and NaN/inf
cardinalities.  The coordinator backend must additionally be bit-identical
to the sequential backend for any worker count, under injected worker
death, and across warm/cold task-cache runs.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle.dp import DPOptimizer
from repro.baselines.dp import ArenaDPOptimizer
from repro.cost.model import MultiObjectiveCostModel
from repro.dist.cache import TaskCache
from repro.plans.operators import OperatorLibrary
from repro.query.generator import SHAPE_MIN_TABLES, QueryGenerator
from repro.query.join_graph import GraphShape, JoinGraph
from repro.query.query import Query
from repro.query.table import Table

ALPHAS = (1.0, 1.01, 2.0, float("inf"))

LIBRARIES = {
    "minimal": OperatorLibrary.minimal,
    "default": OperatorLibrary.default,
    "cloud": OperatorLibrary.cloud,
}


def _random_model(seed, num_tables, shape=GraphShape.CHAIN, metrics=("time", "buffer", "disk"), library="default"):
    query = QueryGenerator(rng=random.Random(seed)).generate(num_tables, shape)
    return MultiObjectiveCostModel(query, metrics=metrics, library=LIBRARIES[library]())


def _explicit_model(cardinalities, edges, metrics=("time", "buffer", "disk"), library="default"):
    tables = [
        Table(index=i, name=f"t{i}", cardinality=float(card))
        for i, card in enumerate(cardinalities)
    ]
    graph = JoinGraph(len(tables))
    for a, b, selectivity in edges:
        graph.add_edge(a, b, selectivity)
    query = Query(tables, graph, name="dp_arena_test")
    return MultiObjectiveCostModel(query, metrics=metrics, library=LIBRARIES[library]())


def _cost_key(values):
    """NaN-safe exact snapshot of a cost tuple (NaN == NaN for comparison)."""
    return tuple("nan" if math.isnan(v) else v for v in values)


def _snap(plan):
    return (_cost_key(plan.cost), plan.output_format, _cost_key((plan.cardinality,)))


def _table_state(optimizer):
    """The full DP table: per subset, the frontier's ordered snapshots."""
    return {
        tuple(sorted(rel)): [_snap(p) for p in optimizer.plan_cache.plans(rel)]
        for rel in optimizer.plan_cache.table_sets()
    }


def _statistics(optimizer):
    return (optimizer.statistics.plans_built, optimizer.statistics.steps)


def _assert_locked(reference, candidate):
    """Run both optimizers step by step and compare everything at each boundary."""
    while not (reference.finished and candidate.finished):
        reference.step()
        candidate.step()
        assert _statistics(candidate) == _statistics(reference)
        assert candidate.finished == reference.finished
        assert [_snap(p) for p in candidate.frontier()] == [
            _snap(p) for p in reference.frontier()
        ]
    assert _table_state(candidate) == _table_state(reference)


class TestEngineEquivalence:
    """object oracle == runtime DP, bit for bit."""

    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        num_tables=st.integers(min_value=1, max_value=5),
        shape=st.sampled_from(list(GraphShape)),
        alpha=st.sampled_from(ALPHAS),
        tasks_per_step=st.sampled_from((1, 7, 50)),
        library=st.sampled_from(sorted(LIBRARIES)),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_queries_bit_identical(
        self, seed, num_tables, shape, alpha, tasks_per_step, library
    ):
        num_tables = max(num_tables, SHAPE_MIN_TABLES[shape])
        model = _random_model(seed, num_tables, shape, library=library)
        reference = DPOptimizer(model, alpha=alpha, tasks_per_step=tasks_per_step)
        candidate = ArenaDPOptimizer(model, alpha=alpha, tasks_per_step=tasks_per_step)
        _assert_locked(reference, candidate)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_single_table_query(self, alpha):
        model = _explicit_model([42.0], [])
        reference = DPOptimizer(model, alpha=alpha)
        candidate = ArenaDPOptimizer(model, alpha=alpha)
        reference.step()
        candidate.step()
        # One step seeds the scans, discovers there are no join tasks, and
        # finishes with a non-empty frontier — in runtime and oracle alike.
        assert reference.finished and candidate.finished
        assert _statistics(candidate) == _statistics(reference)
        assert candidate.frontier() and reference.frontier()
        assert [_snap(p) for p in candidate.frontier()] == [
            _snap(p) for p in reference.frontier()
        ]

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("bad_card", [float("nan"), float("inf")])
    def test_nan_inf_cardinalities(self, alpha, bad_card):
        # The scalar sort-merge kernel rejects infinite page counts, so the
        # non-finite equivalence cases run on the minimal library (hash join
        # + full scan), where runtime and oracle must agree bit for bit.
        model = _explicit_model(
            [bad_card, 100.0, 10.0],
            [(0, 1, 0.5), (1, 2, 0.25)],
            metrics=("time",),
            library="minimal",
        )
        reference = DPOptimizer(model, alpha=alpha, tasks_per_step=3)
        candidate = ArenaDPOptimizer(model, alpha=alpha, tasks_per_step=3)
        _assert_locked(reference, candidate)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_nan_cardinality_default_library(self, alpha):
        model = _explicit_model([float("nan"), 100.0, 10.0], [(0, 1, 0.5), (1, 2, 0.25)])
        reference = DPOptimizer(model, alpha=alpha, tasks_per_step=5)
        candidate = ArenaDPOptimizer(model, alpha=alpha, tasks_per_step=5)
        _assert_locked(reference, candidate)

    def test_scan_seeding_charged_to_construction(self, chain_model):
        # Satellite of the eager-seeding fix: scans are built (and counted)
        # in __init__, identically in runtime and oracle, before any step() runs.
        for optimizer in (DPOptimizer(chain_model), ArenaDPOptimizer(chain_model)):
            assert optimizer.statistics.plans_built > 0
            assert optimizer.statistics.steps == 0
        assert (
            DPOptimizer(chain_model).statistics.plans_built
            == ArenaDPOptimizer(chain_model).statistics.plans_built
        )

    def test_empty_frontier_until_complete(self, chain_model):
        candidate = ArenaDPOptimizer(chain_model, alpha=2.0, tasks_per_step=1)
        candidate.step()
        assert not candidate.finished
        assert candidate.frontier() == []


class TestValidation:
    def test_alpha_below_one_rejected(self, chain_model):
        with pytest.raises(ValueError):
            ArenaDPOptimizer(chain_model, alpha=0.5)

    def test_nonpositive_tasks_per_step_rejected(self, chain_model):
        with pytest.raises(ValueError):
            ArenaDPOptimizer(chain_model, tasks_per_step=0)

    def test_unknown_backend_rejected(self, chain_model):
        with pytest.raises(ValueError):
            ArenaDPOptimizer(chain_model, backend="ray")

    def test_nonpositive_workers_rejected(self, chain_model):
        with pytest.raises(ValueError):
            ArenaDPOptimizer(chain_model, backend="coordinator", workers=0)


class TestCoordinatorBackend:
    """coordinator backend == sequential backend, for any worker count."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("alpha", [1.0, 1.01, float("inf")])
    def test_worker_counts_bit_identical(self, star_model, workers, alpha):
        sequential = ArenaDPOptimizer(star_model, alpha=alpha, tasks_per_step=13)
        coordinated = ArenaDPOptimizer(
            star_model,
            alpha=alpha,
            tasks_per_step=13,
            backend="coordinator",
            workers=workers,
        )
        _assert_locked(sequential, coordinated)

    def test_step_driven_snapshots_match_mid_run(self, cycle_model):
        # The anytime contract holds under the coordinator backend too:
        # identical statistics and frontier snapshots at every boundary
        # (including the partial final-level frontiers near the end).
        sequential = ArenaDPOptimizer(cycle_model, alpha=2.0, tasks_per_step=9)
        coordinated = ArenaDPOptimizer(
            cycle_model, alpha=2.0, tasks_per_step=9, backend="coordinator", workers=2
        )
        while not sequential.finished:
            sequential.step()
            coordinated.step()
            assert _statistics(coordinated) == _statistics(sequential)
            assert [_snap(p) for p in coordinated.frontier()] == [
                _snap(p) for p in sequential.frontier()
            ]
        assert coordinated.finished
        assert _table_state(coordinated) == _table_state(sequential)

    def test_injected_worker_death_bit_identical(self, star_model):
        sequential = ArenaDPOptimizer(star_model, alpha=1.01, tasks_per_step=50)
        while not sequential.finished:
            sequential.step()

        deaths = []

        def killer(lease):
            if lease.worker_id == "dp-worker-0" and not deaths:
                deaths.append(lease.lease_id)
                raise RuntimeError("injected worker death")

        coordinated = ArenaDPOptimizer(
            star_model,
            alpha=1.01,
            tasks_per_step=50,
            backend="coordinator",
            workers=3,
            lease_timeout=0.2,
            on_lease=killer,
        )
        while not coordinated.finished:
            coordinated.step()
        assert deaths, "the fault-injection hook never fired"
        assert _statistics(coordinated) == _statistics(sequential)
        assert _table_state(coordinated) == _table_state(sequential)

    def test_warm_and_cold_task_cache_bit_identical(self, chain_model, tmp_path):
        sequential = ArenaDPOptimizer(chain_model, alpha=1.01, tasks_per_step=25)
        while not sequential.finished:
            sequential.step()

        cache = TaskCache(str(tmp_path / "dp-cache"))
        runs = []
        for _ in range(2):
            optimizer = ArenaDPOptimizer(
                chain_model,
                alpha=1.01,
                tasks_per_step=25,
                backend="coordinator",
                workers=2,
                task_cache=cache,
            )
            while not optimizer.finished:
                optimizer.step()
            runs.append(optimizer)
        cold, warm = runs
        assert cache.stats["stores"] > 0
        assert cache.stats["hits"] > 0
        for optimizer in (cold, warm):
            assert _statistics(optimizer) == _statistics(sequential)
            assert _table_state(optimizer) == _table_state(sequential)

    def test_cache_keys_depend_on_level_alpha(self, chain_model, tmp_path):
        # Different α must never share cache entries: α enters the
        # provenance signature through level_alpha.
        cache = TaskCache(str(tmp_path / "dp-cache"))
        for alpha in (1.01, 2.0):
            optimizer = ArenaDPOptimizer(
                chain_model,
                alpha=alpha,
                backend="coordinator",
                task_cache=cache,
            )
            while not optimizer.finished:
                optimizer.step()
        second = ArenaDPOptimizer(
            chain_model, alpha=2.0, backend="coordinator", task_cache=cache
        )
        reference = ArenaDPOptimizer(chain_model, alpha=2.0)
        while not second.finished:
            second.step()
        while not reference.finished:
            reference.step()
        assert _table_state(second) == _table_state(reference)
