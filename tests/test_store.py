"""Equivalence tests for the tiered frontier stores.

The stores in :mod:`repro.pareto.store` are pure search accelerators: for
any sequence of insertions (single, batch, or interleaved — "merges"), the
frontier contents, their order, and every accept/evict decision must be
*bit-identical* across the flat path, the sorted tier, the ND-tree tier, and
the ``auto`` policy.  These tests pin that under adversarial inputs:
duplicate costs, non-finite costs, all-dominated and all-incomparable
batches, tagged rows, α > 1, and randomized insert/merge interleavings —
property-tested against the flat reference (and, at the protocol level,
each indexed store against :class:`~repro.pareto.store.FlatFrontier`).

The store-accelerated consumers are covered too: the climber's windowed
dominance fold and NSGA-II's sorted-order non-dominated sort must reproduce
their specifications exactly, including within-front order.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import nsga2
from oracle.baselines import Individual
from repro.baselines.nsga2 import NSGA2Optimizer
from repro.pareto import store as store_module
from repro.pareto.engine import ParetoSet, as_cost_matrix, dominance_fold
from repro.pareto.frontier import ParetoFrontier, pareto_filter
from repro.pareto.reference import ScalarParetoFrontier
from repro.pareto.store import (
    AUTO_ENGAGE_SIZE,
    FlatFrontier,
    NDTreeFrontier,
    SortedFrontier,
    auto_store_kind,
    make_store,
    resolve_store_policy,
    sorted_dominance_fold,
)

ALL_POLICIES = ("flat", "sorted", "ndtree", "auto")
INDEXED_KINDS = ("sorted", "ndtree")

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
finite_cost = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
# Small grids maximize dominance ties and duplicates.
gridded_cost = st.integers(min_value=0, max_value=3).map(float)
# Adversarial component values including non-finite ones.
weird_cost = st.one_of(
    gridded_cost,
    finite_cost,
    st.sampled_from([float("inf"), float("-inf"), float("nan")]),
)


def vectors(component, dim, max_size=60):
    return st.lists(
        st.tuples(*[component] * dim), min_size=1, max_size=max_size
    )


def make_sets(store_kwargs=()):
    return {policy: ParetoSet(store=policy) for policy in ALL_POLICIES}


def assert_all_equal(values, context=""):
    first = values[ALL_POLICIES[0]]
    for policy, value in values.items():
        assert _normalized(value) == _normalized(first), (
            f"{context}: store {policy!r} diverged from flat"
        )


def _normalized(value):
    # NaN != NaN would make equal frontiers compare unequal; compare reprs of
    # floats instead, which distinguishes every bit pattern we care about.
    if isinstance(value, tuple):
        return tuple(_normalized(v) for v in value)
    if isinstance(value, list):
        return [_normalized(v) for v in value]
    if isinstance(value, float):
        return repr(value)
    return value


# ---------------------------------------------------------------------------
# ParetoSet equivalence across stores
# ---------------------------------------------------------------------------
class TestParetoSetEquivalence:
    @given(vectors(gridded_cost, 3), st.floats(min_value=1.0, max_value=3.0))
    def test_gridded_sequences(self, rows, alpha):
        sets = make_sets()
        for row in rows:
            results = {
                policy: pareto.insert(row, alpha=alpha)
                for policy, pareto in sets.items()
            }
            assert_all_equal(results, f"insert({row})")
        assert_all_equal(
            {policy: pareto.costs() for policy, pareto in sets.items()}, "costs"
        )

    @given(vectors(weird_cost, 3))
    def test_non_finite_sequences(self, rows):
        sets = make_sets()
        for row in rows:
            results = {
                policy: pareto.insert(row) for policy, pareto in sets.items()
            }
            assert_all_equal(results, f"insert({row})")
        assert_all_equal(
            {policy: pareto.costs() for policy, pareto in sets.items()}, "costs"
        )

    @given(vectors(gridded_cost, 4, max_size=40), vectors(gridded_cost, 4, max_size=80))
    def test_batch_after_seed(self, seed_rows, batch):
        outcomes = {}
        for policy in ALL_POLICIES:
            pareto = ParetoSet(store=policy)
            for row in seed_rows:
                pareto.insert(row)
            accepted, kept, surviving = pareto.insert_batch(batch)
            outcomes[policy] = (
                accepted,
                kept,
                surviving.tolist(),
                pareto.costs(),
            )
        assert_all_equal(outcomes, "insert_batch")

    @given(
        st.lists(
            st.tuples(st.booleans(), st.tuples(gridded_cost, gridded_cost)),
            min_size=1,
            max_size=40,
        )
    )
    def test_insert_merge_interleavings(self, script):
        """Random interleavings of single inserts and batch merges."""
        sets = make_sets()
        pending = []
        for is_merge, row in script:
            if is_merge and pending:
                outcomes = {
                    policy: pareto.insert_batch(list(pending))[:2]
                    for policy, pareto in sets.items()
                }
                assert_all_equal(outcomes, "merge")
                pending = []
            else:
                pending.append(row)
                outcomes = {
                    policy: pareto.insert(row) for policy, pareto in sets.items()
                }
                assert_all_equal(outcomes, f"insert({row})")
        assert_all_equal(
            {policy: pareto.costs() for policy, pareto in sets.items()}, "costs"
        )

    def test_all_dominated_batch(self):
        sets = make_sets()
        for pareto in sets.values():
            pareto.insert((0.0, 0.0, 0.0))
            accepted, kept, surviving = pareto.insert_batch(
                [(float(i % 5 + 1), float(i % 3 + 1), float(i % 7 + 1)) for i in range(400)]
            )
            assert accepted == 0
            assert kept == []
            assert surviving.tolist() == [True]
            assert pareto.costs() == [(0.0, 0.0, 0.0)]

    def test_all_incomparable_batch(self):
        rows = [(float(i), float(1000 - i)) for i in range(600)]
        outcomes = {}
        for policy in ALL_POLICIES:
            pareto = ParetoSet(store=policy)
            accepted, kept, surviving = pareto.insert_batch(rows)
            outcomes[policy] = (accepted, kept, surviving.tolist(), pareto.costs())
            assert accepted == len(rows)
        assert_all_equal(outcomes, "incomparable batch")

    def test_duplicate_costs_first_occurrence_kept(self):
        for policy in ALL_POLICIES:
            pareto = ParetoSet(store=policy)
            assert pareto.insert((1.0, 2.0)) == (True, [])
            assert pareto.insert((1.0, 2.0)) == (False, [])
            assert pareto.insert((2.0, 1.0)) == (True, [])
            assert pareto.insert((1.0, 1.0)) == (True, [0, 1])
            assert pareto.costs() == [(1.0, 1.0)]

    @given(vectors(gridded_cost, 2, max_size=50))
    def test_tagged_insertions(self, rows):
        sets = make_sets()
        for index, row in enumerate(rows):
            tag = index % 3
            results = {
                policy: pareto.insert(row, tag=tag)
                for policy, pareto in sets.items()
            }
            assert_all_equal(results, f"insert({row}, tag={tag})")
        assert_all_equal(
            {policy: pareto.costs() for policy, pareto in sets.items()}, "costs"
        )

    @given(vectors(gridded_cost, 3, max_size=50), st.lists(st.tuples(gridded_cost, gridded_cost, gridded_cost), min_size=1, max_size=20))
    def test_queries_agree(self, rows, queries):
        sets = make_sets()
        for pareto in sets.values():
            for row in rows:
                pareto.insert(row)
        for query in queries:
            outcomes = {
                policy: (
                    pareto.covers(query, 1.0),
                    pareto.covers(query, 2.0),
                    pareto.strictly_dominates_any(query),
                )
                for policy, pareto in sets.items()
            }
            assert_all_equal(outcomes, f"queries({query})")

    def test_matches_scalar_reference_on_random_rows(self):
        rng = random.Random(20160626)
        rows = [
            tuple(float(rng.randrange(6)) for _ in range(3)) for _ in range(500)
        ]
        reference: ScalarParetoFrontier = ScalarParetoFrontier()
        for row in rows:
            reference.insert(row)
        for policy in ALL_POLICIES:
            pareto = ParetoSet(store=policy)
            for row in rows:
                pareto.insert(row)
            assert pareto.costs() == reference.items()

    def test_clear_resets_store(self):
        pareto = ParetoSet(store="sorted")
        for i in range(50):
            pareto.insert((float(i), float(50 - i)))
        assert pareto.store_name == "sorted"
        pareto.clear()
        assert len(pareto) == 0
        assert pareto.store_name == "flat"
        pareto.insert((1.0, 2.0, 3.0))  # dimension may change after clear
        assert pareto.costs() == [(1.0, 2.0, 3.0)]


# ---------------------------------------------------------------------------
# Policy resolution and the auto tier
# ---------------------------------------------------------------------------
class TestStorePolicy:
    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValueError):
            resolve_store_policy("btree")

    def test_env_variable_pins_policy(self, monkeypatch):
        monkeypatch.setenv(store_module.STORE_ENV_VAR, "sorted")
        assert resolve_store_policy(None) == "sorted"
        assert ParetoSet().store_policy == "sorted"
        # Explicit arguments win over the environment.
        assert resolve_store_policy("flat") == "flat"
        monkeypatch.setenv(store_module.STORE_ENV_VAR, "bogus")
        with pytest.raises(ValueError):
            resolve_store_policy(None)

    def test_auto_engages_by_size_and_metric_count(self):
        incomparable = [(float(i), float(10_000 - i)) for i in range(AUTO_ENGAGE_SIZE + 10)]
        pareto = ParetoSet()  # auto
        for row in incomparable[: AUTO_ENGAGE_SIZE - 1]:
            pareto.insert(row)
        assert pareto.store_name == "flat"
        for row in incomparable[AUTO_ENGAGE_SIZE - 1 :]:
            pareto.insert(row)
        assert pareto.store_name == "sorted"  # 2 metrics -> sorted tier

        five = [
            (float(i), float(10_000 - i), 1.0, 1.0, 1.0)
            for i in range(AUTO_ENGAGE_SIZE + 10)
        ]
        pareto = ParetoSet()
        for row in five:
            pareto.insert(row)
        assert pareto.store_name == "ndtree"  # 5 metrics -> ND-tree tier

    def test_auto_kind_threshold(self):
        assert auto_store_kind(2) == "sorted"
        assert auto_store_kind(store_module.SORTED_MAX_METRICS) == "sorted"
        assert auto_store_kind(store_module.SORTED_MAX_METRICS + 1) == "ndtree"

    def test_explicit_store_engages_immediately(self):
        for kind in INDEXED_KINDS:
            pareto = ParetoSet(store=kind)
            pareto.insert((1.0, 2.0))
            pareto.insert((2.0, 1.0))
            assert pareto.store_name == kind


# ---------------------------------------------------------------------------
# Protocol-level property tests: indexed stores vs the flat reference store
# ---------------------------------------------------------------------------
@st.composite
def store_scripts(draw):
    """A sequence of (row, tag) adds with interleaved removals."""
    dim = draw(st.integers(min_value=1, max_value=4))
    size = draw(st.integers(min_value=1, max_value=60))
    rows = [
        tuple(draw(weird_cost) for _ in range(dim)) for _ in range(size)
    ]
    tags = [draw(st.integers(min_value=0, max_value=2)) for _ in range(size)]
    removals = draw(
        st.lists(st.integers(min_value=0, max_value=size - 1), max_size=size // 2)
    )
    return dim, rows, tags, removals


class TestStoreProtocol:
    @settings(deadline=None)
    @given(store_scripts(), st.tuples(weird_cost, weird_cost, weird_cost, weird_cost))
    def test_indexed_stores_match_flat_reference(self, script, probe):
        dim, rows, tags, removals = script
        query = np.asarray(probe[:dim], dtype=np.float64)
        oracle = FlatFrontier(dim)
        subjects = [
            SortedFrontier(dim, block_size=4),  # tiny blocks: exercise splits
            NDTreeFrontier(dim, leaf_size=4),
        ]
        stores = [oracle] + subjects
        for row_id, (row, tag) in enumerate(zip(rows, tags)):
            array = np.asarray(row, dtype=np.float64)
            for frontier_store in stores:
                frontier_store.add(row_id, array, tag)
        removed = sorted({index for index in removals})
        if removed:
            for frontier_store in stores:
                frontier_store.remove_ids(removed)
        for frontier_store in stores:
            assert len(frontier_store) == len(rows) - len(removed)
        for alpha in (1.0, 1.5):
            for tag in (None, 0, 1):
                expected = oracle.any_covering(query, alpha, tag)
                for subject in subjects:
                    assert subject.any_covering(query, alpha, tag) == expected, (
                        subject.name, alpha, tag)
        for tag in (None, 0, 1, 2):
            expected_ids = sorted(oracle.dominated_ids(query, tag))
            for subject in subjects:
                assert sorted(subject.dominated_ids(query, tag)) == expected_ids, (
                    subject.name, tag)
        expected_strict = oracle.any_strictly_dominating(query)
        for subject in subjects:
            assert subject.any_strictly_dominating(query) == expected_strict, (
                subject.name)

    def test_bulk_load_matches_incremental(self):
        rng = random.Random(3)
        rows = np.asarray(
            [[float(rng.randrange(5)) for _ in range(3)] for _ in range(200)]
        )
        ids = list(range(200))
        tags = [0] * 200
        for kind in INDEXED_KINDS:
            loaded = make_store(kind, 3)
            loaded.bulk_load(ids, rows, tags)
            incremental = make_store(kind, 3)
            for row_id in ids:
                incremental.add(row_id, rows[row_id], 0)
            for _ in range(50):
                query = np.asarray([float(rng.randrange(6)) for _ in range(3)])
                assert sorted(loaded.dominated_ids(query, None)) == sorted(
                    incremental.dominated_ids(query, None)
                )
                assert loaded.any_covering(query, 1.0, None) == (
                    incremental.any_covering(query, 1.0, None)
                )

    def test_make_store_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            make_store("hash", 3)


# ---------------------------------------------------------------------------
# Consumers: ParetoFrontier / pareto_filter / climber fold / NSGA-II sort
# ---------------------------------------------------------------------------
class TestFrontierConsumers:
    @given(vectors(gridded_cost, 3, max_size=60))
    def test_pareto_frontier_items_identical(self, rows):
        frontiers = {
            policy: ParetoFrontier(store=policy) for policy in ALL_POLICIES
        }
        for policy, frontier in frontiers.items():
            for row in rows:
                frontier.insert(row)
        reference = frontiers["flat"].items()
        for policy, frontier in frontiers.items():
            assert frontier.items() == reference, policy

    @given(vectors(gridded_cost, 3, max_size=120))
    def test_pareto_filter_identical(self, rows):
        reference = pareto_filter(rows, store="flat")
        for policy in ("sorted", "ndtree", "auto"):
            assert pareto_filter(rows, store=policy) == reference, policy

    def test_frontier_store_name_diagnostic(self):
        frontier: ParetoFrontier = ParetoFrontier(store="sorted")
        frontier.insert_all([(float(i), float(100 - i)) for i in range(10)])
        assert frontier.store_name == "sorted"


class TestSortedDominanceFold:
    @given(
        st.lists(
            st.tuples(gridded_cost, gridded_cost, gridded_cost),
            min_size=1,
            max_size=60,
        )
    )
    def test_matches_plain_fold(self, rows):
        matrix = as_cost_matrix(rows)
        assert sorted_dominance_fold(matrix) == dominance_fold(matrix)

    def test_single_row(self):
        assert sorted_dominance_fold(as_cost_matrix([(1.0, 2.0)])) == 0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            sorted_dominance_fold(np.empty((0, 2)))


class _CostOnlyPlan:
    __slots__ = ("cost",)

    def __init__(self, cost):
        self.cost = cost


def _population(costs):
    return [Individual(genome=(), plan=_CostOnlyPlan(cost)) for cost in costs]


class TestIndexedNonDominatedSort:
    @given(
        st.lists(
            st.tuples(gridded_cost, gridded_cost, gridded_cost),
            min_size=1,
            max_size=80,
        )
    )
    def test_matches_scalar_specification(self, costs):
        scalar_population = _population(costs)
        indexed_population = _population(costs)
        scalar_fronts = NSGA2Optimizer._fast_non_dominated_sort_scalar(
            scalar_population
        )
        indexed_fronts = NSGA2Optimizer._fast_non_dominated_sort_indexed(
            indexed_population
        )
        assert [
            [ind.plan.cost for ind in front] for front in scalar_fronts
        ] == [[ind.plan.cost for ind in front] for front in indexed_fronts]
        assert [ind.rank for ind in scalar_population] == [
            ind.rank for ind in indexed_population
        ]

    def test_dispatches_above_threshold(self, monkeypatch):
        monkeypatch.setattr(nsga2, "INDEXED_SORT_MIN_POPULATION", 8)
        rng = random.Random(11)
        costs = [
            (float(rng.randrange(4)), float(rng.randrange(4))) for _ in range(40)
        ]
        dispatched = _population(costs)
        scalar = _population(costs)
        fronts = NSGA2Optimizer._fast_non_dominated_sort(dispatched)
        expected = NSGA2Optimizer._fast_non_dominated_sort_scalar(scalar)
        assert [[ind.plan.cost for ind in front] for front in fronts] == [
            [ind.plan.cost for ind in front] for front in expected
        ]

    def test_whole_evolution_identical_under_forced_dispatch(self, monkeypatch):
        from repro.cost.model import MultiObjectiveCostModel
        from repro.query.generator import QueryGenerator
        from repro.query.join_graph import GraphShape

        def evolve():
            rng = random.Random(5)
            query = QueryGenerator(rng=rng).generate(5, GraphShape.CHAIN)
            model = MultiObjectiveCostModel(query, metrics=("time", "buffer"))
            optimizer = NSGA2Optimizer(
                model, rng=random.Random(9), population_size=12
            )
            for _ in range(4):
                optimizer.step()
            # ``ind.cost`` reads the same vector under both plan engines
            # (the arena engine stores handles in ``ind.plan``).
            return [
                (ind.genome, ind.cost, ind.rank, ind.crowding)
                for ind in optimizer.population
            ]

        baseline = evolve()
        monkeypatch.setattr(nsga2, "INDEXED_SORT_MIN_POPULATION", 1)
        forced = evolve()
        assert forced == baseline


class TestPlanCacheAndClimberStores:
    def test_plan_cache_identical_across_stores(self, chain_model):
        from oracle.plan_cache import PlanCache
        from oracle.random_plans import RandomPlanGenerator

        caches = {policy: PlanCache(store=policy) for policy in ALL_POLICIES}
        generator = RandomPlanGenerator(chain_model, random.Random(2))
        plans = [generator.random_bushy_plan() for _ in range(40)]
        for cache in caches.values():
            for plan in plans:
                for node in _all_nodes(plan):
                    cache.insert(node, alpha=1.1)
        reference = caches["flat"]
        for policy, cache in caches.items():
            assert len(cache) == len(reference), policy
            for relations in reference.table_sets():
                assert cache.frontier_costs(relations) == (
                    reference.frontier_costs(relations)
                ), policy

    def test_climber_identical_across_stores(self, chain_model):
        from repro.core.pareto_climb import ArenaParetoClimber
        from repro.core.random_plans import ArenaRandomPlanGenerator
        from repro.cost.batch import BatchCostModel

        batch_model = BatchCostModel(chain_model)
        start = ArenaRandomPlanGenerator(
            batch_model, random.Random(4)
        ).random_bushy_plan()
        results = {
            policy: ArenaParetoClimber(batch_model, store=policy).climb(start)
            for policy in ALL_POLICIES
        }
        reference = results["flat"]
        arena = batch_model.arena
        for policy, result in results.items():
            assert arena.cost(result.plan) == arena.cost(reference.plan), policy
            assert result.path_length == reference.path_length, policy


def _all_nodes(plan):
    from repro.plans.plan import JoinPlan

    yield plan
    if isinstance(plan, JoinPlan):
        yield from _all_nodes(plan.outer)
        yield from _all_nodes(plan.inner)
