"""Tests for the columnar plan engine (arena + batch cost kernel).

Two layers of guarantees are pinned here:

1. **Kernel equivalence** — the vectorized metric kernels
   (``join_cost_batch``) and the batch cardinality/cross-product paths are
   *bit-identical* to the scalar kernels (``join_cost_cards``), including
   NaN/inf cardinalities and extreme magnitudes (hypothesis property tests
   mirroring the style of ``tests/test_store.py``).
2. **Oracle equivalence** — every search algorithm produces the results of
   the object-plan oracle (``tests/oracle``, the paper's pseudocode over
   ``Plan`` trees): same frontier contents and order, same RNG stream, same
   work counters — for random queries, every operator library and the
   ablation flags.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import oracle
from repro.baselines.iterative_improvement import IterativeImprovementOptimizer
from repro.baselines.nsga2 import NSGA2Optimizer
from repro.baselines.random_sampling import RandomSamplingOptimizer
from repro.baselines.simulated_annealing import SimulatedAnnealingOptimizer
from repro.baselines.two_phase import TwoPhaseOptimizer
from repro.baselines.weighted_sum import WeightedSumOptimizer
from repro.core.frontier import AlphaSchedule
from repro.core.rmq import RMQOptimizer
from repro.core.random_plans import ArenaRandomPlanGenerator
from repro.cost.batch import SMALL_SPEC_BATCH, BatchCostModel, JoinSpec
from repro.cost.metrics import CostModelConfig, metric_by_name
from repro.cost.model import MultiObjectiveCostModel
from repro.plans.operators import JoinAlgorithm, OperatorLibrary
from repro.plans.transformations import ArenaTransformationRules, TransformationRules
from repro.plans.validation import validate_plan
from repro.query.generator import QueryGenerator
from repro.query.join_graph import GraphShape

ALL_METRICS = ("time", "buffer", "disk", "monetary", "energy", "precision_loss")

#: Cardinalities spanning the pathological range: tiny, huge, subnormal-ish
#: products, and the non-finite values the estimator can produce.
cardinality = st.one_of(
    st.floats(min_value=1.0, max_value=1e12),
    st.sampled_from(
        [1.0, 2.0, 1e-3, 1e6, 1e18, 1e300, float("inf"), float("nan")]
    ),
)


def _join_operators():
    operators = []
    for library in (
        OperatorLibrary.default(),
        OperatorLibrary.cloud(),
        OperatorLibrary.sampling(),
    ):
        operators.extend(library.join_operators)
    return operators


JOIN_OPERATORS = _join_operators()
BNL_OPERATORS = [
    operator
    for operator in JOIN_OPERATORS
    if operator.algorithm is JoinAlgorithm.BLOCK_NESTED_LOOP
]

#: Cardinalities around the overflow edge: zero, one, tiny, huge finite
#: (1e154 squares past the float range), the largest decade, and infinity.
OVERFLOW_CARDINALITIES = (
    0.0, 1.0, 5e-324, 1e-300, 1e154, 1e200, 1e308, float("inf"),
)


class TestBatchKernelEquivalence:
    """join_cost_batch == join_cost_cards, bit for bit."""

    @given(
        st.lists(
            st.tuples(cardinality, cardinality, cardinality),
            min_size=1,
            max_size=40,
        ),
        st.integers(min_value=0, max_value=len(JOIN_OPERATORS) - 1),
        st.sampled_from(ALL_METRICS),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_kernel(self, rows, operator_index, metric_name):
        operator = JOIN_OPERATORS[operator_index]
        metric = metric_by_name(metric_name)
        config = CostModelConfig()
        outer = np.asarray([row[0] for row in rows])
        inner = np.asarray([row[1] for row in rows])
        output = np.asarray([row[2] for row in rows])
        try:
            expected = [
                metric.join_cost_cards(
                    float(o), float(i), operator, float(c), config
                )
                for o, i, c in rows
            ]
        except (OverflowError, ValueError):
            # The scalar kernel rejects e.g. ceil(log(inf)); the batch
            # kernel may either raise the same error or produce non-finite
            # values — it must not crash differently.
            try:
                metric.join_cost_batch(outer, inner, operator, output, config)
            except (OverflowError, ValueError):
                pass
            return
        batch = metric.join_cost_batch(outer, inner, operator, output, config)
        assert batch.shape == (len(rows),)
        for position, value in enumerate(expected):
            got = float(batch[position])
            assert got == value or (math.isnan(got) and math.isnan(value))

    @given(
        st.lists(
            st.tuples(*[st.sampled_from(OVERFLOW_CARDINALITIES)] * 3),
            min_size=1,
            max_size=20,
        ),
        st.sampled_from(BNL_OPERATORS),
        st.sampled_from(("time", "monetary", "energy")),
    )
    @settings(max_examples=200, deadline=None)
    def test_block_nested_loop_saturates_like_the_batch_kernel(
        self, rows, operator, metric_name
    ):
        # Neither kernel raises on an infinite page count; both return the
        # same bits (the block count of an infinite outer stays infinite).
        metric = metric_by_name(metric_name)
        config = CostModelConfig()
        columns = [np.asarray(column, dtype=np.float64) for column in zip(*rows)]
        with np.errstate(over="ignore", invalid="ignore"):
            batch = metric.join_cost_batch(*columns[:2], operator, columns[2], config)
        for position, (outer, inner, output) in enumerate(rows):
            scalar = metric.join_cost_cards(outer, inner, operator, output, config)
            assert np.float64(scalar).tobytes() == batch[position].tobytes(), (
                outer, inner, output,
            )

    @given(
        st.lists(st.tuples(cardinality, cardinality), min_size=1, max_size=30),
        st.floats(min_value=1e-9, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_batch_cardinality_matches_estimator_rule(self, pairs, selectivity):
        # The scalar rule: max(1.0, outer * inner * selectivity) — NaN maps
        # to 1.0 because Python's max keeps the first argument.
        outer = np.asarray([pair[0] for pair in pairs])
        inner = np.asarray([pair[1] for pair in pairs])
        products = outer * inner * selectivity
        batch = np.where(products > 1.0, products, 1.0)
        for position, (o, i) in enumerate(pairs):
            expected = max(1.0, o * i * selectivity)
            assert float(batch[position]) == expected


def _random_model(seed, num_tables=5, metrics=("time", "buffer", "disk"),
                  library=None, shape=GraphShape.CHAIN):
    query = QueryGenerator(rng=random.Random(seed)).generate(num_tables, shape)
    return MultiObjectiveCostModel(query, metrics=metrics, library=library)


class TestCrossProductEquivalence:
    """join_candidates == the scalar triple loop, candidate for candidate."""

    @pytest.mark.parametrize("seed", [3, 7, 11])
    @pytest.mark.parametrize(
        "library_name,metrics",
        [
            (None, ("time", "buffer", "disk")),
            ("cloud", ("time", "monetary")),
            ("sampling", ("time", "precision_loss")),
            (None, ALL_METRICS),
        ],
    )
    def test_matches_scalar_enumeration(self, seed, library_name, metrics):
        library = {
            None: None,
            "cloud": OperatorLibrary.cloud(),
            "sampling": OperatorLibrary.sampling(),
        }[library_name]
        model = _random_model(seed, metrics=metrics, library=library)
        batch_model = BatchCostModel(model)
        rng = random.Random(seed)
        # Random partial plans over two disjoint table sets, several per side
        # (duplicates included: the same sub-plan twice is a legal frontier
        # input for costing purposes).
        generator = ArenaRandomPlanGenerator(batch_model, rng)
        plans = [generator.random_bushy_plan() for _ in range(4)]
        arena = batch_model.arena
        outer_handles = []
        inner_handles = []
        for handle in plans:
            if arena.is_join(handle):
                outer_handles.append(arena.outer(handle))
                inner_handles.append(arena.inner(handle))
        outer_rel = arena.rel(outer_handles[0])
        inner_rel = arena.rel(inner_handles[0])
        outer_handles = [
            handle for handle in outer_handles if arena.rel(handle) == outer_rel
        ] * 2
        inner_handles = [
            handle for handle in inner_handles if arena.rel(handle) == inner_rel
        ] * 2
        if any(outer_rel & inner_rel):
            pytest.skip("random roots overlap")

        batch = batch_model.join_candidates([(outer_handles, inner_handles)])
        # Scalar enumeration through the object cost model.
        position = 0
        for outer_handle in outer_handles:
            outer_plan = arena.to_plan(outer_handle)
            for inner_handle in inner_handles:
                inner_plan = arena.to_plan(inner_handle)
                for operator in model.join_operators(outer_plan, inner_plan):
                    plan = model.make_join(outer_plan, inner_plan, operator)
                    assert tuple(batch.costs[position].tolist()) == plan.cost
                    assert float(batch.cardinalities[position]) == plan.cardinality
                    assert (
                        arena.operator(int(batch.op_codes[position])) == operator
                    )
                    position += 1
        assert position == batch.size


def _tree_nodes(arena, handle):
    """Every node of a handle's plan tree, root first."""
    nodes = [handle]
    for node in nodes:
        if arena.is_join(node):
            nodes.extend((arena.outer(node), arena.inner(node)))
    return nodes


def _neighbourhoods(batch_model, handle, max_nodes=None):
    """The climb neighbourhoods of a plan's join nodes as one pending list."""
    arena = batch_model.arena
    rules = ArenaTransformationRules(batch_model)
    joins = [node for node in _tree_nodes(arena, handle) if arena.is_join(node)]
    pending = []
    for node in joins[:max_nodes]:
        rules.mutations(node, pending)
    return pending


def _scalar_costed(model, arena, ref):
    """``ref`` as a Plan costed by the object model, children first."""
    if isinstance(ref, int):
        return arena.to_plan(ref)
    return model.make_join(
        _scalar_costed(model, arena, ref.outer),
        _scalar_costed(model, arena, ref.inner),
        arena.operator(ref.op_code),
    )


class TestCostSpecs:
    """One cost_specs call == the scalar kernel one spec at a time.

    Neighbourhoods come straight from the climb's transformation rules, so
    the lists mix handle children with pending intermediates, and the
    vectorized rounds (at least SMALL_SPEC_BATCH specs) as well as the
    scalar ones are checked against the object cost model.
    """

    @staticmethod
    def _model_and_plan(seed, num_tables, metrics, shape=GraphShape.CHAIN):
        model = _random_model(seed, num_tables=num_tables, metrics=metrics, shape=shape)
        batch_model = BatchCostModel(model)
        handle = ArenaRandomPlanGenerator(
            batch_model, random.Random(seed)
        ).random_bushy_plan()
        return model, batch_model, handle

    @staticmethod
    def _expected(model, arena, specs):
        try:
            plans = [_scalar_costed(model, arena, spec) for spec in specs]
        except OverflowError:
            # The scalar external-sort term rejects infinite page counts.
            reject()
        return [(plan.cardinality, plan.cost) for plan in plans]

    @given(
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=5, max_value=30),
        st.integers(min_value=1, max_value=30),
        st.sampled_from([("time", "buffer", "disk"), ("time",), ALL_METRICS]),
        st.sampled_from([GraphShape.CHAIN, GraphShape.CYCLE, GraphShape.STAR]),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_call_matches_scalar_children_first(
        self, seed, num_tables, max_nodes, metrics, shape
    ):
        model, batch_model, handle = self._model_and_plan(
            seed, num_tables, metrics, shape
        )
        specs = _neighbourhoods(batch_model, handle, max_nodes)
        expected = self._expected(model, batch_model.arena, specs)
        batch_model.cost_specs(specs)
        assert [(spec.cardinality, spec.cost) for spec in specs] == expected

    @pytest.mark.parametrize(
        "size", [1, SMALL_SPEC_BATCH - 1, SMALL_SPEC_BATCH, 4 * SMALL_SPEC_BATCH]
    )
    def test_list_sizes_around_batch_threshold(self, size, monkeypatch):
        # Only specs over two handles: no intermediates round, so the one
        # round holds exactly ``size`` specs.
        model, batch_model, handle = self._model_and_plan(4, 30, ("time", "buffer", "disk"))
        specs = [
            spec
            for spec in _neighbourhoods(batch_model, handle)
            if isinstance(spec.outer, int) and isinstance(spec.inner, int)
        ][:size]
        assert len(specs) == size
        expected = self._expected(model, batch_model.arena, specs)
        vectorized = []
        batch_kernel = BatchCostModel._cost_specs_batch

        def spy(self, round_specs):
            vectorized.append(len(round_specs))
            return batch_kernel(self, round_specs)

        monkeypatch.setattr(BatchCostModel, "_cost_specs_batch", spy)
        batch_model.cost_specs(specs)
        assert vectorized == ([size] if size >= SMALL_SPEC_BATCH else [])
        assert [(spec.cardinality, spec.cost) for spec in specs] == expected

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_lone_spec_on_uncosted_intermediate(self, seed):
        # Simulated annealing costs one chosen candidate alone; its pending
        # intermediate child is costed first, never read as a placeholder.
        model, batch_model, handle = self._model_and_plan(seed, 12, ("time", "buffer", "disk"))
        specs = _neighbourhoods(batch_model, handle)
        stacked = [
            spec
            for spec in specs
            if isinstance(spec.outer, JoinSpec) or isinstance(spec.inner, JoinSpec)
        ]
        uncosted_children = 0
        for spec in stacked:
            uncosted_children += any(
                isinstance(child, JoinSpec) and child.cost is None
                for child in (spec.outer, spec.inner)
            )
            (expected,) = self._expected(model, batch_model.arena, [spec])
            batch_model.cost_specs([spec])
            assert (spec.cardinality, spec.cost) == expected
            for child in (spec.outer, spec.inner):
                if isinstance(child, JoinSpec):
                    (child_expected,) = self._expected(model, batch_model.arena, [child])
                    assert (child.cardinality, child.cost) == child_expected
                    assert child.rel_bits == batch_model.arena.rel_bits(
                        batch_model.realize(child)
                    )
        assert uncosted_children > 0


ENGINE_CASES = [
    dict(),
    dict(metrics=("time",)),
    dict(metrics=ALL_METRICS),
    dict(library="cloud", metrics=("time", "monetary")),
    dict(library="sampling", metrics=("time", "precision_loss")),
    dict(library="minimal"),
    dict(num_tables=1),
    dict(num_tables=2),
    dict(shape=GraphShape.STAR),
    dict(shape=GraphShape.CYCLE),
    dict(num_tables=30),
]


def _build_model(case, seed):
    case = dict(case)
    library = {
        None: None,
        "cloud": OperatorLibrary.cloud(),
        "sampling": OperatorLibrary.sampling(),
        "minimal": OperatorLibrary.minimal(),
    }[case.pop("library", None)]
    return _random_model(
        seed,
        num_tables=case.pop("num_tables", 5),
        metrics=case.pop("metrics", ("time", "buffer", "disk")),
        library=library,
        shape=case.pop("shape", GraphShape.CHAIN),
    )


def _run(optimizer_class, case, seed, steps, **kwargs):
    """Frontier costs, RNG state and work counters after ``steps`` steps."""
    model = _build_model(case, seed)
    rng = random.Random(seed + 1)
    optimizer = optimizer_class(model, rng=rng, **kwargs)
    optimizer.run(max_steps=steps)
    return (
        [plan.cost for plan in optimizer.frontier()],
        rng.getstate(),
        optimizer.statistics.plans_built,
        optimizer.statistics.steps,
    )


def _assert_matches_oracle(runtime_class, oracle_class, case, seed, steps, **kwargs):
    expected = _run(oracle_class, case, seed, steps, **kwargs)
    assert _run(runtime_class, case, seed, steps, **kwargs) == expected


class TestEngineEquivalence:
    """runtime == object oracle: frontiers, RNG stream, and work counters."""

    @pytest.mark.parametrize("case", ENGINE_CASES, ids=lambda case: repr(case))
    def test_rmq(self, case):
        _assert_matches_oracle(
            RMQOptimizer, oracle.RMQOptimizer, case, seed=21, steps=10
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(left_deep_only=True),
            dict(use_climbing=False),
            dict(use_plan_cache=False),
            dict(schedule=AlphaSchedule.constant(1.0)),
            dict(schedule=AlphaSchedule.compressed()),
            dict(rules=TransformationRules(enable_associativity=False)),
            dict(rules=TransformationRules(enable_operator_change=False)),
            dict(rules=TransformationRules(enable_exchange=False)),
        ],
        ids=lambda kwargs: next(iter(kwargs)),
    )
    def test_rmq_variants(self, kwargs):
        _assert_matches_oracle(
            RMQOptimizer, oracle.RMQOptimizer, dict(), seed=33, steps=10, **kwargs
        )

    @pytest.mark.parametrize("seed", [2, 9])
    def test_random_sampling(self, seed):
        _assert_matches_oracle(
            RandomSamplingOptimizer,
            oracle.RandomSamplingOptimizer,
            dict(),
            seed=seed,
            steps=8,
        )

    @pytest.mark.parametrize("seed", [2, 9])
    def test_nsga2(self, seed):
        _assert_matches_oracle(
            NSGA2Optimizer,
            oracle.NSGA2Optimizer,
            dict(),
            seed=seed,
            steps=5,
            population_size=16,
        )

    @pytest.mark.parametrize("seed", [2, 9])
    def test_iterative_improvement(self, seed):
        _assert_matches_oracle(
            IterativeImprovementOptimizer,
            oracle.IterativeImprovementOptimizer,
            dict(),
            seed=seed,
            steps=6,
        )

    @pytest.mark.parametrize("seed", [2, 9])
    def test_simulated_annealing(self, seed):
        _assert_matches_oracle(
            SimulatedAnnealingOptimizer,
            oracle.SimulatedAnnealingOptimizer,
            dict(),
            seed=seed,
            steps=12,
        )

    @pytest.mark.parametrize("seed", [2, 9])
    def test_two_phase(self, seed):
        _assert_matches_oracle(
            TwoPhaseOptimizer, oracle.TwoPhaseOptimizer, dict(), seed=seed, steps=14
        )

    @pytest.mark.parametrize(
        "case", [dict(), dict(num_tables=1), dict(library="minimal")], ids=repr
    )
    def test_weighted_sum(self, case):
        _assert_matches_oracle(
            WeightedSumOptimizer,
            oracle.WeightedSumOptimizer,
            case,
            seed=4,
            steps=3,
            max_climb_steps=20,
        )

    def test_rmq_cache_state_matches(self):
        outcomes = []
        for optimizer_class in (RMQOptimizer, oracle.RMQOptimizer):
            model = _build_model(dict(), 5)
            optimizer = optimizer_class(model, rng=random.Random(6))
            optimizer.run(max_steps=8)
            cache = optimizer.plan_cache
            outcomes.append((
                sorted(tuple(sorted(rel)) for rel in cache.table_sets()),
                cache.total_plans,
                sorted(cache.frontier_costs(model.query.relations)),
            ))
        assert outcomes[0] == outcomes[1]


class TestMaterialization:
    """to_plan reconstructs bit-identical, valid Plan objects."""

    def test_materialized_frontier_validates(self, chain_model, chain_query_4):
        optimizer = RMQOptimizer(chain_model, rng=random.Random(3))
        optimizer.run(max_steps=5)
        for plan in optimizer.frontier():
            validate_plan(
                plan, chain_query_4, chain_model.library, chain_model.num_metrics
            )

    def test_shared_subplans_materialize_to_shared_objects(self, chain_model):
        batch_model = BatchCostModel(chain_model)
        scan = batch_model.make_scan(0, 0)
        other = batch_model.make_scan(1, 0)
        join = batch_model.make_join(scan, other, batch_model.join_codes_for(other)[0])
        plan = batch_model.arena.to_plan(join)
        assert plan.outer.table.index == 0
        assert plan.cost == batch_model.arena.cost(join)

    def test_hash_consing_dedupes_nodes(self, chain_model):
        batch_model = BatchCostModel(chain_model)
        first = batch_model.make_scan(0, 0)
        second = batch_model.make_scan(0, 0)
        assert first == second
        assert len(batch_model.arena) == 1

    def test_intern_plan_round_trips(self, chain_model, rng):
        from oracle.random_plans import RandomPlanGenerator

        plan = RandomPlanGenerator(chain_model, rng).random_bushy_plan()
        batch_model = BatchCostModel(chain_model)
        handle = batch_model.intern_plan(plan)
        assert batch_model.arena.cost(handle) == plan.cost
        assert batch_model.arena.to_plan(handle).structurally_equal(plan)


class TestDuplicateCandidates:
    """Duplicate candidate rows follow the first-occurrence rule."""

    def test_duplicate_rows_in_batch_keep_first(self, chain_model):
        batch_model = BatchCostModel(chain_model)
        from repro.core.plan_cache import ArenaPlanCache

        cache = ArenaPlanCache(batch_model)
        scan_a = batch_model.make_scan(0, 0)
        scan_b = batch_model.make_scan(1, 0)
        # The same frontier handle listed twice on each side: every
        # candidate appears (at least) four times with identical costs.
        batch = batch_model.join_candidates([([scan_a, scan_a], [scan_b, scan_b])])
        rel = chain_model.query.table(0).index, chain_model.query.table(1).index
        accepted = cache.insert_candidates(
            frozenset(rel), batch, [scan_a, scan_a], [scan_b, scan_b], alpha=1.0
        )
        costs = cache.frontier_costs(frozenset(rel))
        assert accepted == len(costs)
        assert len(set(costs)) == len(costs)  # duplicates collapsed
