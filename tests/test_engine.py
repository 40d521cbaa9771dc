"""Property and unit tests for the vectorized Pareto engine.

The engine (:mod:`repro.pareto.engine`) is the live path for frontier
insertion, the approximation-error indicator, and the hypervolume indicator.
These tests pin it against the pure-Python reference implementations
(:mod:`repro.pareto.dominance`, the scalar functions in
:mod:`repro.pareto.epsilon`, and the oracle's scalar frontier, Pareto
filter and hypervolume in ``tests/oracle/pareto.py``) on random inputs:
dominance matrices must match the pairwise scalar relations, engine-backed
frontiers must evolve identically to the scalar container (same kept
items, same order, same acceptance counts), the batched ε indicator must
be bit-identical to the scalar double loop, and the hypervolume variants
must agree up to floating-point accumulation.
"""

from __future__ import annotations


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pareto import engine
from repro.pareto.dominance import approx_dominates, dominates, strictly_dominates
from repro.pareto.epsilon import (
    approximation_error,
    approximation_error_scalar,
    is_alpha_approximation,
    is_alpha_approximation_scalar,
)
from repro.pareto.frontier import ParetoFrontier, pareto_filter
from repro.pareto.hypervolume import hypervolume
from oracle.pareto import ScalarParetoFrontier, hypervolume_scalar, scalar_pareto_filter

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
finite_cost = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
costs2 = st.tuples(finite_cost, finite_cost)
costs3 = st.tuples(finite_cost, finite_cost, finite_cost)
cost_lists3 = st.lists(costs3, min_size=1, max_size=40)
alphas = st.floats(min_value=1.0, max_value=50.0, allow_nan=False)

# Small-magnitude grids produce many dominance ties and duplicates, which is
# where sequential-equivalence bugs would hide.
gridded_cost = st.integers(min_value=0, max_value=4).map(float)
gridded3 = st.tuples(gridded_cost, gridded_cost, gridded_cost)
gridded_lists = st.lists(gridded3, min_size=1, max_size=40)


# ---------------------------------------------------------------------------
# Batched dominance vs. scalar relations
# ---------------------------------------------------------------------------
class TestDominanceMatrices:
    @given(cost_lists3, cost_lists3)
    def test_dominates_matrix_matches_scalar(self, first, second):
        matrix = engine.dominates_matrix(
            engine.as_cost_matrix(first), engine.as_cost_matrix(second)
        )
        for i, a in enumerate(first):
            for j, b in enumerate(second):
                assert matrix[i, j] == dominates(a, b)

    @given(cost_lists3, cost_lists3)
    def test_strict_matrix_matches_scalar(self, first, second):
        matrix = engine.strictly_dominates_matrix(
            engine.as_cost_matrix(first), engine.as_cost_matrix(second)
        )
        for i, a in enumerate(first):
            for j, b in enumerate(second):
                assert matrix[i, j] == strictly_dominates(a, b)

    @given(cost_lists3, cost_lists3, alphas)
    def test_approx_matrix_matches_scalar(self, first, second, alpha):
        matrix = engine.approx_dominates_matrix(
            engine.as_cost_matrix(first), engine.as_cost_matrix(second), alpha
        )
        for i, a in enumerate(first):
            for j, b in enumerate(second):
                assert matrix[i, j] == approx_dominates(a, b, alpha)

    def test_ragged_input_rejected(self):
        with pytest.raises(ValueError):
            engine.as_cost_matrix([(1.0, 2.0), (1.0,)])


# ---------------------------------------------------------------------------
# Engine-backed frontier vs. scalar reference container
# ---------------------------------------------------------------------------
class TestFrontierAgainstScalarReference:
    @given(cost_lists3, alphas)
    def test_sequential_insert_matches_reference(self, costs, alpha):
        vectorized: ParetoFrontier = ParetoFrontier(alpha=alpha)
        reference: ScalarParetoFrontier = ScalarParetoFrontier(alpha=alpha)
        for cost in costs:
            assert vectorized.insert(cost) == reference.insert(cost)
            assert vectorized.items() == reference.items()

    @given(gridded_lists, st.booleans())
    def test_batch_insert_matches_sequential_reference(self, costs, preload):
        vectorized: ParetoFrontier = ParetoFrontier()
        reference: ScalarParetoFrontier = ScalarParetoFrontier()
        if preload:
            seed = [(2.0, 2.0, 2.0), (0.0, 4.0, 1.0)]
            vectorized.insert_all(seed)
            for cost in seed:
                reference.insert(cost)
        accepted = vectorized.insert_all(costs)
        accepted_reference = sum(1 for cost in costs if reference.insert(cost))
        assert accepted == accepted_reference
        assert vectorized.items() == reference.items()

    @given(cost_lists3)
    def test_pareto_filter_matches_reference(self, costs):
        assert pareto_filter(costs) == scalar_pareto_filter(costs)

    def test_large_frontier_crosses_vectorized_threshold(self, rng):
        """A frontier of hundreds of rows evolves like the reference."""
        vectorized: ParetoFrontier = ParetoFrontier()
        reference: ScalarParetoFrontier = ScalarParetoFrontier()
        for _ in range(400):
            # Anti-correlated metrics keep almost every point non-dominated.
            u = rng.random()
            cost = (u, 1.0 - u, rng.random())
            assert vectorized.insert(cost) == reference.insert(cost)
        assert len(vectorized) > engine.SMALL_SET_SIZE
        assert vectorized.items() == reference.items()


# ---------------------------------------------------------------------------
# Insertion-kernel specifics (tags, eviction order, widths)
# ---------------------------------------------------------------------------
def _insert_row(entry, handle, cost, tag=0, alpha=1.0):
    """One-row insertion through the kernel; returns whether it was kept."""
    row = np.asarray(cost, dtype=np.float64)
    if engine.entry_covered(entry, tag, row, alpha):
        return False
    engine.entry_append(entry, handle, tag, row)
    return True


class TestFrontierKernel:
    def test_tags_partition_the_comparisons(self):
        entry = engine.FrontierEntry(2)
        assert _insert_row(entry, "a", (1.0, 1.0), tag=0)
        # Same cost, different tag: not compared, so kept.
        assert _insert_row(entry, "b", (1.0, 1.0), tag=1)
        # Dominated within tag 0: rejected.
        assert not _insert_row(entry, "c", (2.0, 2.0), tag=0)
        # Dominating within tag 1 evicts only the tag-1 row.
        assert _insert_row(entry, "d", (0.5, 0.5), tag=1)
        assert entry.handles == ["a", "d"]
        assert entry.tags == [0, 1]
        assert entry.rows.tolist() == [[1.0, 1.0], [0.5, 0.5]]
        # A batch keeps the same partition: (0.9, 0.9) is covered in tag 1
        # but evicts "a" in tag 0, and (0.4, 0.4) then evicts only "d".
        batch = engine.as_cost_matrix([(0.9, 0.9), (0.9, 0.9), (0.4, 0.4)])
        tags = np.asarray([1, 0, 1], dtype=np.int64)
        assert engine.insert_batch(entry, batch, tags, 1.0, "efg".__getitem__) == (
            2,
            [1, 2],
        )
        assert entry.handles == ["f", "g"]
        assert entry.tags == [0, 1]

    def test_eviction_keeps_the_survivors_in_order(self):
        frontier: ParetoFrontier = ParetoFrontier()
        for cost in [(1.0, 5.0), (5.0, 1.0), (4.0, 4.0)]:
            frontier.insert(cost)
        assert frontier.insert((3.0, 3.0))
        assert frontier.items() == [(1.0, 5.0), (5.0, 1.0), (3.0, 3.0)]

    def test_dimension_mismatch_rejected(self):
        frontier: ParetoFrontier = ParetoFrontier()
        frontier.insert((1.0, 2.0))
        with pytest.raises(ValueError):
            frontier.insert((1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            frontier.insert((0.5,))
        with pytest.raises(ValueError):
            frontier.insert_all([(0.5, 0.5, 0.5)])
        assert frontier.items() == [(1.0, 2.0)]

    def test_clear_resets_dimension(self):
        frontier: ParetoFrontier = ParetoFrontier()
        frontier.insert((1.0, 2.0))
        frontier.clear()
        assert not frontier
        assert frontier.insert((1.0, 2.0, 3.0))
        assert frontier.items() == [(1.0, 2.0, 3.0)]


# ---------------------------------------------------------------------------
# Approximation error: vectorized vs. scalar (bit-identical)
# ---------------------------------------------------------------------------
class TestApproximationErrorAgreement:
    @given(cost_lists3, cost_lists3)
    def test_error_is_bit_identical_to_scalar(self, produced, reference):
        assert approximation_error(produced, reference) == approximation_error_scalar(
            produced, reference
        )

    @given(cost_lists3, cost_lists3, alphas)
    def test_alpha_coverage_matches_scalar(self, produced, reference, alpha):
        assert is_alpha_approximation(
            produced, reference, alpha
        ) == is_alpha_approximation_scalar(produced, reference, alpha)

    def test_infinite_costs_match_scalar(self):
        """inf/inf component ratios are NaN; both paths must skip them.

        Regression test: the scalar ``max_ratio`` ignores NaN components, so
        a produced plan with an infinite metric must not silently count as a
        perfect cover of an infinite reference metric.
        """
        inf = float("inf")
        produced = [(inf, 2.0)]
        reference = [(inf, 1.0), (1.0, 1.0)]
        assert approximation_error_scalar(produced, reference) == inf
        assert approximation_error(produced, reference) == inf
        # Covering the inf reference point with a finite plan is factor-2
        # coverage of the finite metric and a zero ratio on the inf one.
        produced_finite = [(2.0, 2.0)]
        assert approximation_error(
            produced_finite, reference
        ) == approximation_error_scalar(produced_finite, reference)

    def test_large_inputs_chunked_reduction(self, rng):
        produced = [(rng.uniform(0.1, 10), rng.uniform(0.1, 10)) for _ in range(500)]
        reference = [(rng.uniform(0.1, 10), rng.uniform(0.1, 10)) for _ in range(500)]
        assert approximation_error(produced, reference) == approximation_error_scalar(
            produced, reference
        )


# ---------------------------------------------------------------------------
# Hypervolume: exact live path, fast sweep, scalar reference
# ---------------------------------------------------------------------------
class TestHypervolumeAgreement:
    @given(st.lists(costs2, min_size=0, max_size=15))
    def test_live_agrees_with_scalar_2d(self, costs):
        reference = (1e6 + 1.0, 1e6 + 1.0)
        exact = hypervolume(costs, reference)
        scalar = hypervolume_scalar(costs, reference)
        assert exact == pytest.approx(scalar, rel=1e-9, abs=1e-6)

    @given(st.lists(costs3, min_size=0, max_size=12))
    def test_live_agrees_with_scalar_3d(self, costs):
        reference = (1e6 + 1.0, 1e6 + 1.0, 1e6 + 1.0)
        exact = hypervolume(costs, reference)
        scalar = hypervolume_scalar(costs, reference)
        assert exact == pytest.approx(scalar, rel=1e-9, abs=1e-6)

    @given(st.lists(costs3, min_size=1, max_size=12))
    def test_fast_sweep_agrees_with_exact(self, costs):
        reference = (1e6 + 1.0,) * 3
        matrix = engine.as_cost_matrix([tuple(c) for c in costs])
        inside = np.all(matrix < np.asarray(reference), axis=1)
        cleaned = matrix[inside]
        if cleaned.shape[0] == 0:
            return
        front = engine.as_cost_matrix(pareto_filter(cleaned.tolist()))
        fast = engine.hypervolume_sweep(front, reference)
        exact = engine.hypervolume_exact(front, reference)
        assert fast == pytest.approx(exact, rel=1e-9, abs=1e-6)

    @settings(max_examples=50)
    @given(st.lists(costs2, min_size=1, max_size=12), costs2, costs2)
    def test_exact_monotone_under_union(self, costs, extra_a, extra_b):
        """The live hypervolume never decreases when points are added."""
        reference = (1e6 + 1.0, 1e6 + 1.0)
        base = hypervolume(costs, reference)
        one = hypervolume(costs + [extra_a], reference)
        two = hypervolume(costs + [extra_a, extra_b], reference)
        assert one >= base
        assert two >= one

    def test_infinite_reference_bound_matches_scalar(self):
        """A +inf reference bound gives interior points infinite extent.

        Regression test: the rational sweep cannot represent inf, so the
        live path must short-circuit to the same values the scalar float
        recursion produces.
        """
        inf = float("inf")
        assert hypervolume([(1.0, 1.0)], (inf, 2.0)) == inf
        assert hypervolume_scalar([(1.0, 1.0)], (inf, 2.0)) == inf
        # NaN / -inf bounds admit no strictly-dominating point at all.
        assert hypervolume([(1.0, 1.0)], (float("nan"), 2.0)) == 0.0
        assert hypervolume([(1.0, 1.0)], (-inf, 2.0)) == 0.0
        assert hypervolume_scalar([(1.0, 1.0)], (-inf, 2.0)) == 0.0
        # A -inf point coordinate has infinite dominated extent (and a NaN
        # coordinate never passes the strictly-inside cleaning).
        assert hypervolume([(-inf, 1.0)], (10.0, 10.0)) == inf
        assert hypervolume_scalar([(-inf, 1.0)], (10.0, 10.0)) == inf
        assert hypervolume([(float("nan"), 1.0)], (10.0, 10.0)) == 0.0
        assert hypervolume_scalar([(float("nan"), 1.0)], (10.0, 10.0)) == 0.0

    def test_exact_monotone_on_seed_counterexample(self):
        """The case that broke floating-point accumulation in the seed."""
        costs = [(0.0, 137440.56456262816), (6.853751722207469e-135, 0.0)]
        extra = (2.225073858507e-311, 1.3213931992650032)
        reference = (1000001.0, 1000001.0)
        assert hypervolume(costs + [extra], reference) >= hypervolume(costs, reference)


# ---------------------------------------------------------------------------
# Sequential dominance fold (ParetoStep pruning kernel)
# ---------------------------------------------------------------------------
class TestDominanceFold:
    @given(gridded_lists)
    def test_fold_matches_sequential_scan(self, costs):
        matrix = engine.as_cost_matrix(costs)
        incumbent = 0
        for j in range(1, len(costs)):
            if strictly_dominates(costs[j], costs[incumbent]):
                incumbent = j
        assert engine.dominance_fold(matrix) == incumbent

    def test_fold_rejects_empty(self):
        with pytest.raises(ValueError):
            engine.dominance_fold(engine.as_cost_matrix([]))


def test_insert_speedup_is_measurable(rng):
    """Smoke-check that batch insertion beats scalar insertion on 1000 vectors.

    The full measurement (with the ≥3× acceptance threshold) lives in
    ``benchmarks/bench_micro_pareto.py``; this test only guards against the
    vectorized path silently degrading to something slower than the scalar
    reference.
    """
    import timeit

    vectors = [
        (rng.random() * 100, rng.random() * 100, rng.random() * 100)
        for _ in range(1000)
    ]

    def scalar_run():
        frontier: ScalarParetoFrontier = ScalarParetoFrontier()
        for vector in vectors:
            frontier.insert(vector)
        return len(frontier)

    def batch_run():
        frontier: ParetoFrontier = ParetoFrontier()
        frontier.insert_all(vectors)
        return len(frontier)

    assert scalar_run() == batch_run()
    scalar_time = min(timeit.repeat(scalar_run, number=1, repeat=3))
    batch_time = min(timeit.repeat(batch_run, number=1, repeat=3))
    assert batch_time < scalar_time
