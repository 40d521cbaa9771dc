"""Equivalence tests for frontier storage: the one insertion kernel.

Every Pareto set of the library is a :class:`~repro.pareto.engine.FrontierEntry`
updated one row at a time (``entry_covered`` / ``entry_append``) or one
batch at a time (``insert_batch``); :class:`~repro.pareto.frontier.ParetoFrontier`
and :func:`~repro.pareto.frontier.pareto_filter` are that kernel on one tag.
For any sequence of insertions — single, batch, or interleaved — the kept
items, their order, and every accept decision must equal the pure-Python
oracle (``oracle.pareto.ScalarParetoFrontier``; one scalar frontier per tag
for tagged rows).  These tests pin that under adversarial inputs: duplicate
costs, non-finite costs, all-dominated and all-incomparable batches, tagged
rows, α > 1, and randomized insert/batch interleavings.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle.pareto import ScalarParetoFrontier, scalar_pareto_filter
from repro.pareto.engine import (
    FrontierEntry,
    as_cost_matrix,
    entry_append,
    entry_covered,
    insert_batch,
)
from repro.pareto.frontier import ParetoFrontier, pareto_filter

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
    st.sampled_from([float("inf"), float("-inf"), float("nan"), 1e308]),
)
alphas = st.sampled_from([1.0, 1.5, 2.0])


def vectors(component, dim, max_size=60):
    return st.lists(
        st.tuples(*[component] * dim), min_size=1, max_size=max_size
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


def _reference_accepts(reference, rows):
    return [reference.insert(row) for row in rows]


# ---------------------------------------------------------------------------
# The kernel (through ParetoFrontier and on tagged entries) vs the oracle
# ---------------------------------------------------------------------------
class TestFrontierKernel:
    @given(vectors(gridded_cost, 3), alphas)
    def test_gridded_sequences(self, rows, alpha):
        frontier: ParetoFrontier = ParetoFrontier(alpha=alpha)
        reference: ScalarParetoFrontier = ScalarParetoFrontier(alpha=alpha)
        for row in rows:
            assert frontier.insert(row) == reference.insert(row), row
        assert frontier.items() == reference.items()

    @given(vectors(weird_cost, 3))
    def test_non_finite_sequences(self, rows):
        one_by_one: ParetoFrontier = ParetoFrontier()
        batched: ParetoFrontier = ParetoFrontier()
        reference: ScalarParetoFrontier = ScalarParetoFrontier()
        accepts = [one_by_one.insert(row) for row in rows]
        assert accepts == _reference_accepts(reference, rows)
        assert batched.insert_all(rows) == sum(accepts)
        expected = _normalized(reference.items())
        assert _normalized(one_by_one.items()) == expected
        assert _normalized(batched.items()) == expected

    @given(
        vectors(gridded_cost, 4, max_size=40),
        vectors(gridded_cost, 4, max_size=80),
        alphas,
    )
    def test_batch_after_seed(self, seed_rows, batch, alpha):
        frontier: ParetoFrontier = ParetoFrontier(alpha=alpha)
        reference: ScalarParetoFrontier = ScalarParetoFrontier(alpha=alpha)
        for row in seed_rows:
            frontier.insert(row)
            reference.insert(row)
        accepted = frontier.insert_all(batch)
        assert accepted == sum(_reference_accepts(reference, batch))
        assert frontier.items() == reference.items()

    @given(
        st.lists(
            st.tuples(st.booleans(), st.tuples(gridded_cost, gridded_cost)),
            min_size=1,
            max_size=40,
        ),
        alphas,
    )
    def test_insert_merge_interleavings(self, script, alpha):
        """Random interleavings of single inserts and batch merges."""
        frontier: ParetoFrontier = ParetoFrontier(alpha=alpha)
        reference: ScalarParetoFrontier = ScalarParetoFrontier(alpha=alpha)
        pending = []
        for is_merge, row in script:
            if is_merge and pending:
                accepted = frontier.insert_all(pending)
                assert accepted == sum(_reference_accepts(reference, pending))
                pending = []
            else:
                pending.append(row)
                assert frontier.insert(row) == reference.insert(row)
            assert frontier.items() == reference.items()

    def test_all_dominated_batch(self):
        frontier: ParetoFrontier = ParetoFrontier()
        frontier.insert((0.0, 0.0, 0.0))
        accepted = frontier.insert_all(
            [(float(i % 5 + 1), float(i % 3 + 1), float(i % 7 + 1)) for i in range(400)]
        )
        assert accepted == 0
        assert frontier.items() == [(0.0, 0.0, 0.0)]

    def test_all_incomparable_batch(self):
        rows = [(float(i), float(1000 - i)) for i in range(600)]
        frontier: ParetoFrontier = ParetoFrontier()
        assert frontier.insert_all(rows) == len(rows)
        assert frontier.items() == rows
        assert frontier.items() == scalar_pareto_filter(rows)

    def test_duplicate_costs_first_occurrence_kept(self):
        frontier: ParetoFrontier = ParetoFrontier()
        assert frontier.insert((1.0, 2.0))
        assert not frontier.insert((1.0, 2.0))
        assert frontier.insert((2.0, 1.0))
        assert frontier.insert((1.0, 1.0))
        assert frontier.items() == [(1.0, 1.0)]
        # Items with equal costs: the first one stays, in a batch too.
        items = [("a", (1.0, 2.0)), ("b", (1.0, 2.0)), ("c", (2.0, 1.0))]
        batched: ParetoFrontier = ParetoFrontier(cost_of=lambda item: item[1])
        assert batched.insert_all(items) == 2
        assert [name for name, _ in batched.items()] == ["a", "c"]

    @given(vectors(gridded_cost, 2, max_size=50), alphas, st.booleans())
    def test_tagged_insertions(self, rows, alpha, as_batch):
        """Tags partition the rows into independent frontiers."""
        tags = [index % 3 for index in range(len(rows))]
        references = {
            tag: ScalarParetoFrontier(cost_of=lambda item: item[1], alpha=alpha)
            for tag in range(3)
        }
        expected_accepts = [
            position
            for position, (row, tag) in enumerate(zip(rows, tags))
            if references[tag].insert((position, row))
        ]
        expected_kept = sorted(
            position
            for reference in references.values()
            for position, _ in reference.items()
        )
        entry = FrontierEntry(2)
        if as_batch:
            _, accepts = insert_batch(
                entry,
                as_cost_matrix(rows),
                np.asarray(tags, dtype=np.int64),
                alpha,
                lambda position: position,
            )
        else:
            accepts = []
            for position, (row, tag) in enumerate(zip(rows, tags)):
                cost = np.asarray(row, dtype=np.float64)
                if not entry_covered(entry, tag, cost, alpha):
                    entry_append(entry, position, tag, cost)
                    accepts.append(position)
        assert accepts == expected_accepts
        # Rows are only ever appended, so the survivors stay in insertion order.
        assert entry.handles == expected_kept
        assert entry.tags == [tags[position] for position in expected_kept]
        assert entry.rows.tolist() == [list(rows[position]) for position in expected_kept]

    def test_matches_scalar_reference_on_random_rows(self):
        rng = random.Random(20160626)
        rows = [
            tuple(float(rng.randrange(6)) for _ in range(3)) for _ in range(500)
        ]
        reference: ScalarParetoFrontier = ScalarParetoFrontier()
        for row in rows:
            reference.insert(row)
        one_by_one: ParetoFrontier = ParetoFrontier()
        for row in rows:
            one_by_one.insert(row)
        batched: ParetoFrontier = ParetoFrontier()
        batched.insert_all(rows)
        assert one_by_one.items() == reference.items()
        assert batched.items() == reference.items()

    def test_clear_resets_dimension(self):
        frontier: ParetoFrontier = ParetoFrontier()
        frontier.insert_all([(float(i), float(50 - i)) for i in range(50)])
        frontier.clear()
        assert len(frontier) == 0
        frontier.insert((1.0, 2.0, 3.0))  # the width may change after clear
        assert frontier.items() == [(1.0, 2.0, 3.0)]

    def test_ragged_batch_raises_before_keeping_any_row(self):
        frontier: ParetoFrontier = ParetoFrontier()
        frontier.insert((5.0, 5.0))
        with pytest.raises(ValueError):
            frontier.insert_all([(1.0, 1.0), (2.0,)])
        assert frontier.items() == [(5.0, 5.0)]
        empty: ParetoFrontier = ParetoFrontier()
        with pytest.raises(ValueError):
            empty.insert_all([(1.0, 1.0), (2.0, 3.0, 4.0)])
        assert empty.items() == []
        assert empty.insert((1.0, 2.0, 3.0))

    def test_zero_metric_rows(self):
        frontier: ParetoFrontier = ParetoFrontier()
        assert frontier.insert_all([(), ()]) == 1
        assert not frontier.insert(())
        assert frontier.items() == [()]
        assert scalar_pareto_filter([(), ()]) == pareto_filter([(), ()])


# ---------------------------------------------------------------------------
# Consumers: ParetoFrontier and pareto_filter against the oracle
# ---------------------------------------------------------------------------
class TestFrontierConsumers:
    @given(vectors(gridded_cost, 3, max_size=60))
    def test_pareto_frontier_items_identical(self, rows):
        plans = [("plan", index, row) for index, row in enumerate(rows)]
        frontier: ParetoFrontier = ParetoFrontier(cost_of=lambda plan: plan[2])
        reference: ScalarParetoFrontier = ScalarParetoFrontier(
            cost_of=lambda plan: plan[2]
        )
        for plan in plans:
            assert frontier.insert(plan) == reference.insert(plan)
        assert frontier.items() == reference.items()

    @given(vectors(gridded_cost, 3, max_size=120), alphas)
    def test_pareto_filter_identical(self, rows, alpha):
        assert pareto_filter(rows, alpha=alpha) == scalar_pareto_filter(rows, alpha=alpha)
