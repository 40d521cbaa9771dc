"""Unit tests of the bushy-plan mutations (the object oracle's rules)."""

import pytest

from repro.plans.plan import JoinPlan
from oracle.transformations import TransformationRules
from repro.plans.validation import validate_plan


@pytest.fixture
def rules():
    return TransformationRules()


@pytest.fixture
def three_way_plan(chain_model):
    scans = [chain_model.default_scan(i) for i in range(3)]
    inner_join = chain_model.default_join(scans[0], scans[1])
    return chain_model.default_join(inner_join, scans[2])


class TestScanMutations:
    def test_identity_always_included(self, chain_model, rules):
        scan = chain_model.default_scan(0)
        mutations = rules.mutations(scan, chain_model)
        assert scan in mutations

    def test_operator_alternatives_generated(self, chain_model, rules):
        scan = chain_model.default_scan(0)
        mutations = rules.mutations(scan, chain_model)
        assert len(mutations) == len(chain_model.scan_operators(0))
        operators = {m.operator.name for m in mutations}
        assert operators == {op.name for op in chain_model.scan_operators(0)}

    def test_operator_change_can_be_disabled(self, chain_model):
        rules = TransformationRules(enable_operator_change=False)
        scan = chain_model.default_scan(0)
        assert rules.mutations(scan, chain_model) == [scan]


class TestJoinMutations:
    def test_mutations_preserve_table_set(self, chain_model, rules, three_way_plan):
        for mutated in rules.mutations(three_way_plan, chain_model):
            assert mutated.rel == three_way_plan.rel

    def test_mutations_are_valid_plans(self, chain_model, chain_query_4, rules):
        scans = [chain_model.default_scan(i) for i in range(4)]
        plan = chain_model.default_join(
            chain_model.default_join(scans[0], scans[1]),
            chain_model.default_join(scans[2], scans[3]),
        )
        for mutated in rules.mutations(plan, chain_model):
            validate_plan(mutated, chain_query_4, chain_model.library, chain_model.num_metrics)

    def test_commutativity_present(self, chain_model, rules):
        scans = [chain_model.default_scan(i) for i in range(2)]
        plan = chain_model.default_join(scans[0], scans[1])
        signatures = {
            m.join_order_signature() for m in rules.mutations(plan, chain_model)
        }
        swapped = ("join", ("scan", 1), ("scan", 0))
        assert swapped in signatures

    def test_associativity_present(self, chain_model, rules, three_way_plan):
        # ((0 ⋈ 1) ⋈ 2)  →  (0 ⋈ (1 ⋈ 2))
        signatures = {
            m.join_order_signature()
            for m in rules.mutations(three_way_plan, chain_model)
        }
        rotated = ("join", ("scan", 0), ("join", ("scan", 1), ("scan", 2)))
        assert rotated in signatures

    def test_exchange_present(self, chain_model, rules, three_way_plan):
        # ((0 ⋈ 1) ⋈ 2)  →  ((0 ⋈ 2) ⋈ 1)
        signatures = {
            m.join_order_signature()
            for m in rules.mutations(three_way_plan, chain_model)
        }
        exchanged = ("join", ("join", ("scan", 0), ("scan", 2)), ("scan", 1))
        assert exchanged in signatures

    def test_associativity_can_be_disabled(self, chain_model, three_way_plan):
        rules = TransformationRules(enable_associativity=False)
        signatures = {
            m.join_order_signature()
            for m in rules.mutations(three_way_plan, chain_model)
        }
        rotated = ("join", ("scan", 0), ("join", ("scan", 1), ("scan", 2)))
        assert rotated not in signatures

    def test_exchange_can_be_disabled(self, chain_model, three_way_plan):
        rules = TransformationRules(enable_exchange=False)
        signatures = {
            m.join_order_signature()
            for m in rules.mutations(three_way_plan, chain_model)
        }
        exchanged = ("join", ("join", ("scan", 0), ("scan", 2)), ("scan", 1))
        assert exchanged not in signatures

    def test_right_deep_rules(self, chain_model, rules):
        scans = [chain_model.default_scan(i) for i in range(3)]
        plan = chain_model.default_join(scans[0], chain_model.default_join(scans[1], scans[2]))
        signatures = {
            m.join_order_signature() for m in rules.mutations(plan, chain_model)
        }
        # right associativity: 0 ⋈ (1 ⋈ 2) → (0 ⋈ 1) ⋈ 2
        assert ("join", ("join", ("scan", 0), ("scan", 1)), ("scan", 2)) in signatures
        # right exchange: 0 ⋈ (1 ⋈ 2) → 1 ⋈ (0 ⋈ 2)
        assert ("join", ("scan", 1), ("join", ("scan", 0), ("scan", 2))) in signatures

    def test_mutation_count_bounded(self, chain_model, rules, three_way_plan):
        num_join_ops = len(chain_model.library.join_operators)
        mutations = rules.mutations(three_way_plan, chain_model)
        # identity + operator changes + (commute + assoc + exchange) * ops is a
        # loose constant bound that must not explode.
        assert len(mutations) <= 1 + num_join_ops + 3 * (num_join_ops + 1) + 3 * num_join_ops

    def test_minimal_library_single_table_has_only_identity(self, minimal_model):
        scan = minimal_model.default_scan(0)
        rules = TransformationRules()
        assert rules.mutations(scan, minimal_model) == [scan]


class TestRebuildJoin:
    def test_preferred_operator_kept_when_applicable(self, chain_model, rules):
        scans = [chain_model.default_scan(i) for i in range(2)]
        operator = chain_model.library.join_operator("sort_merge_join")
        rebuilt = rules.rebuild_join(scans[0], scans[1], operator, chain_model)
        assert rebuilt.operator == operator

    def test_fallback_when_not_applicable(self, chain_model, rules):
        scans = [chain_model.default_scan(i) for i in range(2)]
        bnl = chain_model.library.join_operator("bnl_join_small")
        # Default scans are pipelined, so a nested-loop style join is not
        # applicable and the rebuild must fall back to an applicable operator.
        rebuilt = rules.rebuild_join(scans[0], scans[1], bnl, chain_model)
        assert isinstance(rebuilt, JoinPlan)
        assert rebuilt.operator in chain_model.join_operators(scans[0], scans[1])
