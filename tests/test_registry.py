"""Tests for the algorithm registry (repro.baselines.make_optimizer)."""

import random

import pytest

from repro.baselines import (
    PAPER_ALGORITHMS,
    available_algorithms,
    make_optimizer,
)
from repro.baselines.dp import ArenaDPOptimizer
from repro.core.interface import AnytimeOptimizer
from repro.core.rmq import RMQOptimizer


class TestRegistry:
    def test_paper_algorithms_all_available(self):
        names = available_algorithms()
        for name in PAPER_ALGORITHMS:
            assert name in names

    def test_paper_algorithm_order_matches_figure_legend(self):
        assert PAPER_ALGORITHMS == (
            "DP(Infinity)",
            "DP(1000)",
            "DP(2)",
            "SA",
            "2P",
            "NSGA-II",
            "II",
            "RMQ",
        )

    def test_make_optimizer_returns_anytime_optimizers(self, chain_model):
        for name in PAPER_ALGORITHMS:
            optimizer = make_optimizer(name, chain_model, random.Random(0))
            assert isinstance(optimizer, AnytimeOptimizer)

    def test_unknown_name_rejected(self, chain_model):
        with pytest.raises(KeyError):
            make_optimizer("SimulatedQuantumAnnealing", chain_model)

    def test_dp_alpha_parsed_from_name(self, chain_model):
        dp2 = make_optimizer("DP(2)", chain_model)
        assert isinstance(dp2, ArenaDPOptimizer)
        assert dp2.alpha == 2.0
        dp_inf = make_optimizer("DP(Infinity)", chain_model)
        assert dp_inf.alpha >= 1e12

    def test_rmq_variants_available(self, chain_model):
        for name in ("RMQ-NoCache", "RMQ-NoClimb", "RMQ-LeftDeep", "RMQ-AlphaFixed1"):
            optimizer = make_optimizer(name, chain_model, random.Random(0))
            assert isinstance(optimizer, RMQOptimizer)

    def test_default_rng_created_when_omitted(self, chain_model):
        optimizer = make_optimizer("II", chain_model)
        assert isinstance(optimizer, AnytimeOptimizer)

    @pytest.mark.parametrize("name", ["RMQ", "II", "SA", "2P", "NSGA-II"])
    def test_all_randomized_algorithms_produce_plans(self, name, chain_model):
        optimizer = make_optimizer(name, chain_model, random.Random(11))
        frontier = optimizer.run(max_steps=3)
        assert frontier, f"{name} produced no plans after 3 steps"
