"""Micro-benchmarks: complexity sanity checks for ParetoClimb.

* ``test_pareto_step_scaling`` measures one ParetoStep on 10- vs 40-table
  plans; per Lemma 2 the cost grows roughly linearly in the number of plan
  nodes, so the 40-table step must stay well below the quadratic ratio.
* ``test_climb_path_length_growth`` re-checks the Theorem 2 trend: the
  expected path length grows slowly with the query size.
* ``test_random_plan_generation`` benchmarks the linear-time random plan
  generator (Lemma 1).
"""

import random
import statistics
import time

from repro.core.pareto_climb import ArenaParetoClimber
from repro.core.random_plans import ArenaRandomPlanGenerator
from repro.cost.batch import BatchCostModel
from repro.cost.model import MultiObjectiveCostModel
from repro.query.generator import QueryGenerator
from repro.query.join_graph import GraphShape


def _batch_model(num_tables, seed=1):
    query = QueryGenerator(rng=random.Random(seed)).generate(num_tables, GraphShape.CHAIN)
    return BatchCostModel(MultiObjectiveCostModel(query, metrics=("time", "buffer", "disk")))


def _time_step(num_tables, repetitions=5):
    model = _batch_model(num_tables)
    generator = ArenaRandomPlanGenerator(model, random.Random(2))
    plans = [generator.random_bushy_plan() for _ in range(repetitions)]
    # A fresh climber per plan: ParetoStep memoizes per handle, and shared
    # sub-plans must not turn later steps into memo hits.
    climbers = [ArenaParetoClimber(model) for _ in plans]
    started = time.perf_counter()
    for climber, plan in zip(climbers, plans):
        climber.pareto_step(plan)
    return (time.perf_counter() - started) / repetitions


def test_pareto_step_scaling(benchmark):
    small = _time_step(10)
    large = benchmark.pedantic(_time_step, args=(40,), iterations=1, rounds=1)
    ratio = large / max(small, 1e-9)
    print(f"\nParetoStep mean time: 10 tables {small * 1e3:.2f} ms, "
          f"40 tables {large * 1e3:.2f} ms, ratio {ratio:.1f} (tables ratio 4.0)")
    # Linear-ish scaling: allow a generous constant over the 4x node ratio,
    # but reject clearly quadratic behaviour (16x) and worse.
    assert ratio < 14.0


def test_climb_path_length_growth(benchmark):
    def measure():
        medians = {}
        for num_tables in (5, 15, 30):
            model = _batch_model(num_tables, seed=3)
            generator = ArenaRandomPlanGenerator(model, random.Random(4))
            climber = ArenaParetoClimber(model)
            lengths = [climber.climb(generator.random_bushy_plan()).path_length for _ in range(5)]
            medians[num_tables] = statistics.median(lengths)
        return medians

    medians = benchmark.pedantic(measure, iterations=1, rounds=1)
    print(f"\nMedian climb path lengths: {medians}")
    # Path lengths stay small (the paper reports 4-6 for up to 100 tables).
    assert all(value <= 30 for value in medians.values())


def test_random_plan_generation(benchmark):
    model = _batch_model(50, seed=5)
    generator = ArenaRandomPlanGenerator(model, random.Random(6))
    plan = benchmark(generator.random_bushy_plan)
    assert model.arena.rel(plan) == model.query.relations
