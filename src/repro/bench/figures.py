"""Per-figure scenario specifications.

One constructor per figure of the paper's evaluation (plus the ablation
experiments listed in ARCHITECTURE.md, "Figure specs").  Each constructor
takes a :class:`~repro.bench.scenario.ScenarioScale`:

* ``PAPER`` reproduces the paper's grid (query sizes, 20 test cases, 3 s or
  30 s budgets, NSGA-II population 200).  Expect hours of runtime in pure
  Python.
* ``DEFAULT`` keeps all join-graph shapes and algorithms but shrinks query
  sizes, budgets and the number of test cases to minutes of runtime.
* ``SMOKE`` shrinks everything further to seconds; used by the pytest
  benchmark targets.

Figure 3 is not an error-versus-time grid; it is covered by
:func:`repro.bench.statistics.run_figure3_statistics`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Tuple

from repro.baselines import PAPER_ALGORITHMS
from repro.bench.scenario import ScenarioScale, ScenarioSpec
from repro.query.generator import CardinalityModel, SelectivityModel
from repro.query.join_graph import GraphShape

#: All three join-graph shapes of the evaluation.
ALL_SHAPES: Tuple[GraphShape, ...] = (
    GraphShape.CHAIN,
    GraphShape.CYCLE,
    GraphShape.STAR,
)

#: The randomized algorithms (used when DP is known not to contribute).
RANDOMIZED_ALGORITHMS: Tuple[str, ...] = ("SA", "2P", "NSGA-II", "II", "RMQ")


def _grid_scale(
    scale: ScenarioScale,
    paper_tables: Tuple[int, ...],
    default_tables: Tuple[int, ...],
    smoke_tables: Tuple[int, ...],
    paper_budget: float,
    default_budget: float = 1.0,
    smoke_budget: float = 0.25,
) -> Tuple[Tuple[int, ...], int, float, Tuple[float, ...], int]:
    """Common scale handling: (table counts, cases, budget, checkpoints, population)."""
    if scale is ScenarioScale.PAPER:
        tables, cases, budget, population = paper_tables, 20, paper_budget, 200
    elif scale is ScenarioScale.DEFAULT:
        tables, cases, budget, population = default_tables, 3, default_budget, 50
    else:
        tables, cases, budget, population = smoke_tables, 2, smoke_budget, 16
    checkpoints = tuple(budget * fraction for fraction in (0.25, 0.5, 0.75, 1.0))
    return tables, cases, budget, checkpoints, population


def _error_grid_spec(
    name: str,
    description: str,
    num_metrics: int,
    selectivity_model: SelectivityModel,
    scale: ScenarioScale,
    paper_tables: Tuple[int, ...],
    default_tables: Tuple[int, ...],
    smoke_tables: Tuple[int, ...],
    paper_budget: float,
    algorithms: Tuple[str, ...] = PAPER_ALGORITHMS,
    error_cap: float | None = None,
    reference_algorithm: str | None = None,
) -> ScenarioSpec:
    tables, cases, budget, checkpoints, population = _grid_scale(
        scale, paper_tables, default_tables, smoke_tables, paper_budget
    )
    return ScenarioSpec(
        name=name,
        description=description,
        graph_shapes=ALL_SHAPES,
        table_counts=tables,
        num_metrics=num_metrics,
        algorithms=algorithms,
        num_test_cases=cases,
        selectivity_model=selectivity_model,
        time_budget=budget,
        checkpoints=checkpoints,
        error_cap=error_cap,
        reference_algorithm=reference_algorithm,
        reference_time_budget=budget,
        nsga_population=population,
        scale=scale,
    )


# ---------------------------------------------------------------- main grid
def figure1_spec(scale: ScenarioScale = ScenarioScale.DEFAULT) -> ScenarioSpec:
    """Figure 1: median α error vs. time, two cost metrics, Steinbrunn joins."""
    return _error_grid_spec(
        name="figure1",
        description="Approximation error over time, 2 cost metrics (Steinbrunn selectivities)",
        num_metrics=2,
        selectivity_model=SelectivityModel.STEINBRUNN,
        scale=scale,
        paper_tables=(10, 25, 50, 75, 100),
        default_tables=(10, 25),
        smoke_tables=(6, 10),
        paper_budget=3.0,
    )


def figure2_spec(scale: ScenarioScale = ScenarioScale.DEFAULT) -> ScenarioSpec:
    """Figure 2: median α error vs. time, three cost metrics, Steinbrunn joins."""
    return _error_grid_spec(
        name="figure2",
        description="Approximation error over time, 3 cost metrics (Steinbrunn selectivities)",
        num_metrics=3,
        selectivity_model=SelectivityModel.STEINBRUNN,
        scale=scale,
        paper_tables=(10, 25, 50, 75, 100),
        default_tables=(10, 25),
        smoke_tables=(6, 10),
        paper_budget=3.0,
    )


# ------------------------------------------------------------ MinMax joins
def figure4_spec(scale: ScenarioScale = ScenarioScale.DEFAULT) -> ScenarioSpec:
    """Figure 4: two cost metrics with Bruno's MinMax join selectivities."""
    return _error_grid_spec(
        name="figure4",
        description="Approximation error over time, 2 cost metrics (MinMax selectivities)",
        num_metrics=2,
        selectivity_model=SelectivityModel.MINMAX,
        scale=scale,
        paper_tables=(25, 50, 75, 100),
        default_tables=(10, 25),
        smoke_tables=(6, 10),
        paper_budget=3.0,
    )


def figure5_spec(scale: ScenarioScale = ScenarioScale.DEFAULT) -> ScenarioSpec:
    """Figure 5: three cost metrics with Bruno's MinMax join selectivities."""
    return _error_grid_spec(
        name="figure5",
        description="Approximation error over time, 3 cost metrics (MinMax selectivities)",
        num_metrics=3,
        selectivity_model=SelectivityModel.MINMAX,
        scale=scale,
        paper_tables=(25, 50, 75, 100),
        default_tables=(10, 25),
        smoke_tables=(6, 10),
        paper_budget=3.0,
    )


# ---------------------------------------------------------- long time budget
def figure6_spec(scale: ScenarioScale = ScenarioScale.DEFAULT) -> ScenarioSpec:
    """Figure 6: two cost metrics, long optimization time, error capped at 1e10."""
    return _error_grid_spec(
        name="figure6",
        description="Approximation error (capped at 1e10) over a long budget, 2 cost metrics",
        num_metrics=2,
        selectivity_model=SelectivityModel.STEINBRUNN,
        scale=scale,
        paper_tables=(50, 100),
        default_tables=(25, 50),
        smoke_tables=(10, 15),
        paper_budget=30.0,
        error_cap=1e10,
    )


def figure7_spec(scale: ScenarioScale = ScenarioScale.DEFAULT) -> ScenarioSpec:
    """Figure 7: three cost metrics, long optimization time, error capped at 1e10."""
    return _error_grid_spec(
        name="figure7",
        description="Approximation error (capped at 1e10) over a long budget, 3 cost metrics",
        num_metrics=3,
        selectivity_model=SelectivityModel.STEINBRUNN,
        scale=scale,
        paper_tables=(50, 100),
        default_tables=(25, 50),
        smoke_tables=(10, 15),
        paper_budget=30.0,
        error_cap=1e10,
    )


# ------------------------------------------------------ precise small queries
def figure8_spec(scale: ScenarioScale = ScenarioScale.DEFAULT) -> ScenarioSpec:
    """Figure 8: precise error against a DP(1.01) reference, small queries, 2 metrics."""
    return _error_grid_spec(
        name="figure8",
        description="Precise approximation error vs. DP(1.01) reference, small queries, 2 metrics",
        num_metrics=2,
        selectivity_model=SelectivityModel.STEINBRUNN,
        scale=scale,
        paper_tables=(4, 8),
        default_tables=(4, 6),
        smoke_tables=(4, 5),
        paper_budget=30.0,
        reference_algorithm="DP(1.01)",
    )


def figure9_spec(scale: ScenarioScale = ScenarioScale.DEFAULT) -> ScenarioSpec:
    """Figure 9: precise error against a DP(1.01) reference, small queries, 3 metrics."""
    return _error_grid_spec(
        name="figure9",
        description="Precise approximation error vs. DP(1.01) reference, small queries, 3 metrics",
        num_metrics=3,
        selectivity_model=SelectivityModel.STEINBRUNN,
        scale=scale,
        paper_tables=(4, 8),
        default_tables=(4, 6),
        smoke_tables=(4, 5),
        paper_budget=30.0,
        reference_algorithm="DP(1.01)",
    )


# ------------------------------------------------------------------ ablations
def ablation_rmq_spec(scale: ScenarioScale = ScenarioScale.DEFAULT) -> ScenarioSpec:
    """Ablation A1: RMQ vs. variants without the plan cache / hill climbing."""
    return _error_grid_spec(
        name="ablation_rmq",
        description="RMQ design ablation: plan cache and hill climbing contributions",
        num_metrics=3,
        selectivity_model=SelectivityModel.STEINBRUNN,
        scale=scale,
        paper_tables=(25, 50),
        default_tables=(10, 25),
        smoke_tables=(6, 10),
        paper_budget=3.0,
        algorithms=("RMQ", "RMQ-NoCache", "RMQ-NoClimb", "RMQ-LeftDeep", "II"),
    )


def ablation_alpha_spec(scale: ScenarioScale = ScenarioScale.DEFAULT) -> ScenarioSpec:
    """Ablation A2: effect of the α schedule of Algorithm 3."""
    return _error_grid_spec(
        name="ablation_alpha",
        description="Effect of the frontier-approximation precision schedule",
        num_metrics=3,
        selectivity_model=SelectivityModel.STEINBRUNN,
        scale=scale,
        paper_tables=(25, 50),
        default_tables=(10, 25),
        smoke_tables=(6, 10),
        paper_budget=3.0,
        algorithms=("RMQ", "RMQ-AlphaFixed1", "RMQ-AlphaFixed25"),
    )


def zoo_spec(scale: ScenarioScale = ScenarioScale.DEFAULT) -> ScenarioSpec:
    """Workload zoo: every shape (incl. snowflake) under skewed statistics.

    Extends the paper's grid along the workload axes of the regression zoo:
    all five join-graph topologies, Zipf-skewed base-table cardinalities,
    and correlated/low selectivities.  Table counts start at the snowflake
    minimum (4 tables).
    """
    tables, cases, budget, checkpoints, population = _grid_scale(
        scale,
        paper_tables=(10, 25),
        default_tables=(6, 10),
        smoke_tables=(5, 6),
        paper_budget=3.0,
    )
    return ScenarioSpec(
        name="zoo",
        description="All join-graph shapes under skewed (Zipf/correlated) statistics",
        graph_shapes=ALL_SHAPES + (GraphShape.CLIQUE, GraphShape.SNOWFLAKE),
        table_counts=tables,
        num_metrics=3,
        algorithms=RANDOMIZED_ALGORITHMS,
        num_test_cases=cases,
        selectivity_model=SelectivityModel.CORRELATED,
        cardinality_model=CardinalityModel.ZIPF,
        time_budget=budget,
        checkpoints=checkpoints,
        nsga_population=population,
        scale=scale,
    )


#: Mapping from figure identifiers to spec constructors (used by tests/benches).
FIGURE_SPECS = {
    "figure1": figure1_spec,
    "figure2": figure2_spec,
    "figure4": figure4_spec,
    "figure5": figure5_spec,
    "figure6": figure6_spec,
    "figure7": figure7_spec,
    "figure8": figure8_spec,
    "figure9": figure9_spec,
    "ablation_rmq": ablation_rmq_spec,
    "ablation_alpha": ablation_alpha_spec,
    "zoo": zoo_spec,
}


# --------------------------------------------------- wall-clock-free variants
#: Step-count checkpoints of the step-driven figure variants, per scale.
#: They mirror the shape of the wall-clock checkpoints (four snapshots, the
#: last being the budget) but count optimizer iterations, so a run is fully
#: deterministic and regression-testable in CI.
STEP_CHECKPOINTS: Dict[ScenarioScale, Tuple[int, ...]] = {
    ScenarioScale.SMOKE: (2, 4, 6, 8),
    ScenarioScale.DEFAULT: (10, 20, 40, 80),
    ScenarioScale.PAPER: (100, 200, 400, 800),
}


def step_variant(
    spec: ScenarioSpec, step_checkpoints: Tuple[int, ...] | None = None
) -> ScenarioSpec:
    """Wall-clock-free variant of a figure spec.

    Replaces the spec's time budget with iteration-count checkpoints
    (:data:`STEP_CHECKPOINTS` for the spec's scale unless given explicitly)
    and drops the reference wall-clock budget — the DP reference scheme then
    runs to completion under its step-count safety cap, which keeps the
    precise small-query figures deterministic too.  ``run_scenario`` on a
    step variant returns bit-identical results for every worker count,
    granularity, and sharding.
    """
    checkpoints = (
        step_checkpoints if step_checkpoints is not None else STEP_CHECKPOINTS[spec.scale]
    )
    return replace(spec, step_checkpoints=checkpoints, reference_time_budget=None)


def _step_constructor(
    constructor: Callable[[ScenarioScale], ScenarioSpec],
) -> Callable[[ScenarioScale], ScenarioSpec]:
    def build(scale: ScenarioScale = ScenarioScale.DEFAULT) -> ScenarioSpec:
        return step_variant(constructor(scale))

    return build


#: Step-driven twin of every figure spec: same grid, metrics, and algorithms,
#: but driven by iteration counts (``FIGURE_SPECS`` keys, same call shape).
STEP_FIGURE_SPECS: Dict[str, Callable[[ScenarioScale], ScenarioSpec]] = {
    name: _step_constructor(constructor) for name, constructor in FIGURE_SPECS.items()
}
