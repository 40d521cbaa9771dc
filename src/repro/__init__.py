"""repro — reproduction of "A Fast Randomized Algorithm for Multi-Objective
Query Optimization" (Trummer & Koch, SIGMOD 2016).

The package provides:

* the RMQ randomized multi-objective query optimizer (the paper's
  contribution, :class:`~repro.core.rmq.RMQOptimizer`),
* every substrate it needs: a query/catalog model, random query generation,
  bushy plan representation with physical operators, multi-metric cost
  models, Pareto machinery,
* every baseline of the paper's evaluation (DP approximation schemes,
  iterative improvement, simulated annealing, two-phase optimization,
  NSGA-II),
* a benchmark harness that regenerates each figure of the evaluation.

Quickstart::

    from repro import (
        GraphShape, MultiObjectiveCostModel, QueryGenerator, RMQOptimizer
    )

    query = QueryGenerator().generate(num_tables=20, shape=GraphShape.CHAIN)
    cost_model = MultiObjectiveCostModel(query, metrics=("time", "buffer", "disk"))
    optimizer = RMQOptimizer(cost_model)
    plans = optimizer.run(max_steps=50)
    for plan in plans:
        print(plan.cost)
"""

from repro.query import Catalog, GraphShape, JoinGraph, Query, QueryGenerator, Table
from repro.query.generator import SelectivityModel
from repro.plans import (
    DataFormat,
    JoinOperator,
    JoinPlan,
    OperatorLibrary,
    Plan,
    ScanOperator,
    ScanPlan,
    TransformationRules,
    explain_plan,
    plan_signature,
    validate_plan,
)
from repro.cost import (
    CostModelConfig,
    MultiObjectiveCostModel,
    PlanFactory,
)
from repro.pareto import (
    ParetoFrontier,
    approx_dominates,
    approximation_error,
    dominates,
    hypervolume,
    strictly_dominates,
)
from repro.core import (
    AlphaSchedule,
    AnytimeOptimizer,
    RMQOptimizer,
)
from repro.baselines import (
    IterativeImprovementOptimizer,
    NSGA2Optimizer,
    SimulatedAnnealingOptimizer,
    TwoPhaseOptimizer,
    make_optimizer,
)

__version__ = "1.0.0"

__all__ = [
    # query substrate
    "Table",
    "Query",
    "JoinGraph",
    "GraphShape",
    "Catalog",
    "QueryGenerator",
    "SelectivityModel",
    # plans
    "Plan",
    "ScanPlan",
    "JoinPlan",
    "ScanOperator",
    "JoinOperator",
    "OperatorLibrary",
    "DataFormat",
    "TransformationRules",
    "explain_plan",
    "plan_signature",
    "validate_plan",
    # cost
    "MultiObjectiveCostModel",
    "PlanFactory",
    "CostModelConfig",
    # pareto
    "dominates",
    "strictly_dominates",
    "approx_dominates",
    "ParetoFrontier",
    "approximation_error",
    "hypervolume",
    # core algorithm
    "RMQOptimizer",
    "AlphaSchedule",
    "AnytimeOptimizer",
    # baselines
    "IterativeImprovementOptimizer",
    "SimulatedAnnealingOptimizer",
    "TwoPhaseOptimizer",
    "NSGA2Optimizer",
    "make_optimizer",
    "__version__",
]
