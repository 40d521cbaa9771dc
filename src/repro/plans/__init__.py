"""Query plan substrate: plans, physical operators and transformations.

Plans follow the paper's model (Section 3): bushy binary trees whose leaves
are table scans and whose inner nodes are binary joins.  Every plan node is
labelled with a physical operator.  Operators also determine the *output data
representation* (materialized vs. pipelined), which is what the pseudo-code's
``SameOutput`` predicate compares.
"""

from repro.plans.arena import PlanArena
from repro.plans.operators import (
    DataFormat,
    JoinOperator,
    OperatorLibrary,
    ScanOperator,
)
from repro.plans.plan import JoinPlan, Plan, ScanPlan
from repro.plans.transformations import ArenaTransformationRules, TransformationRules
from repro.plans.printer import explain_plan, plan_signature
from repro.plans.validation import PlanValidationError, validate_plan

__all__ = [
    "DataFormat",
    "ScanOperator",
    "JoinOperator",
    "OperatorLibrary",
    "Plan",
    "ScanPlan",
    "JoinPlan",
    "PlanArena",
    "TransformationRules",
    "ArenaTransformationRules",
    "explain_plan",
    "plan_signature",
    "validate_plan",
    "PlanValidationError",
]
