"""Scenario specifications.

A :class:`ScenarioSpec` captures every parameter of one experiment grid in
the paper's evaluation: which join-graph shapes and query sizes to cover, how
many cost metrics to select, which selectivity model to use when generating
queries, which algorithms to compare, how many random test cases to aggregate
over, and the per-algorithm time budget with its checkpoints.

Because the paper's exact settings (20 test cases, 3–30 s budgets, up to 100
tables) take hours in pure Python, each figure spec exists at three scales:

* ``SMOKE`` — seconds-level runs used by the pytest benchmarks,
* ``DEFAULT`` — minutes-level runs producing readable trends,
* ``PAPER`` — the paper's grid (run it when you have the time).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Tuple

from repro.cost.metrics import PAPER_METRICS
from repro.query.generator import CardinalityModel, SelectivityModel
from repro.query.join_graph import GraphShape


class ScenarioScale(str, Enum):
    """Size of a scenario run (see module docstring)."""

    SMOKE = "smoke"
    DEFAULT = "default"
    PAPER = "paper"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class ScenarioSpec:
    """Full description of one benchmark scenario.

    Attributes
    ----------
    name / description:
        Identification used in reports (e.g. ``"figure1"``).
    graph_shapes / table_counts:
        The grid of query workloads.
    num_metrics:
        Number of cost metrics per test case; metrics are sampled uniformly
        from ``metric_pool`` when fewer than the pool size (Section 6.1).
    metric_pool:
        Metrics to sample from (defaults to the paper's time/buffer/disk).
    selectivity_model:
        Steinbrunn (main experiments), MinMax (appendix experiments), or the
        workload-zoo correlated/low-selectivity model.
    cardinality_model:
        Uniform stratified sampling (the paper's setup) or Zipf-skewed
        strata (workload zoo).
    catalog_json:
        Optional catalog schema as a canonical JSON string
        (:meth:`repro.query.catalog.Catalog.to_json_dict`, serialized).
        When set, generated queries draw their tables from this fixed
        catalog instead of sampling synthetic statistics; the string form
        keeps the frozen spec hashable and provenance-stable.
    algorithms:
        Report names of the algorithms to compare (see
        :func:`repro.baselines.make_optimizer`).
    num_test_cases:
        Number of random queries per grid cell; medians are reported.
    time_budget / checkpoints:
        Per-algorithm wall-clock budget in seconds and the times at which the
        frontier is snapshotted.
    reference_algorithm / reference_time_budget:
        Optional extra algorithm (typically ``"DP(1.01)"``) run only to build
        the reference frontier, as in the precise small-query experiments.
    error_cap:
        Optional cap applied to reported approximation errors (Figures 6 and
        7 cap the plotted domain at 1e10).
    nsga_population:
        NSGA-II population size (200 in the paper, smaller at reduced scales).
    seed:
        Base seed; all randomness of the scenario derives from it.
    workers:
        Number of workers executing the benchmark tasks.  ``1`` (the
        default) runs every task on the calling thread; with ``N > 1``
        independent tasks run on ``N`` worker processes.  Per-task
        randomness is derived from ``seed`` and the task coordinates alone,
        never from execution order — but wall-clock budgets remain
        load-sensitive (concurrent tasks get less CPU per second, so anytime
        loops fit fewer iterations), so results are guaranteed identical for
        every worker count only when ``step_checkpoints`` drives the run.
    step_checkpoints:
        Optional iteration-count checkpoints.  When given, every algorithm is
        driven for exactly these step counts (instead of the wall-clock
        ``time_budget``/``checkpoints``), which makes the whole scenario
        fully deterministic — ``run_scenario`` then returns bit-identical
        results for every worker count, granularity, and sharding.
    granularity:
        Unit of work leased to workers: ``"cell"`` leases all tasks of
        one (shape, size) grid cell together (cheap IPC, the pre-task-graph
        behavior), ``"case"`` leases every (cell, case, algorithm) leaf task
        individually (parallelism within a cell, for scenarios with few
        cells).  The default ``"auto"`` picks between the two from the
        task-count/worker ratio
        (:func:`repro.bench.tasks.resolve_granularity`) — a pure function of
        the schedule and worker count, so results stay deterministic.
    """

    name: str
    description: str
    graph_shapes: Tuple[GraphShape, ...]
    table_counts: Tuple[int, ...]
    num_metrics: int
    algorithms: Tuple[str, ...]
    num_test_cases: int = 3
    selectivity_model: SelectivityModel = SelectivityModel.STEINBRUNN
    cardinality_model: CardinalityModel = CardinalityModel.UNIFORM
    catalog_json: str | None = None
    metric_pool: Tuple[str, ...] = PAPER_METRICS
    time_budget: float = 1.0
    checkpoints: Tuple[float, ...] = (0.25, 0.5, 1.0)
    reference_algorithm: str | None = None
    reference_time_budget: float | None = None
    error_cap: float | None = None
    nsga_population: int = 50
    seed: int = 20160626
    scale: ScenarioScale = ScenarioScale.DEFAULT
    extra: Tuple[Tuple[str, str], ...] = field(default=())
    workers: int = 1
    step_checkpoints: Tuple[int, ...] | None = None
    granularity: str = "auto"

    def __post_init__(self) -> None:
        if not self.graph_shapes:
            raise ValueError("scenario needs at least one graph shape")
        if not self.table_counts:
            raise ValueError("scenario needs at least one table count")
        if any(count < 2 for count in self.table_counts):
            raise ValueError("table counts must be at least 2")
        if not 1 <= self.num_metrics <= len(self.metric_pool):
            raise ValueError(
                f"num_metrics must be between 1 and {len(self.metric_pool)}"
            )
        if not self.algorithms:
            raise ValueError("scenario needs at least one algorithm")
        if self.num_test_cases < 1:
            raise ValueError("need at least one test case")
        if self.time_budget <= 0:
            raise ValueError("time budget must be positive")
        if not self.checkpoints:
            raise ValueError("need at least one checkpoint")
        if any(t <= 0 for t in self.checkpoints):
            raise ValueError("checkpoints must be positive times")
        if tuple(sorted(self.checkpoints)) != tuple(self.checkpoints):
            raise ValueError("checkpoints must be sorted ascending")
        if self.error_cap is not None and self.error_cap < 1.0:
            raise ValueError("error cap must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.step_checkpoints is not None:
            if not self.step_checkpoints:
                raise ValueError("step checkpoints must be non-empty when given")
            if any(count < 1 for count in self.step_checkpoints):
                raise ValueError("step checkpoints must be positive step counts")
            if tuple(sorted(self.step_checkpoints)) != tuple(self.step_checkpoints):
                raise ValueError("step checkpoints must be sorted ascending")
        if self.granularity not in ("cell", "case", "auto"):
            raise ValueError(
                f"granularity must be 'cell', 'case', or 'auto', "
                f"got {self.granularity!r}"
            )
        if self.catalog_json is not None:
            try:
                parsed = json.loads(self.catalog_json)
            except (TypeError, json.JSONDecodeError):
                raise ValueError("catalog_json must be a JSON object string") from None
            if not isinstance(parsed, dict):
                raise ValueError("catalog_json must be a JSON object string")

    # ------------------------------------------------------------ utilities
    @property
    def num_cells(self) -> int:
        """Number of (shape, table count) grid cells."""
        return len(self.graph_shapes) * len(self.table_counts)

    def with_scale_overrides(
        self,
        table_counts: Tuple[int, ...] | None = None,
        num_test_cases: int | None = None,
        time_budget: float | None = None,
        checkpoints: Tuple[float, ...] | None = None,
        nsga_population: int | None = None,
        scale: ScenarioScale | None = None,
    ) -> "ScenarioSpec":
        """Return a copy with selected fields replaced (used by figure specs)."""
        updates = {}
        if table_counts is not None:
            updates["table_counts"] = table_counts
        if num_test_cases is not None:
            updates["num_test_cases"] = num_test_cases
        if time_budget is not None:
            updates["time_budget"] = time_budget
        if checkpoints is not None:
            updates["checkpoints"] = checkpoints
        if nsga_population is not None:
            updates["nsga_population"] = nsga_population
        if scale is not None:
            updates["scale"] = scale
        return replace(self, **updates)

    # -------------------------------------------------------- serialization
    def to_json_dict(self) -> dict:
        """Plain-JSON representation of the spec (used by shard files).

        The mapping round-trips exactly through :meth:`from_json_dict`:
        enums become their string values, tuples become lists.
        """
        return {
            "name": self.name,
            "description": self.description,
            "graph_shapes": [str(shape) for shape in self.graph_shapes],
            "table_counts": list(self.table_counts),
            "num_metrics": self.num_metrics,
            "algorithms": list(self.algorithms),
            "num_test_cases": self.num_test_cases,
            "selectivity_model": str(self.selectivity_model),
            "cardinality_model": str(self.cardinality_model),
            "catalog_json": self.catalog_json,
            "metric_pool": list(self.metric_pool),
            "time_budget": self.time_budget,
            "checkpoints": list(self.checkpoints),
            "reference_algorithm": self.reference_algorithm,
            "reference_time_budget": self.reference_time_budget,
            "error_cap": self.error_cap,
            "nsga_population": self.nsga_population,
            "seed": self.seed,
            "scale": str(self.scale),
            "extra": [list(pair) for pair in self.extra],
            "workers": self.workers,
            "step_checkpoints": (
                None if self.step_checkpoints is None else list(self.step_checkpoints)
            ),
            "granularity": self.granularity,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_json_dict` output.

        Keys this version does not know are ignored, so payloads written by
        older versions (e.g. with the retired ``backend`` field) still load.
        """
        return cls(
            name=data["name"],
            description=data["description"],
            graph_shapes=tuple(GraphShape(shape) for shape in data["graph_shapes"]),
            table_counts=tuple(data["table_counts"]),
            num_metrics=data["num_metrics"],
            algorithms=tuple(data["algorithms"]),
            num_test_cases=data["num_test_cases"],
            selectivity_model=SelectivityModel(data["selectivity_model"]),
            cardinality_model=CardinalityModel(data.get("cardinality_model", "uniform")),
            catalog_json=data.get("catalog_json"),
            metric_pool=tuple(data["metric_pool"]),
            time_budget=data["time_budget"],
            checkpoints=tuple(data["checkpoints"]),
            reference_algorithm=data["reference_algorithm"],
            reference_time_budget=data["reference_time_budget"],
            error_cap=data["error_cap"],
            nsga_population=data["nsga_population"],
            seed=data["seed"],
            scale=ScenarioScale(data["scale"]),
            extra=tuple(tuple(pair) for pair in data["extra"]),
            workers=data["workers"],
            step_checkpoints=(
                None
                if data["step_checkpoints"] is None
                else tuple(data["step_checkpoints"])
            ),
            granularity=data.get("granularity", "cell"),
        )
