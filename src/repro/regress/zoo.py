"""The workload zoo: the regression grid and its runner.

The zoo spans every result-affecting axis of the library on micro-scaled
inputs, so the full sweep replays in CI seconds:

* **5 join-graph shapes** — chain, cycle, star, clique, snowflake;
* **4 statistics models** — ``uniform`` (the paper's Steinbrunn setup),
  ``zipf`` (Zipf-skewed cardinalities + correlated/low selectivities),
  ``minmax`` (Bruno's MinMax selectivities), and ``job`` (the bundled
  micro-scaled IMDB/JOB catalog, fixed real statistics);
* **8 algorithms** — DP(2), RMQ, II, SA, 2P, NSGA-II, WeightedSum,
  RandomSampling.

Every coordinate re-derives its query, cost model and RNG streams from
:data:`ZOO_SEED` and the coordinate alone — the same purity discipline as
:mod:`repro.bench.tasks` — so the pinned fingerprints are reproducible on
any machine.  Randomized algorithms run a fixed micro step budget; DP runs
to completion under a step cap (its frontier stays empty until it
finishes), and a DP leaf that fails to finish raises instead of pinning a
half-run frontier.

The object-plan oracle under ``tests/oracle`` reproduces every pinned
fingerprint too (``tests/test_regress.py``), through the same inputs
(:func:`coordinate_inputs`) and the same run (:func:`pin_run`).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Tuple

from repro.bench.scenario import ScenarioScale, ScenarioSpec
from repro.bench.tasks import build_optimizer, build_test_case, reference_alpha
from repro.core.interface import AnytimeOptimizer, run_steps
from repro.cost.model import MultiObjectiveCostModel
from repro.query.catalog import job_sample_catalog
from repro.query.generator import CardinalityModel, SelectivityModel
from repro.query.join_graph import GraphShape
from repro.regress.archive import Archive, ArchiveEntry, Coordinate
from repro.regress.fingerprint import fingerprint_rows, frontier_rows
from repro.utils.rng import derive_rng

#: Base seed of the whole zoo (the paper's SIGMOD publication date).
ZOO_SEED = 20160626

#: Tables per zoo query: the smallest count every shape supports
#: (snowflake needs ≥ 4) that still yields non-trivial plan spaces.
ZOO_NUM_TABLES = 5

#: Cost metrics per zoo query (the paper's time/buffer/disk pool).
ZOO_NUM_METRICS = 3

#: Step budget of randomized algorithms (micro-scaled for CI).
ZOO_STEPS = 3

#: Step cap under which DP must run to completion (its frontier is empty
#: until it finishes); generous versus the ~2^5 subsets of a zoo query.
DP_STEP_CAP = 4096

#: NSGA-II population at zoo scale.
ZOO_NSGA_POPULATION = 12

#: Join-graph shapes of the zoo grid.
ZOO_SHAPES: Tuple[GraphShape, ...] = (
    GraphShape.CHAIN,
    GraphShape.CYCLE,
    GraphShape.STAR,
    GraphShape.CLIQUE,
    GraphShape.SNOWFLAKE,
)

#: Algorithms of the zoo grid (report names of ``make_optimizer``).
ZOO_ALGORITHMS: Tuple[str, ...] = (
    "DP(2)",
    "RMQ",
    "II",
    "SA",
    "2P",
    "NSGA-II",
    "WeightedSum",
    "RandomSampling",
)

#: Statistics models of the zoo grid, by name.
ZOO_STAT_MODELS: Tuple[str, ...] = ("uniform", "zipf", "minmax", "job")


def _stat_model_fields(stats: str) -> dict:
    """ScenarioSpec field overrides of one statistics model."""
    if stats == "uniform":
        return {}
    if stats == "zipf":
        return {
            "selectivity_model": SelectivityModel.CORRELATED,
            "cardinality_model": CardinalityModel.ZIPF,
        }
    if stats == "minmax":
        return {"selectivity_model": SelectivityModel.MINMAX}
    if stats == "job":
        return {"catalog_json": _job_catalog_json()}
    raise ValueError(f"unknown statistics model: {stats}")


_JOB_CATALOG_JSON_CACHE: List[str] = []


def _job_catalog_json() -> str:
    """Canonical JSON string of the bundled JOB catalog (cached)."""
    if not _JOB_CATALOG_JSON_CACHE:
        import json

        payload = job_sample_catalog().to_json_dict()
        _JOB_CATALOG_JSON_CACHE.append(
            json.dumps(payload, sort_keys=True, separators=(",", ":"))
        )
    return _JOB_CATALOG_JSON_CACHE[0]


def workload_name(shape: GraphShape, stats: str) -> str:
    """Zoo workload label, e.g. ``"snowflake-zipf"``."""
    return f"{shape.value}-{stats}"


def workload_spec(shape: GraphShape, stats: str) -> ScenarioSpec:
    """The scenario spec of one zoo workload.

    Reuses the benchmark harness' spec plumbing (query/metric derivation,
    scenario-level optimizer options) so zoo runs exercise the exact
    production code paths.
    """
    return ScenarioSpec(
        name=workload_name(shape, stats),
        description=f"regression-zoo workload {workload_name(shape, stats)}",
        graph_shapes=(shape,),
        table_counts=(ZOO_NUM_TABLES,),
        num_metrics=ZOO_NUM_METRICS,
        algorithms=ZOO_ALGORITHMS,
        num_test_cases=1,
        step_checkpoints=(ZOO_STEPS,),
        nsga_population=ZOO_NSGA_POPULATION,
        seed=ZOO_SEED,
        scale=ScenarioScale.SMOKE,
        **_stat_model_fields(stats),
    )


def zoo_coordinates() -> List[Coordinate]:
    """All grid points of the zoo, in canonical order."""
    coordinates: List[Coordinate] = []
    for shape in ZOO_SHAPES:
        for stats in ZOO_STAT_MODELS:
            for algorithm in ZOO_ALGORITHMS:
                coordinates.append(
                    Coordinate(
                        workload=workload_name(shape, stats),
                        algorithm=algorithm,
                        seed=ZOO_SEED,
                        alpha=_algorithm_alpha(algorithm),
                    )
                )
    return coordinates


def _algorithm_alpha(algorithm: str) -> float | None:
    """The α of DP-style algorithm names, ``None`` for everything else."""
    if algorithm.startswith("DP("):
        return reference_alpha(algorithm)
    return None


def _split_workload(workload: str) -> Tuple[GraphShape, str]:
    """Parse a workload label back into its (shape, statistics) pair."""
    shape_value, _, stats = workload.partition("-")
    try:
        shape = GraphShape(shape_value)
    except ValueError:
        raise ValueError(f"unknown workload {workload!r}") from None
    if stats not in ZOO_STAT_MODELS:
        raise ValueError(f"unknown workload {workload!r}")
    return shape, stats


def coordinate_inputs(
    coordinate: Coordinate,
) -> Tuple[ScenarioSpec, MultiObjectiveCostModel, random.Random]:
    """The scenario spec, cost model and algorithm RNG of one coordinate.

    Pure in the :mod:`repro.bench.tasks` sense: all three derive from the
    coordinate alone.
    """
    shape, stats = _split_workload(coordinate.workload)
    spec = workload_spec(shape, stats)
    if coordinate.seed != spec.seed:
        spec = ScenarioSpec.from_json_dict(
            {**spec.to_json_dict(), "seed": coordinate.seed}
        )
    cost_model = build_test_case(spec, shape, ZOO_NUM_TABLES, 0)
    rng = derive_rng(
        spec.seed, "algo", coordinate.algorithm, str(shape), ZOO_NUM_TABLES, 0
    )
    return spec, cost_model, rng


def pin_run(coordinate: Coordinate, optimizer: AnytimeOptimizer) -> ArchiveEntry:
    """Run ``optimizer`` for the coordinate's budget; fingerprint its frontier.

    Randomized algorithms run :data:`ZOO_STEPS` steps; DP runs to
    completion under :data:`DP_STEP_CAP` and raises if it does not finish.
    """
    is_exhaustive = coordinate.alpha is not None
    run_steps(optimizer, max_steps=DP_STEP_CAP if is_exhaustive else ZOO_STEPS)
    if is_exhaustive and not optimizer.finished:
        raise RuntimeError(
            f"{coordinate.label}: DP did not finish within {DP_STEP_CAP} "
            f"steps — refusing to pin a partial frontier"
        )
    rows = frontier_rows(optimizer.frontier())
    return ArchiveEntry(
        coordinate=coordinate,
        fingerprint=fingerprint_rows(rows),
        frontier_size=len(rows),
    )


def run_coordinate(coordinate: Coordinate) -> ArchiveEntry:
    """Run one zoo coordinate and return its fresh archive entry."""
    spec, cost_model, rng = coordinate_inputs(coordinate)
    optimizer = build_optimizer(coordinate.algorithm, cost_model, rng, spec)
    return pin_run(coordinate, optimizer)


def run_zoo(
    coordinates: List[Coordinate] | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> Archive:
    """Run the full zoo (or a subset) and return the fresh archive.

    ``progress`` is called as ``progress(done, total)`` after every
    coordinate — the CLI uses it for a coarse heartbeat.
    """
    todo = zoo_coordinates() if coordinates is None else coordinates
    archive = Archive()
    for index, coordinate in enumerate(todo):
        archive.record(run_coordinate(coordinate))
        if progress is not None:
            progress(index + 1, len(todo))
    return archive


def coverage_summary(archive: Archive) -> Dict[str, int]:
    """Distinct shapes / statistics models / algorithms pinned."""
    shapes = set()
    stats = set()
    algorithms = set()
    for entry in archive.entries():
        shape, stat = _split_workload(entry.coordinate.workload)
        shapes.add(shape)
        stats.add(stat)
        algorithms.add(entry.coordinate.algorithm)
    return {
        "shapes": len(shapes),
        "stat_models": len(stats),
        "algorithms": len(algorithms),
        "entries": len(archive),
    }
