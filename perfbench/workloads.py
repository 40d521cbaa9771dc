"""The benchmark's workloads.

Every op is a function of (workload seed, op index) alone, ops share no
state a faster build could change, and a run is a fixed count of ops, so two
builds always do the same work.  Inputs come from :func:`op_key`, never from
the clock.  Nothing touches the disk.

* ``rmq-large`` — the paper's headline regime: a fresh 100-table query
  (chain, cycle, star in turn; Steinbrunn statistics) optimized by two RMQ
  iterations on the default arena engine with the paper's α schedule.  Most
  time is in the hill climb and the batch cost kernel; DP, ``bench`` and
  ``dist`` are idle.
* ``figure9-case`` — one 5-table test case of Figure 9's step-driven twin
  (SMOKE checkpoints), all eight paper algorithms plus the DP(1.01)
  reference and error scoring, run sequentially through ``run_scenario``.
  The reference memo is cleared before each op, so every op pays for its
  reference like a fresh ``figure9 --steps`` run.  This is the DP workload.
* ``service-stream`` — a ``LeaseService`` in this process, one attached
  worker thread and one client: each op submits a fresh tiny step-driven
  spec (24 leaves at case granularity), waits, reduces, then resubmits the
  identical spec, which the dedup router must serve with zero leases.  Lease
  dispatch and dedup dominate; the optimizers are nearly idle.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import threading
from typing import Dict, List, Sequence, Tuple

from repro import (
    GraphShape,
    MultiObjectiveCostModel,
    QueryGenerator,
    RMQOptimizer,
    validate_plan,
)
from repro.bench import runner, tasks
from repro.bench.figures import ALL_SHAPES, STEP_FIGURE_SPECS
from repro.bench.scenario import ScenarioScale, ScenarioSpec
from repro.dist import ServiceClient, run_service_worker, start_service
from repro.obs import Metrics
from repro.pareto import strictly_dominates
from repro.plans.validation import PlanValidationError
from repro.regress.fingerprint import cost_row, fingerprint_rows, frontier_fingerprint

#: Input label of the warm-up op.  It differs from every integer seed, so
#: the warm-up never repeats a timed op (which would be a dedup hit on
#: ``service-stream``), and its digest is pinned for every run.
CANARY = "canary"

#: Longest a single op may take before it counts as failed.
OP_TIMEOUT_S = 60.0


class CheckFailed(Exception):
    """An op's output failed a correctness check; ``check`` names which."""

    def __init__(self, check: str, detail: str = "") -> None:
        super().__init__(f"{check}: {detail}" if detail else check)
        self.check = check


def op_key(workload: str, seed: object, index: int) -> str:
    """The string every input of one op is derived from."""
    return f"perfbench/{workload}/{seed}/{index}"


def op_seed(workload: str, seed: object, index: int) -> int:
    """A 31-bit integer seed for one op (stable across processes)."""
    digest = hashlib.sha256(op_key(workload, seed, index).encode("ascii")).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def fold_digests(digests: Sequence[Tuple[int, str]]) -> str:
    """One digest over ``(op index, op digest)`` pairs."""
    return fingerprint_rows({"op": index, "digest": digest} for index, digest in digests)


class Workload:
    """One workload: input generation, the timed op, and its checks.

    ``run`` is the timed part; ``check`` runs outside the timing and returns
    the op's digest or raises :class:`CheckFailed` (the warm-up op is checked
    with index -1).  ``finish`` runs checks
    that need the whole run and returns ``{op index: check name}`` for ops
    that failed them.
    """

    name = ""
    #: Nominal op cost: turns ``--seconds`` into a fixed op count.  It is a
    #: constant, never a measurement, so the count does not depend on speed.
    nominal_op_seconds = 1.0
    #: Known defects of the program, as ``Type@repro/module.py:function``
    #: (see ``run.failure_name``): counted as failed ops but not as wrong
    #: output.
    known_errors: Tuple[str, ...] = ()
    #: Layer spans every traced run of this workload must see called.
    traced_layers: Tuple[str, ...] = ()
    #: Whether the benchmark process runs on one CPU for this workload.
    single_cpu = False

    def op_input(self, seed: object, index: int):
        raise NotImplementedError

    def start(self) -> None:
        """Start what the ops need (the service workload's server)."""

    def run(self, op_input):
        raise NotImplementedError

    def check(self, index: int, op_input, output) -> str:
        raise NotImplementedError

    def finish(self) -> Dict[int, str]:
        return {}

    def layer_counts(self) -> Dict[str, float]:
        """Counts this workload gathers itself for the per-layer report."""
        return {}

    def close(self) -> None:
        """Stop everything :meth:`start` started and wait for it to end."""


# --------------------------------------------------------------------------
# rmq-large
# --------------------------------------------------------------------------
def _recost(model: MultiObjectiveCostModel, plan):
    """Rebuild ``plan`` bottom-up with the scalar cost model."""
    if not plan.is_join:
        return model.make_scan(plan.table.index, plan.operator)
    return model.make_join(
        _recost(model, plan.outer), _recost(model, plan.inner), plan.operator
    )


class RmqLarge(Workload):
    name = "rmq-large"
    # 48 ops per 30 s: enough that a few known failures leave the p75 tail
    # at least ten successful ops beyond it.
    nominal_op_seconds = 0.625
    # Intermediate page counts of some 100-table plans overflow to inf and
    # ``math.ceil(math.log(runs, fan_in))`` in the cost model's external-sort
    # term raises; kept visible until the cost model is fixed.
    known_errors = (
        "OverflowError@repro/cost/metrics.py:_merge_passes_batch",
        "OverflowError@repro/cost/metrics.py:_external_sort_cost",
    )
    traced_layers = (
        "query.generator.generate",
        "core.rmq.step",
        "core.rmq.frontier",
        "core.pareto_climb.climb",
        "plans.transformations.mutations",
        "core.random_plans.random_bushy_plan",
        "cost.batch.cost_specs",
        "cost.batch.join_candidates",
        "core.frontier.approximate",
        "core.plan_cache.insert_candidates",
    )

    NUM_TABLES = 100
    STEPS = 2
    METRICS = ("time", "buffer", "disk")
    SHAPES = (GraphShape.CHAIN, GraphShape.CYCLE, GraphShape.STAR)

    def op_input(self, seed: object, index: int):
        rng = random.Random(op_key(self.name, seed, index))
        return self.SHAPES[index % len(self.SHAPES)], rng.getrandbits(64), rng.getrandbits(64)

    def run(self, op_input):
        shape, query_seed, rmq_seed = op_input
        query = QueryGenerator(rng=random.Random(query_seed)).generate(self.NUM_TABLES, shape)
        model = MultiObjectiveCostModel(query, metrics=self.METRICS)
        plans = RMQOptimizer(model, random.Random(rmq_seed)).run(max_steps=self.STEPS)
        return model, plans

    def check(self, index: int, op_input, output) -> str:
        model, plans = output
        if not plans:
            raise CheckFailed("empty_frontier")
        for plan in plans:
            try:
                validate_plan(
                    plan, model.query, library=model.library, num_metrics=len(self.METRICS)
                )
            except PlanValidationError as exc:
                raise CheckFailed("validate_plan", str(exc)) from None
            if _recost(model, plan).cost != plan.cost:
                raise CheckFailed("recost", f"{plan.cost}")
        # The cache prunes per output format (Algorithm 3), so only plans of
        # one format must be mutually non-dominated.
        for first in plans:
            for second in plans:
                if (
                    first is not second
                    and first.output_format == second.output_format
                    and strictly_dominates(first.cost, second.cost)
                ):
                    raise CheckFailed("dominated_plan", f"{first.cost} < {second.cost}")
        return frontier_fingerprint(plans)


# --------------------------------------------------------------------------
# figure9-case
# --------------------------------------------------------------------------
def _cell_rows(cells) -> List[dict]:
    return [
        cost_row(
            tuple(cell.median_errors) + tuple(cell.median_frontier_sizes),
            shape=f"{cell.shape}/{cell.num_tables}/{cell.algorithm}",
        )
        for cell in cells
    ]


class Figure9Case(Workload):
    name = "figure9-case"
    nominal_op_seconds = 0.5
    traced_layers = (
        "bench.tasks.build_test_case",
        "bench.tasks.execute_task.algorithm",
        "bench.tasks.execute_task.reference",
        "baselines.dp.step",
        "baselines.nsga2.step",
        "baselines.sa.step",
        "baselines.ii.step",
        "baselines.2p.step",
        "core.rmq.step",
        "cost.batch.join_candidates_multi",
        "bench.runner.reduce",
        "pareto.epsilon.approximation_error",
    )

    NUM_TABLES = 5

    def __init__(self) -> None:
        self._base = STEP_FIGURE_SPECS["figure9"](ScenarioScale.SMOKE)

    def op_input(self, seed: object, index: int) -> ScenarioSpec:
        return dataclasses.replace(
            self._base,
            graph_shapes=(ALL_SHAPES[index % len(ALL_SHAPES)],),
            table_counts=(self.NUM_TABLES,),
            num_test_cases=1,
            seed=op_seed(self.name, seed, index),
            workers=1,
        )

    def run(self, spec: ScenarioSpec):
        tasks.clear_reference_memo()
        return runner.run_scenario(spec)

    def check(self, index: int, spec: ScenarioSpec, result) -> str:
        cells = result.cells
        if [cell.algorithm for cell in cells] != list(spec.algorithms):
            raise CheckFailed("cells", f"{len(cells)} cells")
        for cell in cells:
            errors = cell.median_errors
            if len(errors) != len(spec.step_checkpoints):
                raise CheckFailed("checkpoints", cell.algorithm)
            if not all(error >= 1.0 for error in errors):
                raise CheckFailed("error_below_one", f"{cell.algorithm}: {errors}")
        return fingerprint_rows(_cell_rows(cells))


# --------------------------------------------------------------------------
# service-stream
# --------------------------------------------------------------------------
def _result_rows(results) -> List[dict]:
    """Canonical rows of leaf results (wall-clock fields left out)."""
    return [
        cost_row(cost, shape=f"{result.task.task_id}@{record.checkpoint}/{record.steps}")
        for result in results
        for record in result.records
        for cost in record.frontier_costs
    ]


@dataclasses.dataclass
class ServiceOp:
    fresh_info: dict
    fresh: list
    cells: tuple
    duplicate_info: dict
    duplicate: list


class ServiceStream(Workload):
    name = "service-stream"
    nominal_op_seconds = 0.06
    # Client, event-loop and worker threads hand off to each other about a
    # hundred times per op.  On a small VM a handoff to an idle second vCPU
    # waits for the hypervisor to schedule it, which swung op latency by 2x
    # with the host's load; on one CPU every handoff is a local switch.  The
    # single-threaded workloads stay unpinned: there NumPy's BLAS helper
    # thread would share the one CPU with the op.
    single_cpu = True
    traced_layers = (
        "dist.service.submit",
        "dist.service.wait",
        "bench.tasks.execute_task.algorithm",
        "bench.runner.reduce",
    )

    #: Every this many ops, one job is re-executed in process after the run.
    SAMPLE_EVERY = 50

    def __init__(self) -> None:
        self.metrics = Metrics()
        self._handle = None
        self._stop = threading.Event()
        self._worker = None
        self._client = None
        self._samples: Dict[int, Tuple[ScenarioSpec, str]] = {}
        self._leaves_requested = 0
        self._leaves_injected = 0

    def op_input(self, seed: object, index: int) -> ScenarioSpec:
        return ScenarioSpec(
            name="service-stream",
            description="one tiny step-driven job of the service stream",
            graph_shapes=ALL_SHAPES,
            table_counts=(4,),
            num_metrics=3,
            algorithms=("RandomSampling",),
            num_test_cases=8,
            step_checkpoints=(1,),
            seed=op_seed(self.name, seed, index),
        )

    def start(self) -> None:
        self._handle = start_service(port=0, metrics=self.metrics)
        self._worker = threading.Thread(
            target=run_service_worker,
            args=(self._handle.address,),
            kwargs={"workers": 1, "stop": self._stop},
            name="perfbench-service-worker",
            daemon=True,
        )
        self._worker.start()
        self._client = ServiceClient(self._handle.address)

    def run(self, spec: ScenarioSpec) -> ServiceOp:
        client = self._client
        fresh_info = client.submit(spec, granularity="case", timeout=OP_TIMEOUT_S)
        fresh, _ = client.wait(fresh_info["job"], timeout=OP_TIMEOUT_S)
        cells = runner.reduce_task_results(spec, fresh)
        duplicate_info = client.submit(spec, granularity="case", timeout=OP_TIMEOUT_S)
        duplicate, _ = client.wait(duplicate_info["job"], timeout=OP_TIMEOUT_S)
        self._leaves_requested += fresh_info["tasks"] + duplicate_info["tasks"]
        self._leaves_injected += fresh_info["injected"] + duplicate_info["injected"]
        return ServiceOp(fresh_info, fresh, cells, duplicate_info, duplicate)

    def check(self, index: int, spec: ScenarioSpec, output: ServiceOp) -> str:
        fresh_info, duplicate_info = output.fresh_info, output.duplicate_info
        if fresh_info["scheduled"] != fresh_info["tasks"]:
            raise CheckFailed("fresh_scheduled", f"{fresh_info}")
        if duplicate_info["scheduled"] != 0:
            raise CheckFailed("duplicate_scheduled", f"{duplicate_info}")
        fresh_json = [result.to_json_dict() for result in output.fresh]
        if [result.to_json_dict() for result in output.duplicate] != fresh_json:
            raise CheckFailed("duplicate_results")
        if len(output.cells) != len(spec.graph_shapes) * len(spec.algorithms):
            raise CheckFailed("cells", f"{len(output.cells)} cells")
        digest = fingerprint_rows(_result_rows(output.fresh) + _cell_rows(output.cells))
        if index >= 0 and index % self.SAMPLE_EVERY == 0:
            self._samples[index] = (spec, fingerprint_rows(_result_rows(output.fresh)))
        return digest

    def finish(self) -> Dict[int, str]:
        """Re-execute sampled jobs in process and compare with the service."""
        mismatched: Dict[int, str] = {}
        for index, (spec, served) in self._samples.items():
            local = [tasks.execute_task(spec, task) for task in tasks.schedule_tasks(spec)]
            if fingerprint_rows(_result_rows(local)) != served:
                mismatched[index] = "reexecute"
        return mismatched

    def layer_counts(self) -> Dict[str, float]:
        return {
            "leaves_requested": self._leaves_requested,
            "leaves_injected": self._leaves_injected,
        }

    def close(self) -> None:
        if self._client is not None:
            self._client.close()
        self._stop.set()
        if self._handle is not None:
            self._handle.stop()
        if self._worker is not None:
            self._worker.join(timeout=30.0)


WORKLOADS = {
    workload.name: workload for workload in (RmqLarge, Figure9Case, ServiceStream)
}
