"""Per-layer attribution for the traced benchmark run.

The benchmark times each layer from outside: :class:`LayerSpans` replaces
public functions of the layers with wrappers that open a span on the active
:class:`repro.obs.Tracer` around every call, and restores the originals on
:meth:`LayerSpans.uninstall`.  Because the wrappers record through the same
tracer the program's own ``scenario.*``, ``dp.*`` and coordinator spans use,
one trace holds both, and the untraced runs execute the unmodified code.

:func:`attribute` turns a trace into per-op layer totals: each span's parent
is the innermost span on the same thread that contains it, and its self time
is its duration minus the durations of its children.  Spans are assigned to
the op whose ``perfbench.op`` window contains their start, whatever thread
recorded them (the service workload runs leaves on a worker thread).
"""

from __future__ import annotations

import bisect
import functools
import importlib
import sys
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro.obs as obs

#: Name of the root span the benchmark opens around every traced op.
OP_SPAN = "perfbench.op"


def _climb_attrs(args, kwargs, result) -> dict:
    return {"path_length": result.path_length, "plans_built": result.plans_built}


def _specs_attrs(args, kwargs, result) -> dict:
    return {"specs": len(args[1])}


def _batch_attrs(args, kwargs, result) -> dict:
    return {"candidates": result.size}


def _multi_attrs(args, kwargs, result) -> dict:
    return {"candidates": sum(batch.size for batch in result)}


def _insert_attrs(args, kwargs, result) -> dict:
    return {"rows": args[2].size, "accepted": result}


def _task_role(args, kwargs) -> str:
    task = args[1] if len(args) > 1 else kwargs["task"]
    return task.role


#: (module, class or ``None`` for a module function, attribute, span name,
#: span attributes taken from the call's arguments and result).  Classes are
#: those of the default (arena) plan engine.
TARGETS: Tuple[tuple, ...] = (
    ("repro.core.pareto_climb", "ArenaParetoClimber", "climb",
     "core.pareto_climb.climb", _climb_attrs),
    ("repro.plans.transformations", "ArenaTransformationRules", "mutations",
     "plans.transformations.mutations", None),
    ("repro.core.random_plans", "ArenaRandomPlanGenerator", "random_bushy_plan",
     "core.random_plans.random_bushy_plan", None),
    ("repro.cost.batch", "BatchCostModel", "cost_specs",
     "cost.batch.cost_specs", _specs_attrs),
    ("repro.cost.batch", "BatchCostModel", "join_candidates",
     "cost.batch.join_candidates", _batch_attrs),
    ("repro.cost.batch", "BatchCostModel", "join_candidates_multi",
     "cost.batch.join_candidates_multi", _multi_attrs),
    ("repro.core.frontier", "ArenaFrontierApproximator", "approximate",
     "core.frontier.approximate", None),
    ("repro.core.plan_cache", "ArenaPlanCache", "insert_candidates",
     "core.plan_cache.insert_candidates", _insert_attrs),
    ("repro.core.rmq", "RMQOptimizer", "step", "core.rmq.step", None),
    ("repro.core.rmq", "RMQOptimizer", "frontier", "core.rmq.frontier", None),
    ("repro.baselines.dp", "ArenaDPOptimizer", "step", "baselines.dp.step", None),
    ("repro.baselines.nsga2", "NSGA2Optimizer", "step", "baselines.nsga2.step", None),
    ("repro.baselines.simulated_annealing", "SimulatedAnnealingOptimizer", "step",
     "baselines.sa.step", None),
    ("repro.baselines.iterative_improvement", "IterativeImprovementOptimizer", "step",
     "baselines.ii.step", None),
    ("repro.baselines.two_phase", "TwoPhaseOptimizer", "step", "baselines.2p.step", None),
    ("repro.query.generator", "QueryGenerator", "generate",
     "query.generator.generate", None),
    ("repro.bench.tasks", None, "execute_task", "bench.tasks.execute_task", None),
    ("repro.bench.tasks", None, "build_test_case", "bench.tasks.build_test_case", None),
    ("repro.bench.runner", None, "reduce_task_results", "bench.runner.reduce", None),
    ("repro.pareto.epsilon", None, "approximation_error",
     "pareto.epsilon.approximation_error", None),
    ("repro.dist.service", "ServiceClient", "submit", "dist.service.submit", None),
    ("repro.dist.service", "ServiceClient", "wait", "dist.service.wait", None),
)


def _wrap(function: Callable, name: str, annotate: Optional[Callable]) -> Callable:
    """A span-recording twin of ``function`` (a no-op pass-through when off)."""
    split_by_role = name == "bench.tasks.execute_task"

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        tracer = obs.get_tracer()
        if not tracer.enabled:
            return function(*args, **kwargs)
        span_name = f"{name}.{_task_role(args, kwargs)}" if split_by_role else name
        with tracer.span(span_name):
            result = function(*args, **kwargs)
            if annotate is not None:
                tracer.event(span_name, **annotate(args, kwargs, result))
            return result

    return wrapper


class LayerSpans:
    """Installs and removes the layer wrappers of :data:`TARGETS`.

    Module functions are replaced in every loaded ``repro`` module that
    imported them by name, so callers that bound the function at import
    time reach the wrapper too.  A target the program no longer has is
    skipped and listed in :attr:`missing`, so a refactor shows up as a
    zero layer instead of a crash.
    """

    def __init__(self, targets: Sequence[tuple] = TARGETS) -> None:
        self._targets = targets
        self._patches: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    def install(self) -> None:
        if self._patches:
            return
        self.missing = []
        for module_name, owner_name, attribute, span_name, annotate in self._targets:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                module = None
            owner = module if owner_name is None else getattr(module, owner_name, None)
            if owner is None or not hasattr(owner, attribute):
                path = (module_name, owner_name, attribute)
                self.missing.append(".".join(part for part in path if part))
                continue
            original = getattr(owner, attribute)
            wrapper = _wrap(original, span_name, annotate)
            if owner_name is not None:
                self._patch(owner, attribute, wrapper)
                continue
            for holder in list(sys.modules.values()):
                holder_name = getattr(holder, "__name__", "") or ""
                if holder_name.split(".")[0] != "repro":
                    continue
                if getattr(holder, attribute, None) is original:
                    self._patch(holder, attribute, wrapper)

    def _patch(self, owner: object, attribute: str, wrapper: Callable) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


# --------------------------------------------------------------------------
# Attribution
# --------------------------------------------------------------------------
class SpanRecord:
    """One trace record with its computed parent, self time and op.

    Complete spans (``"X"``) carry a duration; instant events (``"i"``)
    carry the counts a wrapper took from the call's result.
    """

    __slots__ = ("name", "instant", "start", "end", "tid", "args", "parent", "child_us", "op")

    def __init__(self, event: dict) -> None:
        self.name = event["name"]
        self.instant = event["ph"] == "i"
        self.start = float(event["ts"])
        self.end = self.start + float(event.get("dur", 0.0))
        self.tid = event["tid"]
        self.args = event.get("args") or {}
        self.parent: Optional[SpanRecord] = None
        self.child_us = 0.0
        self.op: Optional[int] = None

    @property
    def duration_us(self) -> float:
        return self.end - self.start

    @property
    def self_us(self) -> float:
        return self.duration_us - self.child_us


def link_spans(events: Sequence[dict]) -> List[SpanRecord]:
    """Parent and op of every span and instant (see the module docstring)."""
    spans = [SpanRecord(event) for event in events if event.get("ph") in ("X", "i")]
    by_thread: Dict[object, List[SpanRecord]] = defaultdict(list)
    for span in spans:
        by_thread[span.tid].append(span)
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda span: (span.start, -span.end))
        stack: List[SpanRecord] = []
        for span in thread_spans:
            while stack and span.start >= stack[-1].end:
                stack.pop()
            if stack and span.end <= stack[-1].end:
                span.parent = stack[-1]
                stack[-1].child_us += span.duration_us
            if not span.instant:
                stack.append(span)
    roots = sorted(
        (span for span in spans if span.name == OP_SPAN), key=lambda span: span.start
    )
    starts = [root.start for root in roots]
    for span in spans:
        position = bisect.bisect_right(starts, span.start) - 1
        if position >= 0 and span.start <= roots[position].end:
            span.op = roots[position].args.get("op")
    return spans


def attribute(events: Sequence[dict]) -> "Attribution":
    """Per-name totals over every span that belongs to a traced op."""
    spans = link_spans(events)
    totals = Attribution()
    op_threads = {span.op: span.tid for span in spans if span.name == OP_SPAN}
    for span in spans:
        if span.op is None:
            continue
        if span.instant:
            for key, value in span.args.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    totals.attrs[f"{span.name}.{key}"] += value
            continue
        if span.name == OP_SPAN:
            totals.ops += 1
            totals.op_us += span.duration_us
            continue
        totals.self_us[span.name] += span.self_us
        if span.tid == op_threads[span.op]:
            totals.op_thread_self_us[span.name] += span.self_us
        totals.duration_us[span.name] += span.duration_us
        totals.calls[span.name] += 1
    return totals


class Attribution:
    """Sums of self time, duration, calls and numeric span attributes."""

    def __init__(self) -> None:
        self.ops = 0
        self.op_us = 0.0
        self.self_us: Dict[str, float] = defaultdict(float)
        #: Self time on the thread that ran the op (the rest overlaps it).
        self.op_thread_self_us: Dict[str, float] = defaultdict(float)
        self.duration_us: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.attrs: Dict[str, float] = defaultdict(float)

    def per_op_ms(self, total_us: float) -> float:
        return total_us / 1000.0 / self.ops if self.ops else 0.0

    def per_op(self, total: float) -> float:
        return total / self.ops if self.ops else 0.0
