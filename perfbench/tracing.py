"""Spans around the program's layer boundaries, recorded from outside.

The traced run replaces each function in :data:`LAYER_WRAPS` with a
wrapper that records a span (name, start, end, parent span, thread) and
then calls the original.  Every function is wrapped *at the name its
caller looks up*: ``repro.core.pipeline`` calls ``forest_from_structure``
through its own module global, so that global is the one replaced.  A
missing target raises at install time, and :func:`layer_metrics` fails
the run when a metric assigned to a workload recorded no span there, so
a wrap that silently misses cannot report a zero.

Spans stay in memory; :meth:`Tracer.dump` writes them out at the end.
A span's self time is its duration minus the time its child spans
(always on the same thread, strictly nested) cover.
"""

from __future__ import annotations

import bisect
import importlib
import inspect
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: span name -> the (module, attribute path) pairs its callers look up.
LAYER_WRAPS: Dict[str, Sequence[Tuple[str, str]]] = {
    "logic.normalize": [("repro.core.pipeline", "normalize")],
    "graphs.coloring": [("repro.core.pipeline", "low_treedepth_coloring")],
    "core.forests": [("repro.core.pipeline", "forest_from_structure")],
    "core.forest_compiler": [
        ("repro.core.forest_compiler", "ForestCompiler.compile_blocks")],
    "core.shapes": [
        ("repro.core.forest_compiler", "labeled_shapes_for_block")],
    "core.exclusive_assignments": [
        ("repro.core.forest_compiler", "exclusive_assignments")],
    "circuits.optimize": [("repro.core.pipeline", "optimize_circuit")],
    "circuits.schedule": [("repro.core.pipeline", "build_schedule"),
                          ("repro.circuits.vectorized", "build_schedule")],
    "enumeration.context": [
        ("repro.enumeration.context", "EnumerationContext.__init__")],
    "serve.plan_store_save": [("repro.serve.plan_store", "PlanStore.save")],
    "serve.plan_store_load": [("repro.serve.plan_store", "PlanStore.load")],
    "analysis.verify": [("repro.serve.plan_store", "verify_plan"),
                        ("repro.analysis.verify", "verify_plan")],
    "engine.query_batch": [
        ("repro.engine.weighted_query", "WeightedQueryEngine.query_batch")],
    "circuits.sweep": [
        ("repro.circuits.vectorized", "VectorizedEvaluator.from_overrides"),
        ("repro.circuits.vectorized",
         "VectorizedEvaluator.from_uniform_overrides"),
        ("repro.circuits.vectorized", "VectorizedEvaluator.prepare_base")],
    "api.update_commit": [("repro.api.database", "UpdateContext.__exit__")],
    "api.set_weight": [("repro.api.database", "UpdateContext.set_weight")],
    "structures.set_weight": [
        ("repro.structures.structure", "Structure.set_weight")],
    "structures.fingerprint": [
        ("repro.structures.structure", "Structure.fingerprint")],
    "engine.affected_arguments": [
        ("repro.engine.weighted_query",
         "WeightedQueryEngine.affected_arguments")],
    # The scoped view's retag_many only delegates here, so wrapping it
    # too would count every retag twice.
    "serve.retag": [("repro.serve.result_cache", "ResultCache.retag_many")],
    "circuits.dynamic_update": [
        ("repro.circuits.evaluation", "DynamicEvaluator.update_input")],
    "api.bind_value": [("repro.api.prepared", "BoundQuery.value")],
    "api.group_by": [("repro.api.prepared", "PreparedQuery.group_by")],
}


class Span:
    """One recorded call.  ``info`` carries per-call counts (columns
    swept, entries retagged, request ids served, ...)."""

    __slots__ = ("name", "start", "end", "parent", "thread", "info",
                 "child_time")

    def __init__(self, name: str, start: float, parent: Optional["Span"],
                 thread: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.info: Optional[Dict[str, Any]] = None
        self.child_time = 0.0

    @property
    def self_time(self) -> float:
        return (self.end - self.start) - self.child_time


def _note_result(name: str, args: Tuple, result: Any
                 ) -> Optional[Dict[str, Any]]:
    """Per-call counts derived from a wrapped call's arguments/result."""
    if name == "circuits.sweep" and hasattr(result, "results"):
        # from_overrides(cls, circuit, sr, base, overrides) /
        # from_uniform_overrides(cls, circuit, sr, base, key_columns, value)
        columns = len(args[4])
        return {"columns": columns,
                "gate_evals": columns * len(args[1].gates)}
    if name == "serve.retag":
        return {"retagged": int(result)}
    if name == "graphs.coloring":
        return {"colors": len(set(result.values()))}
    if name == "engine.query_batch":
        return {"keys": [tuple(arguments) for arguments in args[1]]}
    if name == "api.group_by":
        shape = result.stats.get("sweep_shape")
        return {"columns": shape[1] if shape else 0}
    return None


class Tracer:
    """Records spans around the wrapped layer functions."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, original: Callable) -> Callable:
        clock = time.perf_counter
        spans = self.spans
        stack_of = self._stack

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            parent = stack[-1] if stack else None
            span = Span(name, clock(), parent, threading.get_ident())
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child_time += span.end - span.start
                spans.append(span)
            span.info = _note_result(name, args, result)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(original, "__name__", name)
        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self, wraps: Optional[Dict[str, Sequence[Tuple[str, str]]]]
                = None) -> None:
        """Wrap every target of ``wraps`` (default :data:`LAYER_WRAPS`).
        A module or attribute that does not exist raises — loudly."""
        for name, targets in (LAYER_WRAPS if wraps is None else wraps
                              ).items():
            for module_name, path in targets:
                owner: Any = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
                if isinstance(raw, classmethod):
                    # getattr_static sees the descriptor; the bound
                    # original receives the class as its first argument.
                    patched: Any = classmethod(self._wrap(name, raw.__func__))
                elif isinstance(raw, staticmethod):
                    patched = staticmethod(self._wrap(name, raw.__func__))
                else:
                    patched = self._wrap(name, raw)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    # -- reporting ---------------------------------------------------------------

    def self_seconds(self, name: str) -> float:
        return sum(span.self_time for span in self.spans
                   if span.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (ids are list positions)."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index, "name": span.name,
                    "start": span.start, "end": span.end,
                    "parent": (ids.get(id(span.parent))
                               if span.parent is not None else None),
                    "thread": span.thread,
                }
                if span.info:
                    record.update(span.info)
                handle.write(json.dumps(record, default=str) + "\n")


#: Per-layer metrics: name -> (unit, source).  A source is ``("self",
#: span)`` for summed self seconds, ``("calls", span)`` for a call
#: count, ``("info", span, field, fold)`` for a per-call count folded
#: with ``sum`` or ``max``, or ``("stats",)`` for a value the session
#: read from a public ``stats()`` or measured itself.
PER_LAYER: Dict[str, Tuple[Any, ...]] = {
    "logic.normalize_s": ("s", "self", "logic.normalize"),
    "graphs.coloring_s": ("s", "self", "graphs.coloring"),
    "graphs.colors": ("count", "info", "graphs.coloring", "colors", max),
    "core.forests_s": ("s", "self", "core.forests"),
    "core.forest_compiler_s": ("s", "self", "core.forest_compiler"),
    "core.shapes_calls": ("count", "calls", "core.shapes"),
    "core.shapes_s": ("s", "self", "core.shapes"),
    "core.exclusive_assignments_calls": (
        "count", "calls", "core.exclusive_assignments"),
    "core.exclusive_assignments_s": (
        "s", "self", "core.exclusive_assignments"),
    "circuits.optimize_s": ("s", "self", "circuits.optimize"),
    "circuits.schedule_s": ("s", "self", "circuits.schedule"),
    "circuits.gates": ("count", "stats"),
    "enumeration.context_s": ("s", "self", "enumeration.context"),
    "serve.plan_store_save_s": ("s", "self", "serve.plan_store_save"),
    "serve.plan_store_load_s": ("s", "self", "serve.plan_store_load"),
    "analysis.verify_s": ("s", "self", "analysis.verify"),
    "serve.result_cache_hit_ratio": ("ratio", "stats"),
    "serve.queue_wait_p50_ms": ("ms", "stats"),
    "serve.queue_wait_p99_ms": ("ms", "stats"),
    "serve.batches": ("count", "stats"),
    "serve.mean_batch": ("count", "stats"),
    "engine.query_batch_s": ("s", "self", "engine.query_batch"),
    "circuits.sweep_s": ("s", "self", "circuits.sweep"),
    "circuits.sweep_columns": ("count", "info", "circuits.sweep", "columns",
                               sum),
    "circuits.sweep_gate_evals": ("count", "info", "circuits.sweep",
                                  "gate_evals", sum),
    "circuits.kernel_fallbacks": ("count", "stats"),
    "load.generator_lag_p99_ms": ("ms", "stats"),
    "api.update_commit_s": ("s", "self", "api.update_commit"),
    "api.set_weight_s": ("s", "self", "api.set_weight"),
    "structures.set_weight_s": ("s", "self", "structures.set_weight"),
    "structures.fingerprint_calls": ("count", "calls",
                                     "structures.fingerprint"),
    "engine.affected_arguments_s": ("s", "self",
                                    "engine.affected_arguments"),
    "engine.affected_arguments_calls": ("count", "calls",
                                        "engine.affected_arguments"),
    "serve.retag_s": ("s", "self", "serve.retag"),
    "serve.retagged": ("count", "info", "serve.retag", "retagged", sum),
    "circuits.dynamic_update_s": ("s", "self", "circuits.dynamic_update"),
    "api.bind_value_s": ("s", "self", "api.bind_value"),
    "api.group_by_s": ("s", "self", "api.group_by"),
    "circuits.group_columns": ("count", "info", "api.group_by", "columns",
                               sum),
}

#: The compile and plan-store layers, which every workload's set-up
#: and reloads run.
COMPILE_LAYERS = (
    "logic.normalize_s", "graphs.coloring_s", "graphs.colors",
    "core.forests_s", "core.forest_compiler_s", "core.shapes_calls",
    "core.shapes_s", "core.exclusive_assignments_calls",
    "core.exclusive_assignments_s", "circuits.optimize_s",
    "circuits.schedule_s", "circuits.gates", "serve.plan_store_save_s",
    "serve.plan_store_load_s", "analysis.verify_s")

#: Which per-layer metrics each workload must move (the benchmark's
#: README says which end-to-end metric each should move there).  A
#: span-based one that records no span on its workload fails the run.
ASSIGNED: Dict[str, Tuple[str, ...]] = {
    "point-read": COMPILE_LAYERS + (
        "enumeration.context_s",
        "serve.result_cache_hit_ratio", "serve.queue_wait_p50_ms",
        "serve.queue_wait_p99_ms", "serve.batches", "serve.mean_batch",
        "engine.query_batch_s", "circuits.sweep_s", "circuits.sweep_columns",
        "circuits.sweep_gate_evals", "circuits.kernel_fallbacks",
        "load.generator_lag_p99_ms"),
    "write-mix": COMPILE_LAYERS + (
        "serve.result_cache_hit_ratio", "circuits.sweep_s",
        "circuits.sweep_columns", "circuits.sweep_gate_evals",
        "api.update_commit_s", "api.set_weight_s", "structures.set_weight_s",
        "structures.fingerprint_calls", "engine.affected_arguments_s",
        "engine.affected_arguments_calls", "serve.retag_s", "serve.retagged",
        "circuits.dynamic_update_s", "api.bind_value_s", "api.group_by_s",
        "circuits.group_columns"),
}


def layer_metrics(tracer: Tracer, workload: str, measured: Dict[str, Any]
                  ) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced run.

    ``measured`` holds the ``stats``-sourced values the session read.
    Raises ``RuntimeError`` when a metric assigned to ``workload`` has
    no span behind it (or, for a stats-sourced one, was not read)."""
    values: Dict[str, float] = {}
    missing = []
    assigned = ASSIGNED[workload]
    for metric, (_, kind, *source) in PER_LAYER.items():
        if kind == "stats":
            if metric not in measured and metric in assigned:
                missing.append(metric)
            values[metric] = float(measured.get(metric, 0.0))
            continue
        span = source[0]
        if metric in assigned and tracer.calls(span) == 0:
            missing.append(metric)
        if kind == "self":
            values[metric] = tracer.self_seconds(span)
        elif kind == "calls":
            values[metric] = float(tracer.calls(span))
        else:
            field, fold = source[1], source[2]
            counts = [span_.info.get(field, 0) for span_ in tracer.spans
                      if span_.name == span and span_.info]
            values[metric] = float(fold(counts)) if counts else 0.0
    if missing:
        raise RuntimeError(f"traced {workload} run recorded no spans (or no "
                           f"reading) for assigned per-layer metrics: "
                           f"{', '.join(missing)}")
    return values


def queue_waits(tracer: Tracer, requests: Any) -> List[float]:
    """Per-request queue wait of an open-loop phase: latency from due
    time minus the eval span of the batch that served the request.

    A request that was not a result-cache hit is served by the first
    ``engine.query_batch`` span that starts after it was sent and
    includes its key; the span's ``requests`` field lists it."""
    batches = sorted((span for span in tracer.spans
                      if span.name == "engine.query_batch" and span.info),
                     key=lambda span: span.start)
    starts = [span.start for span in batches]
    waits = []
    for index, key in enumerate(requests.keys):
        done = requests.done[index]
        if requests.inline[index] or done is None:
            continue
        wanted = (key,)
        at = bisect.bisect_left(starts, requests.sent[index])
        for span in batches[at:]:
            if wanted in span.info["keys"]:
                span.info.setdefault("requests", []).append(index)
                waits.append((done - requests.due[index])
                             - (span.end - span.start))
                break
    return waits
