"""QueryService: concurrent point queries served by micro-batched sweeps.

The paper's economics are "linear preprocessing, then O_k(1) per
lookup"; the serving layer turns that into throughput under concurrent
load.  Client threads call :meth:`QueryService.query` from anywhere; the
service coalesces concurrent requests into *micro-batches* (bounded by
``max_batch_size``, with at most ``max_batch_delay`` seconds of
coalescing latency) and dispatches each batch through
``CompiledQuery.evaluate_batch`` — one vectorized sweep amortizes the
per-probe interpreter overhead over the whole batch, which is where a
naive per-query ``engine.query`` loop spends its time.

Three layers compose here:

* **micro-batching** — a FIFO request queue drained by one dispatcher
  thread; identical argument tuples inside a batch are deduplicated
  before evaluation;
* **plan caching** — the engine compiles through one :class:`PlanCache`,
  so later services over equal content reuse the Theorem 6 compilation;
* **result caching** — an epoch-tagged :class:`ResultCache` keyed by
  argument tuple, invalidated precisely by the touched-gate reporting of
  ``update_weight``/``set_relation``: only an update that actually
  recomputes gates advances the epoch.

Updates go through the service (:meth:`update_weight` /
:meth:`set_relation`), which applies them to the engine under a lock;
batches already in flight may see either state — the usual serving
semantics.  Use the service as a context manager: ``close()`` drains the
accepted requests, stops the dispatcher, and closes the engine, which
strips its selector weights from the host structure.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, Dict, Hashable, List, Optional, \
    Sequence, Tuple

from ..circuits import DEFAULT_MAX_GROUPS, validate_backend, \
    validate_exact_mode
from ..engine import WeightedQueryEngine
from ..logic.weighted import WExpr
from ..semirings import Semiring, ensure_mergeable
from ..structures import Structure
from .plan_cache import PlanCache
from .result_cache import MISS, ResultCache


class QueryService:
    """Serve concurrent point queries of one compiled weighted query.

    One dispatcher thread drains the request queue into micro-batches
    for the service's one engine; ``max_batch_size``/``max_batch_delay``
    bound each micro-batch's size and coalescing latency; ``backend`` is
    forwarded to ``evaluate_batch`` (``"auto"`` picks the vectorized
    NumPy backend when the semiring has an array kernel).

    ``plan_cache`` defaults to a private :class:`PlanCache`; pass a
    shared instance to reuse compilations across services.  Set
    ``result_cache_size=0`` to disable result caching.
    """

    def __init__(self, structure: Structure, expr: WExpr, sr: Semiring,
                 dynamic_relations: Sequence[str] = (),
                 free_order: Optional[Sequence[str]] = None,
                 strategy: Optional[str] = None,
                 optimize: bool = True,
                 max_batch_size: int = 64,
                 max_batch_delay: float = 0.002,
                 backend: str = "auto",
                 exact_mode: str = "auto",
                 plan_cache: Optional[PlanCache] = None,
                 plan_store: Optional[Any] = None,
                 result_cache_size: int = 1024,
                 result_cache: Optional[Any] = None,
                 workers: Optional[int] = None,
                 executor: Optional[Any] = None,
                 verify: Optional[bool] = None):
        validate_backend(backend)
        validate_exact_mode(exact_mode)
        # The service folds partial aggregates in arrival order (batch
        # dedup, grouped rollups); a semiring that has not declared its
        # ⊕ commutative/associative is refused here, eagerly, rather
        # than merged in an order the query never specified.
        ensure_mergeable(sr, "QueryService micro-batch merge")
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        self.sr = sr
        self.backend = backend
        self.exact_mode = exact_mode
        self.max_batch_size = int(max_batch_size)
        self.max_batch_delay = float(max_batch_delay)
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        # The optional persistent tier under the in-memory cache: a cold
        # process loads the plan from disk instead of compiling.
        self.plan_store = plan_store
        # An explicit ``result_cache`` instance (e.g. a scoped view of a
        # Database-owned shared cache) wins over the size knob.
        if result_cache is not None:
            self.result_cache = result_cache
        else:
            self.result_cache = (ResultCache(result_cache_size)
                                 if result_cache_size else None)
        self._workers = workers
        self._executor = executor
        self.engine = WeightedQueryEngine(
            structure, expr, sr, dynamic_relations=dynamic_relations,
            free_order=free_order, strategy=strategy, optimize=optimize,
            plan_cache=self.plan_cache, plan_store=plan_store,
            verify=verify)
        self.free: Tuple[str, ...] = self.engine.free
        self._domain = frozenset(structure.domain)
        self._domain_order = tuple(structure.domain)
        self._epoch = 0
        self._closed = False
        # Request intake is a plain list guarded by one condition: a
        # submit is a single lock-append-notify, and a dispatcher takes a
        # whole micro-batch in one slice — per-request synchronization is
        # what a serving hot path cannot afford.
        self._buffer: List[Tuple[Tuple, "Future", int]] = []
        self._intake = threading.Condition()
        self._update_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._batches = 0
        self._batched_queries = 0
        self._deduped_queries = 0
        self._largest_batch = 0
        self._group_tables = 0
        self._group_rows = 0
        self._retagged = 0
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="QueryService-dispatch",
            daemon=True)
        self._dispatcher.start()

    # -- queries ---------------------------------------------------------------

    def submit(self, *arguments) -> "Future":
        """Enqueue one point query; returns a future for its value.

        Accepts either positional arguments aligned with the free-variable
        order or a single ``{var: element}`` mapping, like
        ``WeightedQueryEngine.query``.  A result-cache hit resolves the
        future immediately without touching the queue.
        """
        self._check_open()  # a closed service must reject cache hits too
        if len(arguments) == 1 and isinstance(arguments[0], dict):
            assignment = arguments[0]
            arguments = tuple(assignment[var] for var in self.free)
        arguments = tuple(arguments)
        if len(arguments) != len(self.free):
            raise ValueError(f"expected {len(self.free)} arguments, "
                             f"got {arguments!r}")
        for element in arguments:
            if element not in self._domain:
                # Validate here, not in the dispatcher: a bad argument
                # must fail its own caller, not every request that
                # happened to share its micro-batch.
                raise KeyError(f"{element!r} is not in the structure's "
                               f"domain")
        future: "Future" = Future()
        epoch = self._epoch
        if self.result_cache is not None:
            value = self.result_cache.get(arguments, epoch)
            if value is not MISS:
                future.set_result(value)
                return future
        with self._intake:
            if self._closed:
                raise RuntimeError("service is closed")
            self._buffer.append((arguments, future, epoch))
            self._intake.notify()
        return future

    def query(self, *arguments, timeout: Optional[float] = None) -> Any:
        """``f(a)``, blocking until its micro-batch is served."""
        return self.submit(*arguments).result(timeout)

    def query_batch(self, argument_tuples: Sequence[Sequence[Hashable]],
                    timeout: Optional[float] = None) -> List[Any]:
        """A caller-assembled batch: submit all, wait for all, in order."""
        futures = [self.submit(*arguments) for arguments in argument_tuples]
        return [future.result(timeout) for future in futures]

    def group_by(self, keys: Optional[Sequence[Any]] = None, *,
                 having: Optional[Callable[[Any], bool]] = None,
                 rollup: bool = False,
                 max_groups: Optional[int] = None,
                 timeout: Optional[float] = None) -> Any:
        """All group aggregates of the served query, through the
        micro-batching pipeline, as a :class:`~repro.api.ResultTable`.

        The free variables are the grouping keys; ``keys=None``
        enumerates the domain's cartesian product over them (refused
        beyond ``max_groups``), otherwise ``keys`` lists explicit key
        valuations.  Every group is one submit — so they coalesce into
        the service's batched sweeps, and each group lands as its own
        entry in the epoch-tagged result cache (warm groups skip the
        queue entirely; an update invalidates only the touched groups,
        see :meth:`update_weight`).  ``having``/``rollup`` behave as in
        :meth:`repro.api.PreparedQuery.group_by`.
        """
        # Lazy import: repro.api pulls in repro.serve at import time —
        # the table module itself is dependency-free, but its package
        # is not.
        from ..api.table import ResultTable, apply_having, attach_rollup
        self._check_open()
        if not self.free:
            raise ValueError("group_by() needs a parameterized query "
                             "(the free variables are the grouping keys)")
        bound = DEFAULT_MAX_GROUPS if max_groups is None else max_groups
        if keys is None:
            count = len(self._domain_order) ** len(self.free)
            if count > bound:
                raise ValueError(
                    f"group_by() would enumerate {count} groups "
                    f"(|domain|^{len(self.free)}) > max_groups={bound}; "
                    f"pass explicit keys or raise max_groups")
            group_keys = [tuple(combo) for combo in itertools.product(
                self._domain_order, repeat=len(self.free))]
        else:
            normalized: List[Tuple] = []
            for item in keys:
                if isinstance(item, list):
                    item = tuple(item)
                # A tuple of the key arity is a full key; anything else
                # is a bare element of a 1-ary key (tuple-valued domain
                # elements work unwrapped).  submit() validates domain
                # membership per element.
                if isinstance(item, tuple) and len(item) == len(self.free):
                    tup = item
                elif len(self.free) == 1:
                    tup = (item,)
                else:
                    raise TypeError(
                        f"group keys must be {len(self.free)}-tuples "
                        f"aligned with free variables {self.free}; "
                        f"got {item!r}")
                normalized.append(tup)
            group_keys = list(dict.fromkeys(normalized))
        futures = [self.submit(*key) for key in group_keys]
        values = [future.result(timeout) for future in futures]
        with self._stats_lock:
            self._group_tables += 1
            self._group_rows += len(group_keys)
        out_keys, out_values = apply_having(group_keys, values, having)
        if rollup:
            all_keys, all_values = attach_rollup(group_keys, values, self.sr)
            out_keys = out_keys + all_keys[len(group_keys):]
            out_values = out_values + all_values[len(group_keys):]
        return ResultTable(self.free + ("value",), out_keys, out_values,
                           {"groups": len(group_keys)})

    # -- micro-batch dispatch ----------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._intake:
                while not self._buffer and not self._closed:
                    self._intake.wait()
                if not self._buffer:
                    return  # closed and drained
                underfull = len(self._buffer) < self.max_batch_size
            if underfull and self.max_batch_delay > 0 and not self._closed:
                # Coalesce: give concurrent clients one batching window
                # to pile on.  A single sleep per batch, not per request.
                time.sleep(self.max_batch_delay)
            with self._intake:
                batch = self._buffer[:self.max_batch_size]
                del self._buffer[:self.max_batch_size]
            if batch:
                self._serve_batch(batch)

    def _serve_batch(self, batch: List) -> None:
        # Concurrent clients often ask for the same hot keys: evaluate
        # each distinct argument tuple once per batch.
        groups: Dict[Tuple, List] = {}
        for arguments, future, epoch in batch:
            groups.setdefault(arguments, []).append((future, epoch))
        unique = list(groups)
        try:
            results = self.engine.query_batch(unique, backend=self.backend,
                                         workers=self._workers,
                                         executor=self._executor,
                                         exact_mode=self.exact_mode)
        except BaseException as error:  # noqa: BLE001 - delivered to callers
            for waiters in groups.values():
                for future, _ in waiters:
                    future.set_exception(error)
            return
        with self._stats_lock:
            self._batches += 1
            self._batched_queries += len(batch)
            self._deduped_queries += len(batch) - len(unique)
            self._largest_batch = max(self._largest_batch, len(batch))
        current_epoch = self._epoch
        for arguments, value in zip(unique, results):
            for future, epoch in groups[arguments]:
                if self.result_cache is not None and epoch == current_epoch:
                    # Tagged with the *submit* epoch: if an update landed
                    # since, the tag is already stale and the entry is
                    # invisible — results can only be cached too
                    # conservatively, never served across an update.
                    self.result_cache.put(arguments, value, epoch)
                future.set_result(value)

    # -- updates ----------------------------------------------------------------

    def can_absorb_weight(self, name: str, tup: Tuple) -> bool:
        """Whether :meth:`update_weight` can maintain ``name(tup)`` —
        i.e. the tuple was declared at compile time (the paper's update
        model).  Used by ``Database.update`` to pre-validate a
        transaction before mutating anything."""
        return tuple(tup) in \
            self.engine.compiled.structure.weights.get(name, {})

    def can_absorb_relation(self, name: str, tup: Tuple = ()) -> bool:
        """Whether :meth:`set_relation` can maintain a toggle of
        ``name(tup)``: the relation was declared dynamic at compile time
        and the tuple is a clique of the compile-time Gaifman graph
        (the Theorem 24 update model, via
        :meth:`~repro.core.CompiledQuery.can_mark`)."""
        return self.engine.compiled.can_mark(name, tup)

    def update_weight(self, name: str, tup: Tuple, value: Any) -> int:
        """Set ``name(tup) = value`` on the engine; returns gates
        touched.  An effective update (touched > 0) advances the epoch,
        lazily invalidating all cached results; a no-op write keeps the
        result cache warm."""
        self._check_open()
        tup = tuple(tup)
        with self._update_lock:
            prev_epoch = self._epoch
            touched = self.engine.update_weight(name, tup, value)
            if touched:
                self._epoch += 1
                self._retag_unaffected((("w", name, tup),), prev_epoch)
            return touched

    def set_relation(self, name: str, tup: Tuple, present: bool) -> int:
        """Gaifman-preserving relation toggle on the engine (the Theorem
        24 update model); epoch semantics as in :meth:`update_weight`."""
        self._check_open()
        tup = tuple(tup)
        with self._update_lock:
            prev_epoch = self._epoch
            touched = self.engine.set_relation(name, tup, present)
            if touched:
                self._epoch += 1
                self._retag_unaffected(
                    (("dynrel", name, tup, True),
                     ("dynrel", name, tup, False)), prev_epoch)
            return touched

    def _retag_unaffected(self, update_keys: Tuple, from_epoch: int) -> None:
        """Fine-grained invalidation (``_update_lock`` held): the epoch
        bump staled every cached result; carry forward the argument
        tuples the write provably cannot reach (see
        :meth:`~repro.engine.WeightedQueryEngine.retag_unaffected`)."""
        if self.result_cache is None:
            return
        carried = self.engine.retag_unaffected(
            self.result_cache, update_keys, from_epoch, self._epoch)
        with self._stats_lock:
            self._retagged += carried

    # -- lifecycle --------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("service is closed")

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def epoch(self) -> int:
        """The invalidation epoch (bumped by every effective update)."""
        return self._epoch

    def close(self) -> None:
        """Drain in-flight requests, stop the dispatcher, close the engine.

        Requests already accepted are served before the dispatcher exits;
        new submissions raise.  Closing the engine strips its selector
        weights from the host structure, so a long-lived structure served
        by many successive services never accumulates weight functions.
        Idempotent."""
        with self._intake:
            already = self._closed
            self._closed = True
            self._intake.notify_all()
        if already:
            return
        self._dispatcher.join()
        self.engine.close()
        if self.result_cache is not None:
            # A closed service can never serve these again; a scoped
            # view of a shared cache must not keep occupying its LRU.
            self.result_cache.clear()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- introspection -----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Serving counters plus the attached caches' statistics."""
        with self._stats_lock:
            batches = self._batches
            info: Dict[str, Any] = {
                "batches": batches,
                "batched_queries": self._batched_queries,
                "deduped_queries": self._deduped_queries,
                "largest_batch": self._largest_batch,
                "mean_batch": (round(self._batched_queries / batches, 2)
                               if batches else 0.0),
                "group_tables": self._group_tables,
                "group_rows": self._group_rows,
                "retagged": self._retagged,
            }
        # Served queries: every batched request plus every submit-time
        # result-cache hit (the cache counts those under its own lock).
        info["queries"] = info["batched_queries"] + (
            self.result_cache.stats()["hits"]
            if self.result_cache is not None else 0)
        info["epoch"] = self._epoch
        info["backend"] = self.backend
        info["exact_mode"] = self.exact_mode
        # Which vectorized kernel actually served the batches (and how
        # many guard trips fell back to the exact object kernel).
        kernel = self.engine.stats().get("exact_kernel")
        if kernel is not None:
            info["exact_kernel"] = kernel
        info["plan_cache"] = self.plan_cache.stats()
        if self.plan_store is not None:
            info["plan_store"] = self.plan_store.stats()
        if self.result_cache is not None:
            info["result_cache"] = self.result_cache.stats()
        return info

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<QueryService free={self.free} "
                f"batch<={self.max_batch_size} epoch={self._epoch}>")
