"""Database: the unified facade over the whole query stack.

One :class:`Database` owns a :class:`~repro.structures.Structure` plus
the shared :class:`~repro.serve.PlanCache` / :class:`~repro.serve.
ResultCache` and a lazily-created worker pool, and hands out

* :meth:`Database.prepare` — a :class:`~repro.api.PreparedQuery`
  unifying static value, batched evaluation, bound point queries,
  maintained updates and enumeration behind one handle;
* :meth:`Database.serve` — a :class:`~repro.serve.QueryService`
  pre-wired to the shared caches and pool;
* :meth:`Database.update` — a transaction-shaped update context that
  routes ``set_weight``/``set_relation`` through every live consumer's
  maintenance hooks and the structure's fingerprint/invalidation
  machinery, so no cache can ever be bypassed;
* :meth:`Database.close` — tears down services, engines (stripping
  their selector weights) and the worker pool.

Mutating the structure *around* the facade is detected: every consumer
read re-checks the structure's content fingerprint and an out-of-band
write invalidates all derived artifacts instead of serving stale
answers (the class of bug the epoch/fingerprint hooks exist to kill).
"""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Sequence, Tuple

from ..logic import Bracket
from ..logic.fo import Formula
from ..semirings import Semiring
from ..serve import PlanCache, PlanStore, QueryService, ResultCache
from ..structures import Structure
from .options import ExecOptions
from .prepared import PreparedQuery, query_footprint
from .table import Select

#: Process-unique database ids: result-cache scope namespaces include
#: this, so Databases *sharing* one ResultCache (supported by the
#: constructor) can never read each other's cached points.
_DB_IDS = itertools.count(1)


class Database:
    """The one entry point: a structure plus shared execution state.

    ``options`` (an :class:`ExecOptions`) or keyword overrides fix the
    database-wide execution defaults; every ``prepare``/``serve`` call
    may override them again per handle.  ``plan_cache`` /
    ``result_cache`` accept existing instances to share across
    databases (e.g. process-wide plan reuse); by default the database
    creates its own, sized by the options.

    ``plan_store`` / ``plan_store_path`` attach the persistent on-disk
    plan tier (:class:`repro.serve.PlanStore`): every compilation this
    database triggers checks the store before compiling and persists
    its plan, so a fresh process on the same path serves its first
    query without recompiling.  Precedence: an explicit ``plan_store``
    instance, then ``plan_store_path``, then ``options.plan_store``,
    then the ``REPRO_PLAN_STORE`` environment variable (a directory
    path — how CI and worker processes opt in without code changes).

    Use as a context manager: ``close()`` releases every engine,
    service and worker thread the facade created.
    """

    def __init__(self, structure: Structure,
                 options: Optional[ExecOptions] = None,
                 plan_cache: Optional[PlanCache] = None,
                 result_cache: Optional[ResultCache] = None,
                 plan_store: Optional[Any] = None,
                 plan_store_path: Optional[Any] = None,
                 **overrides):
        self.structure = structure
        self.options = (ExecOptions() if options is None
                        else options).merged(**overrides)
        if plan_store is not None and plan_store_path is not None:
            raise ValueError("pass plan_store or plan_store_path, not both")
        if plan_store is None:
            if plan_store_path is not None:
                plan_store = PlanStore(plan_store_path)
            elif self.options.plan_store is not None:
                plan_store = self.options.plan_store
            else:
                env_path = os.environ.get("REPRO_PLAN_STORE")
                if env_path:
                    plan_store = PlanStore(env_path)
        self.plan_store = plan_store
        if self.options.plan_store is not plan_store:
            # Fold the resolved store into the options so per-handle
            # derivations (prepare/serve) inherit it uniformly.
            self.options = self.options.merged(plan_store=plan_store)
        self.plan_cache = (plan_cache if plan_cache is not None
                           else PlanCache(self.options.plan_cache_size))
        if result_cache is not None:
            self.result_cache: Optional[ResultCache] = result_cache
        else:
            self.result_cache = (ResultCache(self.options.result_cache_size)
                                 if self.options.result_cache_size else None)
        self._lock = threading.RLock()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._prepared: list = []
        self._services: list = []
        self._uid = next(_DB_IDS)
        self._ids = itertools.count(1)
        self._epoch = 0
        self._in_update = 0
        self._closed = False
        self._expected_fp = structure.fingerprint()
        # Mutation counter snapshot at the last reconcile: a transaction
        # whose writes were all no-ops leaves it unchanged, and exit can
        # skip reconciliation entirely (not even the O(1) digest read).
        self._reconciled_mutations = structure._mutations

    # -- handles -----------------------------------------------------------------

    def prepare(self, expr: Any, params: Optional[Sequence[str]] = None,
                dynamic: Sequence[str] = (),
                options: Optional[ExecOptions] = None,
                **overrides) -> PreparedQuery:
        """Prepare ``expr`` (a weighted expression or an FO formula).

        ``params`` fixes the bind/batch argument order (defaults to the
        sorted free variables); ``dynamic`` declares relations updatable
        through :meth:`update` without recompilation; ``options`` /
        keyword overrides refine the database defaults for this handle.
        Compilation is lazy and shared through the plan cache.
        """
        self._check_open()
        self._verify_fresh()
        opts = (self.options if options is None else options)
        opts = opts.merged(**overrides)
        prepared = PreparedQuery(self, expr, params, dynamic, opts)
        with self._lock:
            self._prune()
            self._prepared.append(prepared)
        return prepared

    def serve(self, expr: Any, sr: Semiring,
              params: Optional[Sequence[str]] = None,
              dynamic: Sequence[str] = (),
              options: Optional[ExecOptions] = None,
              **overrides) -> QueryService:
        """A concurrent micro-batching service for point queries of
        ``expr`` in ``sr``, pre-wired to the database's shared plan
        cache, a scoped view of its shared result cache, and its worker
        pool.  The service is registered with the database: routed
        updates reach it, and :meth:`close` closes it.
        """
        self._check_open()
        self._verify_fresh()
        if isinstance(expr, Formula):
            # Same treatment as prepare(): serving a formula serves its
            # bracket (0/1-valued in sr).
            expr = Bracket(expr)
        opts = (self.options if options is None else options)
        opts = opts.merged(**overrides)
        scoped = (self.result_cache.scoped(("service", self._uid,
                                            next(self._ids)))
                  if self.result_cache is not None
                  and opts.result_cache_size else None)
        service = QueryService(
            self._snapshot(), expr, sr,
            dynamic_relations=tuple(dynamic), free_order=params,
            strategy=opts.strategy, optimize=opts.optimize,
            max_batch_size=opts.max_batch_size,
            max_batch_delay=opts.max_batch_delay,
            backend=opts.backend,
            exact_mode=opts.exact_mode,
            plan_cache=self.plan_cache,
            plan_store=opts.plan_store,
            result_cache=scoped,
            result_cache_size=(0 if scoped is not None
                               else opts.result_cache_size),
            workers=opts.workers,
            executor=self._executor_for(opts.workers),
            verify=opts.verify)
        # The update router consults the query's footprint to skip
        # writes that provably cannot change this service's answers
        # (instead of refusing them database-wide).
        weights, relations = query_footprint(expr)
        service._facade_weight_names = weights
        service._facade_relation_names = relations
        with self._lock:
            self._prune()
            self._services.append(service)
        return service

    def serve_sharded(self, expr: Any, sr: Semiring,
                      shards: int = 2,
                      params: Optional[Sequence[str]] = None,
                      dynamic: Sequence[str] = (),
                      options: Optional[ExecOptions] = None,
                      assign: Optional[dict] = None,
                      **overrides):
        """Serve ``expr`` across ``shards`` worker *processes* behind an
        asyncio gateway (:class:`repro.cluster.ClusterService`).

        The structure's domain is partitioned by Gaifman components (per
        ``options.shard_policy``, or the explicit ``assign`` map); each
        worker owns one shard, its own Database and — when this database
        has a plan store — its own handle on the same store, so workers
        and respawns warm-start from disk.  Point queries route to the
        owning shard, closed and grouped queries fan out and ``⊕``-merge;
        ``ExecOptions.max_pending`` / ``max_inflight_per_client`` /
        ``request_timeout`` are the gateway's admission knobs.  The
        gateway registers with the database like any service: routed
        updates reach the owning shard (cross-shard tuples are refused),
        and :meth:`close` drains and closes it.
        """
        self._check_open()
        self._verify_fresh()
        # Lazy import: repro.cluster imports repro.api at module level,
        # so the facade must not import it back at module level.
        from ..cluster import ClusterService
        if isinstance(expr, Formula):
            expr = Bracket(expr)
        opts = (self.options if options is None else options)
        opts = opts.merged(**overrides)
        plan_store_path = (self.plan_store.path
                           if self.plan_store is not None else None)
        service = ClusterService(
            self._snapshot(), expr, sr, shards=shards, params=params,
            dynamic=tuple(dynamic), policy=opts.shard_policy,
            assign=assign, backend=opts.backend,
            exact_mode=opts.exact_mode, optimize=opts.optimize,
            max_batch_size=opts.max_batch_size,
            max_pending=opts.max_pending,
            max_inflight_per_client=opts.max_inflight_per_client,
            request_timeout=opts.request_timeout,
            max_groups=opts.max_groups,
            plan_store_path=plan_store_path, verify=opts.verify)
        weights, relations = query_footprint(service.expr)
        service._facade_weight_names = weights
        service._facade_relation_names = relations
        with self._lock:
            self._prune()
            self._services.append(service)
        return service

    def select(self, expr: Any, dynamic: Sequence[str] = (),
               **overrides) -> Select:
        """SQL-ish grouped-aggregation sugar over :meth:`prepare`::

            table = (db.select(expr)
                       .group_by("x")
                       .having(lambda value: value > 0)
                       .run(NATURAL))

        The builder prepares the expression on first :meth:`~repro.api.
        Select.run` (with the grouping parameters as ``params``) and
        keeps the prepared handle across runs, so repeated evaluations
        hit the shared epoch-tagged result cache.  Keyword overrides are
        per-handle :class:`ExecOptions` refinements, as in ``prepare``.
        """
        self._check_open()
        return Select(self, expr, dynamic=dynamic, **overrides)

    def update(self) -> "UpdateContext":
        """An update context routing writes through every consumer::

            with db.update() as tx:
                tx.set_weight("w", edge, 3)
                tx.set_relation("S", (v,), True)

        Each write is applied to the base structure *and* routed into
        every live prepared query, maintained handle and service —
        maintained in place when the compiled circuits can absorb it
        (the paper's update model), invalidated for lazy recompilation
        when they cannot.  Effective writes advance the database epoch,
        which lazily invalidates every cached point-query result.

        Batch related writes in one context: the out-of-band-detection
        fingerprint is reconciled once per transaction (O(size)), so a
        transaction of K writes costs one rehash, not K.
        """
        self._check_open()
        self._verify_fresh()
        return UpdateContext(self)

    # -- shared execution state ---------------------------------------------------

    def _snapshot(self) -> Structure:
        """A content snapshot of the structure, taken under the update
        lock so a routed write can never tear the copy mid-iteration."""
        with self._lock:
            return self.structure.copy()

    def executor(self) -> ThreadPoolExecutor:
        """The database's shared worker pool (created on first use,
        closed by :meth:`close`).  Batched sweeps with ``workers=N``
        shard onto this pool instead of paying a thread-pool
        construction per call."""
        with self._lock:
            self._check_open()
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=max(self.options.workers or 0,
                                    min(32, (os.cpu_count() or 1) + 4)),
                    thread_name_prefix="repro-db")
            return self._pool

    def _executor_for(self, workers: Optional[int]) -> Optional[Any]:
        """The shared pool when sharding is requested, else ``None``."""
        return self.executor() if workers is not None and workers > 1 \
            else None

    # -- coherence ---------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The invalidation epoch (advanced by every effective update)."""
        return self._epoch

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("database is closed")

    def _prune(self) -> None:
        """Drop closed consumers from the registries (lock held): a
        long-lived database handing out short-lived handles must not
        accumulate dead references or iterate them on every update."""
        self._prepared = [p for p in self._prepared if not p._closed]
        self._services = [s for s in self._services if not s.closed]

    def _forget(self, prepared: PreparedQuery) -> None:
        """Deregister one closed prepared handle (its close() hook)."""
        with self._lock:
            self._prepared = [p for p in self._prepared if p is not prepared]

    def _verify_fresh(self) -> None:
        """Detect out-of-band structure mutations.

        Every consumer read funnels through here: if the structure's
        content fingerprint no longer matches what the last sanctioned
        write left behind, someone mutated the structure around the
        facade — every prepared artifact is invalidated (lazy rebuild),
        live services are closed (their engines cannot be rebuilt
        in place, and serving the pre-mutation snapshot would be the
        stale-answer bug this check exists to kill), and the epoch
        advances so no cached result survives.  The check is O(1): the
        fingerprint is an incrementally-maintained digest, never a
        content rehash.  (Raw dict writes that bypass the Structure
        mutators also bypass the digest and are invisible here — run
        with ``REPRO_VERIFY_FINGERPRINT=1`` to surface those.)
        """
        with self._lock:
            if self._in_update:
                # A transaction is applying sanctioned writes; reads in
                # its window see mid-transaction state (documented) and
                # must not mistake those writes for a bypass.  The
                # fingerprint is reconciled once at transaction exit.
                return
            fingerprint = self.structure.fingerprint()
            if fingerprint != self._expected_fp:
                for prepared in self._prepared:
                    prepared._invalidate()
                for service in self._services:
                    if not service.closed:
                        service.close()
                self._prune()
                self._epoch += 1
                self._expected_fp = fingerprint
                self._reconciled_mutations = self.structure._mutations

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Close every service and prepared handle (stripping all
        selector weights), then the worker pool.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            services = list(self._services)
            prepared = list(self._prepared)
            pool = self._pool
        for service in services:
            service.close()
        for handle in prepared:
            handle.close()
        if pool is not None:
            pool.shutdown(wait=True)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- introspection -----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Facade-wide statistics: epoch, consumers, shared caches."""
        with self._lock:
            info: Dict[str, Any] = {
                "epoch": self._epoch,
                "prepared": len(self._prepared),
                "services": len(self._services),
                "pool_started": self._pool is not None,
                "plan_cache": self.plan_cache.stats(),
            }
        if self.plan_store is not None:
            info["plan_store"] = self.plan_store.stats()
        if self.result_cache is not None:
            info["result_cache"] = self.result_cache.stats()
        return info

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Database |A|={len(self.structure.domain)} "
                f"prepared={len(self._prepared)} "
                f"services={len(self._services)} epoch={self._epoch}>")


class UpdateContext:
    """The transaction-shaped update router returned by
    :meth:`Database.update`.

    Writes apply eagerly (concurrent readers may see either state — the
    usual serving semantics); the context exit refreshes the database's
    expected fingerprint so the sanctioned writes are not mistaken for
    out-of-band mutations.  ``touched`` accumulates the gates recomputed
    across the transaction."""

    def __init__(self, db: Database) -> None:
        self.db = db
        self.touched = 0

    def __enter__(self) -> "UpdateContext":
        with self.db._lock:
            self.db._in_update += 1
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        db = self.db
        with db._lock:
            # Sanctioned writes move the fingerprint; reconcile once at
            # exit (even on error — partially-applied writes must not
            # masquerade as out-of-band mutations).  The digest is
            # maintained incrementally, so reconciliation is an O(1)
            # read — and a transaction whose writes were all no-ops
            # (mutation counter unmoved) skips it outright.
            db._in_update -= 1
            if not db._in_update:
                if db.structure._mutations != db._reconciled_mutations:
                    db._expected_fp = db.structure.fingerprint()
                    db._reconciled_mutations = db.structure._mutations

    # -- writes ------------------------------------------------------------------

    def set_weight(self, name: str, tup: Tuple, value: Any) -> int:
        """Set ``name(tup) = value`` everywhere; returns gates touched
        (max over consumers).  A no-op write (unchanged value) touches
        zero gates and keeps every cache warm."""
        db = self.db
        tup = tuple(tup)
        with db._lock:
            db._check_open()
            db._prune()
            prev_epoch = db._epoch
            # Pre-validate before mutating anything (the transactional
            # feel): a service whose query actually reads this weight
            # must be able to absorb the write in place.  A service
            # that provably never reads it is skipped, not refused.
            absorbing = []
            for service in db._services:
                if service.can_absorb_weight(name, tup):
                    absorbing.append(service)
                elif service._facade_weight_names is None or \
                        name in service._facade_weight_names:
                    raise KeyError(
                        f"{name}{tup} was not declared at compile time for a "
                        f"live service; services cannot recompile in place — "
                        f"close and re-serve, or declare the tuple before "
                        f"serving")
            touched = 0
            for prepared in db._prepared:
                touched = max(touched,
                              prepared._apply_weight(name, tup, value))
            for service in absorbing:
                touched = max(touched,
                              service.update_weight(name, tup, value))
            db.structure.set_weight(name, tup, value)
            if touched:
                db._epoch += 1
            if db._epoch != prev_epoch:
                # Fine-grained invalidation: the bump staled every
                # cached point/group result; carry forward the entries
                # this one write provably cannot affect.
                for prepared in db._prepared:
                    prepared._retag_points("w", name, tup, prev_epoch)
            self.touched += touched
            return touched

    def set_relation(self, name: str, tup: Tuple, present: bool) -> int:
        """Toggle ``tup``'s membership in ``name`` everywhere.

        Consumers that declared ``name`` dynamic (and for which the
        tuple respects the Theorem 24 clique condition) maintain the
        toggle incrementally; others are invalidated and recompile
        lazily.  Live services must be able to absorb the toggle — the
        transaction refuses it up front otherwise."""
        db = self.db
        tup = tuple(tup)
        with db._lock:
            db._check_open()
            db._prune()
            prev_epoch = db._epoch
            # Same relevance-aware pre-validation as set_weight: only a
            # service whose query reads the relation must absorb it.
            absorbing = []
            for service in db._services:
                if service.can_absorb_relation(name, tup):
                    absorbing.append(service)
                elif service._facade_relation_names is None or \
                        name in service._facade_relation_names:
                    raise ValueError(
                        f"a live service cannot absorb the toggle of "
                        f"{name}{tup} ({name} not declared dynamic, or the "
                        f"tuple is not a clique of the compile-time Gaifman "
                        f"graph); close and re-serve to change it")
            touched = 0
            wrote_base = False
            for prepared in db._prepared:
                part, wrote = prepared._apply_relation(name, tup, present)
                touched = max(touched, part)
                wrote_base = wrote_base or wrote
            for service in absorbing:
                touched = max(touched,
                              service.set_relation(name, tup, present))
            if not wrote_base:
                # No compiled consumer absorbed the toggle via
                # mark_relation (which writes the base itself); any
                # consumer it stales was already invalidated — with its
                # own epoch bump — in _apply_relation.
                if present:
                    db.structure.add_tuple(name, tup)
                else:
                    db.structure.remove_tuple(name, tup)
            if touched:
                db._epoch += 1
            if db._epoch != prev_epoch:
                # Fine-grained invalidation, as in set_weight.
                for prepared in db._prepared:
                    prepared._retag_points("r", name, tup, prev_epoch)
            self.touched += touched
            return touched
