"""PreparedQuery: one handle, every execution mode.

``db.prepare(expr, params=..., dynamic=...)`` returns a
:class:`PreparedQuery` that unifies the stack's five execution modes
behind one object:

* :meth:`PreparedQuery.value` — the static value of a closed query;
* :meth:`PreparedQuery.batch` — N valuations (closed) or N argument
  tuples (parameterized) in one batched sweep;
* :meth:`PreparedQuery.bind` — a bound point query ``f(a)``, replacing
  the raw ``WeightedQueryEngine`` selector dance (with result caching
  through the database's shared epoch-tagged cache);
* :meth:`PreparedQuery.maintain` — a maintained value under dynamic
  updates (Theorems 8/24), with updates routed database-wide;
* :meth:`PreparedQuery.enumerate` — constant-delay enumeration: answers
  of an FO formula (Theorem 24) or provenance monomials of a closed
  weighted expression (Theorem 22).

Compiled artifacts (the closed plan, per-semiring point-query engines)
are built lazily, shared through the database's plan cache, and kept
coherent by the database's update routing: every
``db.update()``-routed write either maintains them in place or
invalidates them for a transparent lazy rebuild — they can never serve
a stale answer, and out-of-band structure mutations are caught by the
database's fingerprint check.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable, Dict, FrozenSet, Hashable, List, \
    Optional, Sequence, Tuple

from ..core import CompiledQuery, compile_structure_query
from ..engine import WeightedQueryEngine
from ..enumeration import AnswerEnumerator, ProvenanceEnumerator
from ..logic import Bracket
from ..logic.fo import And, Eq, Exists, Forall, Formula, Not, Or, Truth
from ..logic.fo import Atom as FoAtom
from ..logic.weighted import WAdd, WConst, WMul, WSum, Weight
from ..semirings import Semiring
from .options import ExecOptions
from .table import ResultTable, apply_having, attach_rollup


def _merge(a: Optional[FrozenSet], b: Optional[FrozenSet]
           ) -> Optional[FrozenSet]:
    """Union with ``None`` (= unanalyzable, everything relevant) absorbing."""
    if a is None or b is None:
        return None
    return a | b


def _formula_relations(formula: Formula) -> Optional[FrozenSet[str]]:
    if isinstance(formula, FoAtom):
        return frozenset((formula.relation,))
    if isinstance(formula, (Truth, Eq)):
        return frozenset()
    if isinstance(formula, Not):
        return _formula_relations(formula.inner)
    if isinstance(formula, (And, Or)):
        names: Optional[FrozenSet[str]] = frozenset()
        for part in formula.parts:
            names = _merge(names, _formula_relations(part))
        return names
    if isinstance(formula, (Exists, Forall)):
        return _formula_relations(formula.inner)
    return None  # FuncAtom/LabelAtom/custom nodes: treat as unanalyzable


def query_footprint(expr: Any) -> Tuple[Optional[FrozenSet[str]],
                                        Optional[FrozenSet[str]]]:
    """The ``(weight names, relation names)`` an expression reads.

    A name the expression never references cannot change its value —
    the update router uses this to leave irrelevant consumers (and
    their caches) untouched instead of invalidating or refusing.
    Either component is ``None`` when the expression contains nodes the
    walker does not know (conservative: everything is relevant)."""
    if isinstance(expr, Weight):
        return frozenset((expr.name,)), frozenset()
    if isinstance(expr, WConst):
        return frozenset(), frozenset()
    if isinstance(expr, Bracket):
        return frozenset(), _formula_relations(expr.formula)
    if isinstance(expr, (WAdd, WMul)):
        weights: Optional[FrozenSet[str]] = frozenset()
        relations: Optional[FrozenSet[str]] = frozenset()
        for part in expr.parts:
            pw, pr = query_footprint(part)
            weights = _merge(weights, pw)
            relations = _merge(relations, pr)
        return weights, relations
    if isinstance(expr, WSum):
        return query_footprint(expr.inner)
    return None, None  # custom WExpr nodes: treat as unanalyzable


class PreparedQuery:
    """A prepared query over a :class:`~repro.api.Database`.

    Constructed by :meth:`Database.prepare` — not directly.  ``expr``
    may be a weighted expression or an FO formula (wrapped in a bracket
    for the value-producing modes); ``params`` fixes the argument order
    of :meth:`bind`/:meth:`batch` (defaults to the sorted free
    variables); ``dynamic`` declares the relations updatable through
    ``db.update()`` without recompilation.
    """

    def __init__(self, db: Any, expr: Any, params: Optional[Sequence[str]],
                 dynamic: Sequence[str], options: ExecOptions):
        self.db = db
        self.options = options
        self.dynamic_relations = frozenset(dynamic)
        if isinstance(expr, Formula):
            self.formula: Optional[Formula] = expr
            self.expr = Bracket(expr)
        else:
            self.formula = None
            self.expr = expr
        free = (sorted(self.expr.free_vars()) if params is None
                else list(params))
        if set(free) != set(self.expr.free_vars()):
            raise ValueError(f"params {tuple(free)} do not match the "
                             f"expression's free variables "
                             f"{tuple(sorted(self.expr.free_vars()))}")
        self.params: Tuple[str, ...] = tuple(free)
        self._id = next(db._ids)
        self._weight_names, self._relation_names = query_footprint(self.expr)
        self._plan: Optional[CompiledQuery] = None
        self._engines: Dict[str, WeightedQueryEngine] = {}
        # Serializes the engines' selector protocol (raise, read,
        # restore is a critical section) against concurrent binds and
        # routed updates.  RLock: invalidation may fire while held.
        self._engine_lock = threading.RLock()
        self._maintained: Dict[str, "MaintainedQuery"] = {}
        self._scopes: Dict[str, Any] = {}
        self._last_group: Optional[Dict[str, Any]] = None
        self._closed = False

    # -- plumbing ---------------------------------------------------------------

    def _check(self) -> None:
        if self._closed:
            raise RuntimeError("prepared query is closed")
        self.db._check_open()
        self.db._verify_fresh()

    def _closed_plan(self) -> CompiledQuery:
        """The compiled plan of the closed expression (lazy, plan-cached)."""
        if self.params:
            raise ValueError(
                f"the query has parameters {self.params}; use "
                f"bind(...).value(sr) for point queries or batch(...) for "
                f"argument batches")
        if self._plan is None:
            self._plan = compile_structure_query(
                self.db.structure, self.expr,
                dynamic_relations=self.dynamic_relations,
                optimize=self.options.optimize,
                plan_cache=self.db.plan_cache,
                plan_store=self.options.plan_store,
                verify=self.options.verify)
        return self._plan

    def _engine(self, sr: Semiring) -> WeightedQueryEngine:
        """The per-semiring point-query engine (lazy, over a snapshot).

        The engine installs selector weights at construction, so it runs
        over a content-equal snapshot of the database's structure — the
        database's own fingerprint stays untouched and the plan cache
        still shares one compilation across engines and services.
        """
        # Lock order everywhere: db._lock before _engine_lock (the
        # update router holds db._lock when it reaches the engines).
        # The snapshot must be taken under db._lock — a routed update
        # mutating the structure's dicts mid-copy would tear it.
        with self.db._lock:
            with self._engine_lock:
                engine = self._engines.get(sr.name)
                if engine is None or engine.closed:
                    engine = WeightedQueryEngine(
                        self.db.structure.copy(), self.expr, sr,
                        dynamic_relations=tuple(self.dynamic_relations),
                        free_order=self.params or None,
                        strategy=self.options.strategy,
                        optimize=self.options.optimize,
                        plan_cache=self.db.plan_cache,
                        plan_store=self.options.plan_store,
                        verify=self.options.verify)
                    self._engines[sr.name] = engine
                return engine

    def _scope(self, sr: Semiring) -> Optional[Any]:
        """This query's scoped view of the shared result cache."""
        if self.db.result_cache is None:
            return None
        scope = self._scopes.get(sr.name)
        if scope is None:
            scope = self.db.result_cache.scoped(
                ("prepared", self.db._uid, self._id, sr.name))
            self._scopes[sr.name] = scope
        return scope

    def _invalidate(self) -> None:
        """Drop every compiled artifact; everything rebuilds lazily.

        Called by the database when an update falls outside what the
        compiled circuits can maintain (a new weight tuple, a toggle of
        an undeclared relation, an out-of-band mutation) — the next use
        recompiles against the current structure instead of serving a
        stale answer.  Advances the database epoch: this query's cached
        point results reflect the pre-update state and must not survive.
        """
        if self._closed:
            return
        self._plan = None
        with self._engine_lock:
            for engine in self._engines.values():
                engine.close()
            self._engines.clear()
        for handle in self._maintained.values():
            handle._dq = None
        self.db._epoch += 1

    # -- update routing (called by Database.update, lock held) -------------------

    def _apply_weight(self, name: str, tup: Tuple, value: Any) -> int:
        """Route ``name(tup) = value`` into the live artifacts; returns
        gates touched.  Runs *before* the base-structure write, so the
        declaredness check sees the pre-update content."""
        if self._closed:
            return 0
        if self._weight_names is not None and \
                name not in self._weight_names:
            # The expression never reads this weight: its value cannot
            # change, whatever the write does — keep everything warm.
            return 0
        if tup not in self.db.structure.weights.get(name, {}):
            # A brand-new weight tuple can grow the Gaifman graph — the
            # compiled circuits cannot see it; rebuild lazily.
            self._invalidate()
            return 0
        touched = 0
        if self._plan is not None:
            key = ("w", name, tup)
            if key in self._plan.recorded:
                self._plan.recorded[key] = ("w", value)
                self._plan._invalidate_inputs()
                for handle in self._maintained.values():
                    touched = max(touched, handle._on_weight(key, value))
        with self._engine_lock:
            for engine in self._engines.values():
                touched = max(touched,
                              engine.update_weight(name, tup, value))
        return touched

    def _apply_relation(self, name: str, tup: Tuple,
                        present: bool) -> Tuple[int, bool]:
        """Route a relation toggle; returns ``(gates touched, whether the
        base structure was already written)``."""
        if self._closed:
            return 0, False
        if self._relation_names is not None and \
                name not in self._relation_names and \
                name not in self.dynamic_relations:
            # The expression never reads this relation: the toggle
            # cannot change its value — keep everything warm.
            return 0, False
        if name not in self.dynamic_relations:
            # Not declared dynamic for this query: the compiled circuits
            # cannot maintain the toggle — rebuild lazily.
            self._invalidate()
            return 0, False
        touched = 0
        wrote_base = False
        try:
            if self._plan is not None:
                # mark_relation validates the Theorem 24 model and applies
                # the toggle to the (shared) base structure itself.
                changed = self._plan.mark_relation(name, tup, present)
                wrote_base = True
                for handle in self._maintained.values():
                    touched = max(touched, handle._on_relation(changed))
            with self._engine_lock:
                for engine in self._engines.values():
                    touched = max(touched, engine.set_relation(name, tup,
                                                               present))
        except ValueError:
            # Outside the Theorem 24 update model (the tuple is not a
            # clique of the compile-time Gaifman graph): the circuits
            # cannot maintain it, but the facade can — rebuild lazily
            # against the post-update structure.
            self._invalidate()
            return 0, wrote_base
        return touched, wrote_base

    def _retag_points(self, kind: str, name: str, tup: Tuple,
                      from_epoch: int) -> None:
        """Carry provably-unaffected cached point/group results across
        the epoch bump of one routed write (fine-grained invalidation).

        Called by ``Database.update`` (lock held) after the write landed
        and the epoch moved.  If the query never reads the written name,
        every cached entry of this handle is still exact and all are
        carried; otherwise the live engine's
        :meth:`~repro.engine.WeightedQueryEngine.retag_unaffected`
        carries the entries it proves unreachable.  A handle the write
        invalidated (engines gone) proves nothing: its entries stay
        stale for lazy eviction.
        """
        if self._closed or not self._scopes:
            return
        to_epoch = self.db._epoch
        if to_epoch == from_epoch:
            return  # no effective bump: entries are still visible as-is
        if kind == "w":
            relevant = self._weight_names is None \
                or name in self._weight_names
            update_keys: Tuple = (("w", name, tup),)
        else:
            relevant = self._relation_names is None \
                or name in self._relation_names \
                or name in self.dynamic_relations
            update_keys = (("dynrel", name, tup, True),
                           ("dynrel", name, tup, False))
        for sr_name, scope in self._scopes.items():
            if not relevant:
                scope.retag_many(scope.keys(), from_epoch, to_epoch)
                continue
            with self._engine_lock:
                engine = self._engines.get(sr_name)
            if engine is None or engine.closed:
                continue  # invalidated: leave stale (lazy eviction)
            engine.retag_unaffected(scope, update_keys, from_epoch, to_epoch)

    # -- execution modes ---------------------------------------------------------

    def value(self, sr: Semiring) -> Any:
        """The value of the (closed) query in semiring ``sr``."""
        self._check()
        return self._closed_plan().evaluate(sr)

    def batch(self, items: Sequence[Any], sr: Semiring,
              backend: Optional[str] = None,
              workers: Optional[int] = None,
              exact_mode: Optional[str] = None) -> List[Any]:
        """N evaluations in one batched sweep.

        For a closed query, ``items`` are valuations — mappings of input
        keys to carrier values overriding the recorded weights (``{}``
        reproduces :meth:`value`), or callables used as-is.  For a
        parameterized query, ``items`` are argument tuples and the batch
        is the amortized point-query protocol of Theorem 8.

        ``backend``/``workers``/``exact_mode`` override the prepared
        options for this call; worker sharding runs on the database's
        shared pool, not a per-call one.
        """
        self._check()
        opts = self.options.merged(
            **{key: value for key, value in
               (("backend", backend), ("workers", workers),
                ("exact_mode", exact_mode))
               if value is not None})
        executor = self.db._executor_for(opts.workers)
        if self.params:
            while True:
                # Same refetch protocol as BoundQuery.value: an
                # invalidation racing this call closes the engine —
                # rebuild and retry instead of surfacing the teardown.
                engine = self._engine(sr)
                try:
                    return engine.query_batch(
                        items, backend=opts.backend, workers=opts.workers,
                        executor=executor, exact_mode=opts.exact_mode)
                except RuntimeError:
                    if engine.closed:
                        continue
                    raise
        return self._closed_plan().evaluate_batch(
            sr, items, backend=opts.backend, workers=opts.workers,
            executor=executor, exact_mode=opts.exact_mode)

    def _group_domain(self, keys: Optional[Sequence[Any]],
                      max_groups: int) -> List[Tuple]:
        """The ordered, deduplicated group key tuples to evaluate.

        ``keys=None`` enumerates the cartesian product of the structure's
        domain over the parameters (domain order, ``|A|^k`` groups,
        refused beyond ``max_groups``); explicit ``keys`` are normalized
        to parameter-aligned tuples — a tuple (or list) of the parameter
        arity is a full key, anything else is a bare element of a 1-ary
        key (so tuple-valued domain elements work unwrapped).  Elements
        are validated against the domain eagerly, and duplicates
        evaluate once and appear once.
        """
        domain = list(self.db.structure.domain)
        if keys is None:
            count = len(domain) ** len(self.params)
            if count > max_groups:
                raise ValueError(
                    f"group_by() would enumerate {count} groups "
                    f"(|domain|^{len(self.params)}) > max_groups="
                    f"{max_groups}; pass explicit keys or raise the "
                    f"max_groups option")
            return [tuple(combo) for combo in
                    itertools.product(domain, repeat=len(self.params))]
        members = frozenset(domain)
        normalized: List[Tuple] = []
        for item in keys:
            if isinstance(item, list):
                item = tuple(item)
            if isinstance(item, tuple) and len(item) == len(self.params):
                tup = item
            elif len(self.params) == 1:
                tup = (item,)
            else:
                raise TypeError(f"group keys must be {len(self.params)}-"
                                f"tuples aligned with params {self.params}; "
                                f"got {item!r}")
            for element in tup:
                if element not in members:
                    raise ValueError(
                        f"group key {tup!r} does not match params "
                        f"{self.params}: {element!r} is not in the "
                        f"structure's domain")
            normalized.append(tup)
        return list(dict.fromkeys(normalized))

    def group_by(self, keys: Optional[Sequence[Any]] = None,
                 sr: Optional[Semiring] = None, *,
                 having: Optional[Callable[[Any], bool]] = None,
                 rollup: bool = False,
                 backend: Optional[str] = None,
                 workers: Optional[int] = None,
                 exact_mode: Optional[str] = None,
                 group_batch_size: Optional[int] = None,
                 max_groups: Optional[int] = None) -> ResultTable:
        """All group aggregates of a parameterized query, in one sweep.

        The query's parameters are the grouping keys: each group
        ``a = (a_1, ..., a_k)`` contributes the point value ``f(a)``.
        Instead of ``k`` independent point queries, every group becomes
        one *column* of a single batched sweep over the shared compiled
        circuit (Theorem 8's selector protocol, amortized across the
        whole group domain; on the vectorized backend the selector edits
        collapse into one scatter over the memoized base column).

        ``keys=None`` enumerates the group domain from the structure
        (cartesian product of the domain over the parameters, bounded by
        the ``max_groups`` option); otherwise ``keys`` lists explicit
        key valuations (tuples aligned with ``params``, or bare elements
        for a single parameter).  ``group_by(sr)`` is accepted as
        shorthand for ``group_by(None, sr)``.

        ``having`` filters base rows by a predicate on the aggregate
        value; ``rollup=True`` appends ROLLUP subtotal rows (rolled-up
        key positions marked :data:`repro.api.TOTAL`, folded with the
        semiring's addition over *all* base groups — HAVING applies to
        base rows only, as in SQL).  Results are memoized per group in
        the database's epoch-tagged result cache — shared with
        ``bind(...).value(sr)`` — and a routed ``db.update()``
        invalidates only the touched groups' entries (the co-occurrence
        analysis of :meth:`~repro.engine.WeightedQueryEngine.
        affected_arguments`), so repeated group sweeps under updates
        recompute only what changed.

        ``backend``/``workers``/``exact_mode``/``group_batch_size``/
        ``max_groups`` override the prepared options for this call.
        Returns a :class:`~repro.api.ResultTable`.
        """
        if isinstance(keys, Semiring) and sr is None:
            keys, sr = None, keys
        if sr is None:
            raise TypeError("group_by() needs a semiring: group_by(keys, "
                            "sr) or group_by(sr) for the full group domain")
        self._check()
        if not self.params:
            raise ValueError(
                "group_by() needs a parameterized query (the parameters "
                "are the grouping keys); a closed query has one value — "
                "use value(sr)")
        opts = self.options.merged(
            **{key: value for key, value in
               (("backend", backend), ("workers", workers),
                ("exact_mode", exact_mode),
                ("group_batch_size", group_batch_size),
                ("max_groups", max_groups))
               if value is not None})
        group_keys = self._group_domain(keys, opts.max_groups)
        scope = self._scope(sr)
        epoch = self.db._epoch
        values: Dict[Tuple, Any] = {}
        if scope is not None:
            for key in group_keys:
                hit = scope.get(key, epoch)
                if hit is not scope.MISS:
                    values[key] = hit
        misses = [key for key in group_keys if key not in values]
        sweeps = 0
        kernel_used = None
        sweep_shape: Optional[Tuple[int, int]] = None
        if misses:
            executor = self.db._executor_for(opts.workers)
            chunk = opts.group_batch_size or len(misses)
            while True:
                # Same refetch protocol as batch(): an invalidation
                # racing this call closes the engine — rebuild and retry.
                engine = self._engine(sr)
                try:
                    results: List[Any] = []
                    for start in range(0, len(misses), chunk):
                        results.extend(engine.query_groups(
                            misses[start:start + chunk],
                            backend=opts.backend, workers=opts.workers,
                            executor=executor, exact_mode=opts.exact_mode))
                        sweeps += 1
                    break
                except RuntimeError:
                    if engine.closed:
                        sweeps = 0
                        continue
                    raise
            kernel_used = engine.compiled.kernel_used() or "python"
            # The vectorized value matrix is (gates, group columns).
            sweep_shape = (len(engine.compiled.circuit.gates),
                           min(chunk, len(misses)))
            for key, value in zip(misses, results):
                values[key] = value
                if scope is not None:
                    # Tagged with the epoch read *before* the sweep: an
                    # update that landed meanwhile already advanced it,
                    # so a racing entry can never serve a stale answer.
                    scope.put(key, value, epoch)
        base_values = [values[key] for key in group_keys]
        stats = {
            "groups": len(group_keys),
            "sweeps": sweeps,
            "sweep_shape": sweep_shape,
            "kernel": kernel_used,
            "cache_hits": len(group_keys) - len(misses),
            "cache_misses": len(misses),
        }
        self._last_group = stats
        out_keys, out_values = apply_having(group_keys, base_values, having)
        if rollup:
            all_keys, all_values = attach_rollup(group_keys, base_values, sr)
            out_keys = out_keys + all_keys[len(group_keys):]
            out_values = out_values + all_values[len(group_keys):]
        return ResultTable(self.params + ("value",), out_keys, out_values,
                           stats)

    def bind(self, *args, **kwargs) -> "BoundQuery":
        """Bind the query's parameters to concrete elements.

        Accepts positional arguments aligned with ``params`` or keyword
        arguments by parameter name.  Returns a :class:`BoundQuery`
        whose :meth:`~BoundQuery.value` is the point query ``f(a)``.
        """
        if self._closed:
            raise RuntimeError("prepared query is closed")
        if kwargs:
            if args:
                raise TypeError("bind() takes positional or keyword "
                                "arguments, not both")
            extra = sorted(set(kwargs) - set(self.params))
            missing = sorted(set(self.params) - set(kwargs))
            if extra or missing:
                raise ValueError(f"bind() arguments do not match params "
                                 f"{self.params}: missing {missing}, "
                                 f"unexpected {extra}")
            args = tuple(kwargs[param] for param in self.params)
        if len(args) != len(self.params):
            raise ValueError(f"expected {len(self.params)} arguments "
                             f"for params {self.params}, got {len(args)}")
        return BoundQuery(self, tuple(args))

    def maintain(self, sr: Semiring) -> "MaintainedQuery":
        """The maintained value of a closed query under dynamic updates.

        Returns the (cached, per-semiring) :class:`MaintainedQuery`
        handle: ``.value()`` reads the maintained value; its update
        methods delegate to ``db.update()`` so every other consumer and
        cache stays coherent.  Parameterized queries are maintained
        implicitly — ``bind(...).value(sr)`` always reflects the routed
        updates.
        """
        self._check()
        if self.params:
            raise ValueError(
                f"maintain() needs a closed query; parameterized queries "
                f"are maintained implicitly — bind{self.params} and read "
                f".value(sr) after updates")
        handle = self._maintained.get(sr.name)
        if handle is None:
            handle = MaintainedQuery(self, sr)
            self._maintained[sr.name] = handle
        return handle

    def enumerate(self, *, dynamic: Optional[Sequence[str]] = None,
                  **overrides: Any) -> Any:
        """A constant-delay enumerator over a snapshot of the database.

        For a query prepared from an FO *formula*, returns a
        :class:`~repro.enumeration.AnswerEnumerator` of its answers
        (Theorem 24); for a *closed weighted expression*, a
        :class:`~repro.enumeration.ProvenanceEnumerator` of its
        monomials (Theorem 22).  The enumerator owns a content snapshot:
        drive its dynamics through its own update methods.

        ``dynamic`` overrides the prepared dynamic-relation set for the
        snapshot.  Any further keyword arguments are
        :class:`~repro.api.ExecOptions` overrides for this call —
        ``optimize``/``verify`` reach the enumerator's compile.
        """
        self._check()
        opts = self.options.merged(**overrides)
        snapshot = self.db._snapshot()
        declared = (tuple(self.dynamic_relations) if dynamic is None
                    else tuple(dynamic))
        if self.formula is not None:
            if not self.params:
                raise ValueError("sentences have no answers to enumerate; "
                                 "evaluate value(BOOLEAN) instead")
            return AnswerEnumerator(snapshot, self.formula,
                                    free_order=self.params,
                                    dynamic_relations=declared,
                                    optimize=opts.optimize,
                                    verify=opts.verify)
        if self.params:
            raise ValueError(
                "enumerate() needs an FO formula (answer enumeration) or a "
                "closed weighted expression (provenance monomials); prepare "
                "the formula itself to enumerate its answers")
        return ProvenanceEnumerator(snapshot, self.expr,
                                    dynamic_relations=declared,
                                    optimize=opts.optimize,
                                    verify=opts.verify)

    # -- introspection -----------------------------------------------------------

    def plan(self) -> CompiledQuery:
        """The compiled plan of a closed query (compiling on first use).

        Read-only access for introspection and rendering (``stats``,
        ``repro.circuits.render``); route updates through
        ``db.update()`` so the caches stay coherent."""
        self._check()
        return self._closed_plan()

    def stats(self) -> Dict[str, Any]:
        """Circuit statistics of whatever is compiled so far (compiles
        the closed plan on demand for closed queries)."""
        self._check()
        info: Dict[str, Any] = {
            "params": self.params,
            "dynamic_relations": sorted(self.dynamic_relations),
            "kind": "formula" if self.formula is not None else "weighted",
            "engines": sorted(self._engines),
        }
        compiled = self._plan
        if compiled is None and not self.params:
            compiled = self._closed_plan()
        if compiled is None and self._engines:
            compiled = next(iter(self._engines.values())).compiled
        if compiled is not None:
            info.update(compiled.stats())
        else:
            info["compiled"] = False
        if self._last_group is not None:
            info["group_by"] = dict(self._last_group)
        return info

    def explain(self) -> str:
        """A human-readable description of the prepared query: shape,
        compiled-circuit statistics, and the resolved execution options."""
        stats = self.stats()
        lines = [f"PreparedQuery #{self._id} "
                 f"({stats['kind']}, params={stats['params'] or '()'}, "
                 f"dynamic={stats['dynamic_relations'] or '[]'})"]
        if "gates" in stats:
            lines.append(
                f"  circuit: {stats['gates']} gates, depth {stats['depth']},"
                f" {stats['colors']} colors, {stats['color_subsets']} color"
                f" subsets, forests height <= {stats['max_forest_height']}")
        else:
            lines.append("  circuit: not compiled yet (parameterized "
                         "queries compile per semiring on first use)")
        opts = self.options
        lines.append(f"  options: backend={opts.backend!r} "
                     f"exact_mode={opts.exact_mode!r} "
                     f"workers={opts.workers} optimize={opts.optimize} "
                     f"strategy={opts.strategy}")
        stages = stats.get("compile_stages")
        if stages:
            rendered = ", ".join(f"{name}={seconds * 1e3:.2f}ms"
                                 for name, seconds in stages.items())
            lines.append(f"  compile stages: {rendered}")
        kernel = stats.get("exact_kernel")
        if kernel is not None:
            lines.append(
                f"  exact kernel: requested {kernel['requested']!r}, ran "
                f"{kernel['used']!r} ({kernel['fallbacks']} fallback(s) "
                f"over {kernel['batches']} batch(es))")
        group = stats.get("group_by")
        if group is not None:
            lines.append(
                f"  last group_by: {group['groups']} group(s) in "
                f"{group['sweeps']} sweep(s), shape={group['sweep_shape']}, "
                f"kernel={group['kernel']!r}, cache "
                f"{group['cache_hits']} hit(s) / "
                f"{group['cache_misses']} miss(es)")
        lines.append(f"  shared caches: plan={self.db.plan_cache.stats()}")
        if self.db.result_cache is not None:
            lines.append(f"                 result="
                         f"{self.db.result_cache.stats()}")
        return "\n".join(lines)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Release the engines (stripping their selector weights), drop
        compiled state and cached results, and deregister from the
        database.  Idempotent; further use raises."""
        if self._closed:
            return
        self._closed = True
        with self._engine_lock:
            for engine in self._engines.values():
                engine.close()
            self._engines.clear()
        self._plan = None
        self._maintained.clear()
        for scope in self._scopes.values():
            # Dead cached points must not keep occupying the shared LRU.
            scope.clear()
        self._scopes.clear()
        self.db._forget(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<PreparedQuery #{self._id} params={self.params} "
                f"dynamic={sorted(self.dynamic_relations)}>")


class BoundQuery:
    """A prepared query with its parameters bound to concrete elements.

    ``value(sr)`` answers the point query through the per-semiring
    engine, memoized in the database's shared epoch-tagged result cache
    (an effective routed update advances the epoch and lazily
    invalidates every cached point)."""

    __slots__ = ("prepared", "arguments")

    def __init__(self, prepared: PreparedQuery, arguments: Tuple) -> None:
        self.prepared = prepared
        self.arguments = arguments

    def value(self, sr: Semiring) -> Any:
        prepared = self.prepared
        prepared._check()
        scope = prepared._scope(sr)
        epoch = prepared.db._epoch
        if scope is not None:
            hit = scope.get(self.arguments, epoch)
            if hit is not scope.MISS:
                return hit
        while True:
            # Fetch outside _engine_lock (construction takes db._lock,
            # which must come first), then query inside it: the selector
            # protocol (raise, read, restore) is a critical section on
            # the shared per-semiring engine — concurrent binds and
            # routed updates serialize here.  An invalidation racing
            # between fetch and lock closes the engine; refetch.
            engine = prepared._engine(sr)
            with prepared._engine_lock:
                if engine.closed:
                    continue
                value = engine.query(*self.arguments)
                break
        if scope is not None:
            # Tagged with the epoch read *before* the query: an update
            # that landed meanwhile already advanced the epoch, making
            # this entry invisible — never served across an update.
            scope.put(self.arguments, value, epoch)
        return value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<BoundQuery {dict(zip(self.prepared.params, self.arguments))}>"


class MaintainedQuery:
    """Theorem 8/24 maintained handle, wired into the database.

    Reads (:meth:`value`) come from the incrementally-maintained dynamic
    evaluator; updates delegate to ``db.update()`` so the write reaches
    *every* consumer and cache of the database — the maintained handle
    cannot be used to bypass invalidation."""

    def __init__(self, prepared: PreparedQuery, sr: Semiring) -> None:
        self.prepared = prepared
        self.sr = sr
        self._dq = None

    def _handle(self) -> Any:
        if self._dq is None:
            plan = self.prepared._closed_plan()
            self._dq = plan.dynamic(self.sr,
                                    strategy=self.prepared.options.strategy)
        return self._dq

    def value(self) -> Any:
        self.prepared._check()
        return self._handle().value()

    def update_weight(self, name: str, tup: Tuple, value: Any) -> int:
        """``name(tup) = value`` routed database-wide; returns gates
        touched (max over consumers)."""
        with self.prepared.db.update() as tx:
            return tx.set_weight(name, tup, value)

    def set_relation(self, name: str, tup: Tuple, present: bool) -> int:
        """Gaifman-preserving relation toggle routed database-wide."""
        with self.prepared.db.update() as tx:
            return tx.set_relation(name, tup, present)

    # -- routed-update hooks (Database.update holds the lock) --------------------

    def _on_weight(self, key: Hashable, value: Any) -> int:
        if self._dq is None:
            return 0
        return self._dq.evaluator.update_input(key, value)

    def _on_relation(self, changed: Sequence[Tuple[Hashable, bool]]) -> int:
        if self._dq is None:
            return 0
        touched = 0
        for key, state in changed:
            touched += self._dq.evaluator.update_input(
                key, self.sr.one if state else self.sr.zero)
        return touched

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<MaintainedQuery sr={self.sr.name} of {self.prepared!r}>"
