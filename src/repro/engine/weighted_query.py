"""Theorem 8: the weighted query evaluation engine.

Closed queries compile straight through the Theorem 6 pipeline; a query
``f(x)`` with free variables is wrapped as the closed expression

    f' = Σ_x  f(x) · v_1(x_1) ··· v_k(x_k)

with fresh *selector* weights ``v_i`` that default to 0, so a point query
``f(a)`` is ``2|x|`` weight updates around one read (the proof of
Theorem 8).  Updates and queries are therefore O(log |A|) in general
semirings and O(1) in rings and finite semirings.

Engine lifecycle: the constructor installs its selector weights into the
*caller's* structure, and :meth:`WeightedQueryEngine.close` removes them
again — use the engine as a context manager (``with WeightedQueryEngine(
...) as engine:``) so repeated engine construction over one long-lived
structure cannot grow its weight table without bound.  A closed engine
rejects further queries and updates.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Any, Dict, Hashable, Optional, Sequence, Tuple

from ..circuits import (VectorizedEvaluator, co_occurring_inputs, kernel_for,
                        validate_backend, validate_exact_mode)
from ..core import CompiledQuery, DynamicQuery, compile_structure_query
from ..logic.weighted import Sum, WExpr, WMul, Weight
from ..semirings import Semiring
from ..structures import Structure

SELECTOR_PREFIX = "_sel"

# Monotone id source for selector-name tags.  itertools.count() increments
# under a single bytecode-level step, so concurrently constructed engines
# (e.g. one per worker thread of a multi-core sweep) can never observe the
# same tag and mint colliding selector names, unlike the read-modify-write
# race of a mutable counter cell.
_ENGINE_COUNTER = itertools.count(1)


class WeightedQueryEngine:
    """Linear-time preprocessing; point queries and updates afterwards.

    ``expr`` may have free variables; ``free_order`` fixes the argument
    order of :meth:`query` (defaults to sorted order).

    ``plan_cache`` (a :class:`repro.serve.PlanCache`) memoizes the whole
    compilation: engines over content-equal structures with the same
    query/semiring share one compiled circuit and layer schedule, each
    with its own copy of the mutable update state.  Cacheable engines
    use deterministic selector names (derived from content + query
    identity); if those names are already live on the host structure —
    a second identical engine on the *same* structure — the constructor
    falls back to unique names and compiles fresh.
    """

    def __init__(self, structure: Structure, expr: WExpr, sr: Semiring,
                 dynamic_relations: Sequence[str] = (),
                 free_order: Optional[Sequence[str]] = None,
                 strategy: Optional[str] = None,
                 optimize: bool = True,
                 plan_cache: Optional[Any] = None,
                 plan_store: Optional[Any] = None,
                 verify: Optional[bool] = None):
        self.sr = sr
        self.free: Tuple[str, ...] = tuple(
            free_order if free_order is not None else sorted(expr.free_vars()))
        if set(self.free) != set(expr.free_vars()):
            raise ValueError(f"free_order {self.free} does not match the "
                             f"expression's free variables")
        self.structure = structure
        self._closed = False
        self._affected_memo: Dict[Tuple, Optional[Tuple]] = {}
        if plan_cache is not None or plan_store is not None:
            # Cacheable construction needs *deterministic* selector names:
            # both plan tiers key on the structure's content fingerprint
            # *after* the selectors are installed, so two engines over
            # content-equal structures must install identically-named
            # selectors to share one compiled plan (within this process
            # via the cache, across processes via the store).  Derive the
            # names from the pre-install content plus the query identity.
            digest = hashlib.sha256("\x00".join(
                (structure.fingerprint(), repr(expr), sr.name,
                 ",".join(self.free), ",".join(sorted(dynamic_relations)),
                 str(bool(optimize)))).encode()).hexdigest()[:12]
            self.selectors = [f"{SELECTOR_PREFIX}c{digest}_{i}"
                              for i in range(len(self.free))]
            if any(name in structure.weights for name in self.selectors):
                # Another live engine with the same identity already owns
                # these names on this very structure.  Fall back to unique
                # names and bypass both plan tiers for this construction
                # (the fingerprint now includes the other engine's
                # selectors, so a lookup could never hit anyway).
                plan_cache = None
                plan_store = None
        if plan_cache is None and plan_store is None:
            tag = next(_ENGINE_COUNTER)
            self.selectors = [f"{SELECTOR_PREFIX}{tag}_{i}"
                              for i in range(len(self.free))]
        if self.free:
            for name in self.selectors:
                for element in structure.domain:
                    structure.set_weight(name, (element,), sr.zero)
            closed = Sum(self.free, WMul(
                (expr,) + tuple(Weight(name, (var,))
                                for name, var in zip(self.selectors,
                                                     self.free))))
        else:
            closed = expr
        try:
            self.compiled: CompiledQuery = compile_structure_query(
                structure, closed, dynamic_relations=dynamic_relations,
                optimize=optimize, plan_cache=plan_cache,
                plan_store=plan_store, verify=verify)
            self.dynamic: DynamicQuery = self.compiled.dynamic(
                sr, strategy=strategy)
        except BaseException:
            # A failed construction leaves no engine to close(): strip the
            # selectors installed above so the caller's structure does not
            # leak weight functions on every failed attempt.
            self.close()
            raise

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        """Strip this engine's selector weights from the host structure.

        The constructor writes ``|free| * |domain|`` selector entries into
        the shared :class:`Structure`; without ``close()`` every engine
        constructed over the same structure leaks its selectors into the
        structure's weight table forever.  Idempotent; after closing, the
        engine refuses queries and updates.
        """
        if self._closed:
            return
        self._closed = True
        for name in self.selectors:
            self.structure.remove_weight(name)

    def __enter__(self) -> "WeightedQueryEngine":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("engine is closed (its selector weights were "
                               "removed from the structure)")

    # -- queries ---------------------------------------------------------------

    def value(self) -> Any:
        """The value of a *closed* query (raises if free variables exist)."""
        if self.free:
            raise ValueError("query(...) must be used: the expression has "
                             f"free variables {self.free}")
        self._check_open()
        return self.dynamic.value()

    def query(self, *arguments) -> Any:
        """``f(a)`` for a tuple ``a`` aligned with ``free_order``."""
        self._check_open()
        if len(arguments) == 1 and isinstance(arguments[0], dict):
            assignment = arguments[0]
            arguments = tuple(assignment[var] for var in self.free)
        if len(arguments) != len(self.free):
            raise ValueError(f"expected {len(self.free)} arguments")
        one, zero = self.sr.one, self.sr.zero
        # The selector protocol must be exception-safe: if raising a
        # selector (or the read) fails partway, the finally block still
        # zeroes every selector, so a failed probe cannot leave selectors
        # hot and silently poison all later queries.  The restore loop is
        # itself per-selector guarded — one failing restore must not skip
        # the remaining selectors.
        try:
            for name, element in zip(self.selectors, arguments):
                self.dynamic.update_weight(name, (element,), one)
            return self.dynamic.value()
        finally:
            restore_error = None
            for name, element in zip(self.selectors, arguments):
                try:
                    self.dynamic.update_weight(name, (element,), zero)
                except BaseException as error:  # noqa: BLE001
                    if restore_error is None:
                        restore_error = error
            if restore_error is not None:
                raise restore_error

    def query_batch(self, argument_tuples: Sequence[Sequence[Hashable]],
                    backend: str = "auto",
                    workers: Optional[int] = None,
                    executor: Optional[Any] = None,
                    exact_mode: str = "auto") -> list:
        """``[f(a) for a in argument_tuples]`` in one batched circuit pass.

        Each argument tuple is turned into a valuation that sets its
        selector weights to ``1`` (everything else keeps the engine's
        current weights), and the whole batch is evaluated in a single
        batched sweep — the point-query protocol of Theorem 8, amortized
        over N probes.  The engine's dynamic state is not disturbed.

        ``backend`` and ``workers`` are forwarded to
        :meth:`CompiledQuery.evaluate_batch`: ``"numpy"`` selects the
        vectorized layered backend, ``"python"`` the pure-Python one,
        ``"auto"`` picks the best available for the semiring; ``workers``
        shards the batch across a thread pool (``executor`` lends an
        existing pool for the sharding — see
        :meth:`CompiledQuery.evaluate_batch`).  ``exact_mode`` picks the
        vectorized kernel for the exact carriers (guarded int64 fast
        path vs object dtype; see ``evaluate_batch``).  Both strings are
        validated eagerly, before any selector valuation is built.
        """
        validate_backend(backend)
        validate_exact_mode(exact_mode)
        self._check_open()
        one = self.sr.one
        valuations = [{key: one for key in keys}
                      for keys in self._selector_columns(argument_tuples)]
        return self.compiled.evaluate_batch(self.sr, valuations,
                                            backend=backend, workers=workers,
                                            executor=executor,
                                            exact_mode=exact_mode)

    def _selector_columns(self, argument_tuples: Sequence[Sequence[Hashable]]
                          ) -> list:
        """One selector-key tuple per argument tuple, domain-validated."""
        domain = set(self.structure.domain)
        columns = []
        for arguments in argument_tuples:
            arguments = tuple(arguments)
            if len(arguments) != len(self.free):
                raise ValueError(f"expected {len(self.free)} arguments, "
                                 f"got {arguments!r}")
            for element in arguments:
                if element not in domain:
                    # Match query(): selector weights exist only for
                    # domain elements, so an unknown element is an error,
                    # not a silent zero.
                    raise KeyError(f"{element!r} is not in the structure's "
                                   f"domain")
            columns.append(tuple(("w", name, (element,))
                                 for name, element in zip(self.selectors,
                                                          arguments)))
        return columns

    def query_groups(self, argument_tuples: Sequence[Sequence[Hashable]],
                     backend: str = "auto",
                     workers: Optional[int] = None,
                     executor: Optional[Any] = None,
                     exact_mode: str = "auto") -> list:
        """:meth:`query_batch` specialized to the grouped-aggregation
        sweep: every batch column raises its selectors to the *same*
        value (``sr.one``), so on the vectorized backend the whole
        batch's selector edits collapse into one fancy-index scatter
        (:meth:`~repro.circuits.VectorizedEvaluator.from_uniform_overrides`)
        over the memoized base column.  Semantics are identical to
        ``query_batch``; the python backend and worker-sharded sweeps
        fall through to it unchanged.
        """
        validate_backend(backend)
        validate_exact_mode(exact_mode)
        self._check_open()
        kernel = None
        if backend != "python":
            kernel = kernel_for(self.sr, exact_mode)
            if kernel is None and backend == "numpy":
                raise RuntimeError(
                    f"backend='numpy' unavailable: numpy is not installed "
                    f"or semiring {self.sr.name} has no array kernel")
        if kernel is None or (workers is not None and workers > 1):
            return self.query_batch(argument_tuples, backend=backend,
                                    workers=workers, executor=executor,
                                    exact_mode=exact_mode)
        columns = self._selector_columns(argument_tuples)
        compiled = self.compiled
        evaluator = VectorizedEvaluator.from_uniform_overrides(
            compiled.circuit, self.sr,
            compiled._cached_override_base(self.sr, kernel),
            columns, self.sr.one,
            schedule=compiled.schedule(), kernel=kernel)
        compiled._note_kernel(evaluator)
        return evaluator.results()

    def affected_arguments(self, update_keys: Sequence[Hashable]
                           ) -> Optional[Tuple]:
        """Which point queries an update of ``update_keys`` may change.

        Returns one set of domain elements per free-variable position:
        ``f(a)`` can only change if ``a[i]`` is in set ``i`` for *every*
        position (each monomial of the Theorem 8 closed form contains
        exactly one selector per position, so the update must co-occur
        with all of ``a``'s selectors to reach ``f(a)``); see
        :func:`repro.circuits.co_occurring_inputs` for the circuit-level
        analysis.  Returns ``None`` for closed queries (no per-argument
        granularity exists).  This is the seam behind touched-group-only
        cache invalidation: after a routed update, cached results whose
        arguments fail the test are provably still correct.

        The analysis reads only static circuit topology (the schedule's
        per-gate input cones), never gate values, so it is memoized per
        ``update_keys`` — a write stream that revisits tuples (live edge
        weights) pays the cone walk once per distinct write target.
        """
        if not self.free:
            return None
        memo_key = tuple(update_keys)
        try:
            return self._affected_memo[memo_key]
        except KeyError:
            pass
        schedule = self.compiled.schedule()
        met = set()
        for key in update_keys:
            met |= co_occurring_inputs(schedule, key)
        affected = []
        for name in self.selectors:
            affected.append(frozenset(
                key[2][0] for key in met
                if isinstance(key, tuple) and len(key) == 3
                and key[0] == "w" and key[1] == name))
        if len(self._affected_memo) >= 8192:  # bound a long write stream
            self._affected_memo.clear()
        self._affected_memo[memo_key] = tuple(affected)
        return self._affected_memo[memo_key]

    def retag_unaffected(self, scope: Any, update_keys: Sequence[Hashable],
                         from_epoch: int, to_epoch: int) -> int:
        """Carry ``scope``'s cached point results from ``from_epoch`` to
        ``to_epoch`` across a write of ``update_keys``; returns the number
        of entries carried.

        A key survives only when it is an argument tuple of the query's
        arity that :meth:`affected_arguments` proves the write cannot
        reach.  Every other key, and every key when the analysis fails,
        stays stale — always safe, never wrong.
        """
        cached = scope.keys()
        if not cached:
            return 0
        try:
            affected = self.affected_arguments(update_keys)
        except Exception:  # noqa: BLE001 - stale-but-correct beats wrong
            return 0
        if affected is None:
            return 0
        arity = len(affected)
        return scope.retag_many(
            [args for args in cached
             if isinstance(args, tuple) and len(args) == arity
             and not all(args[i] in affected[i] for i in range(arity))],
            from_epoch, to_epoch)

    # -- updates ----------------------------------------------------------------

    def update_weight(self, name: str, tup: Tuple, value: Any) -> int:
        self._check_open()
        return self.dynamic.update_weight(name, tup, value)

    def set_relation(self, name: str, tup: Tuple, present: bool) -> int:
        self._check_open()
        return self.dynamic.set_relation(name, tup, present)

    def stats(self) -> Dict[str, Any]:
        return self.compiled.stats()
