"""End-to-end Theorem 6: structure + closed expression -> circuit.

``compile_structure_query`` chains the reduction stages:

1. normalize the expression into sum-of-product blocks (Lemma 28-style);
2. compute a low-treedepth coloring of the Gaifman graph (Prop. 1) and
   split every block over color subsets ``D`` with surjective color
   assignments (Lemma 35 — exact for any coloring);
3. per subset: encode the induced substructure as a labeled elimination
   forest (Lemma 33 generalized to any arity, see ``forest_from_structure``)
   and run the forest compiler (Lemma 29).

The resulting :class:`CompiledQuery` evaluates in any semiring, statically
or dynamically; :class:`DynamicQuery` supports weight updates on declared
tuples and Gaifman-preserving relation updates for declared dynamic
relations — the input models of Theorems 8 and 24.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from ..circuits import (HAVE_NUMPY, PLAN_FORMAT_VERSION, ArrayKernel,
                        BatchedEvaluator, Circuit, CircuitBuilder,
                        DynamicEvaluator, LayerSchedule, PlanStateError,
                        StaticEvaluator, VectorizedEvaluator, build_schedule,
                        circuit_from_state, circuit_to_state, decode_atom,
                        encode_atom, kernel_for, optimize_circuit,
                        schedule_from_state, schedule_to_state,
                        validate_backend, validate_exact_mode)
from ..graphs import low_treedepth_coloring
from ..logic import Block, normalize
from ..logic.weighted import WExpr
from ..semirings import Semiring
from ..structures import LabeledForest, Structure
from .forest_compiler import ForestCompiler
from .stages import color_blocks, forest_from_structure


def _forest_to_state(forest: LabeledForest) -> Dict[str, Any]:
    """Serialize one labeled forest: nodes by index, parents as indices,
    labels/weights over node indices (sorted for determinism)."""
    nodes = list(forest.parent)
    index_of = {node: index for index, node in enumerate(nodes)}
    return {
        "nodes": [encode_atom(node) for node in nodes],
        "parent": [-1 if parent is None else index_of[parent]
                   for parent in forest.parent.values()],
        "labels": sorted(
            ([encode_atom(key), sorted(index_of[n] for n in members)]
             for key, members in forest.labels.items()),
            key=repr),
        "weights": sorted(
            ([encode_atom(name), sorted([index_of[n], encode_atom(value)]
                                        for n, value in mapping.items())]
             for name, mapping in forest.weights.items()),
            key=repr),
    }


def _forest_from_state(state: Any) -> LabeledForest:
    if not isinstance(state, dict) or \
            not isinstance(state.get("nodes"), list) or \
            not isinstance(state.get("parent"), list) or \
            len(state["nodes"]) != len(state["parent"]):
        raise PlanStateError("malformed forest state")
    nodes = [decode_atom(item) for item in state["nodes"]]
    parent = {node: (None if index < 0 else nodes[index])
              for node, index in zip(nodes, state["parent"])}
    labels = {decode_atom(key): {nodes[index] for index in members}
              for key, members in state.get("labels", ())}
    weights = {decode_atom(name): {nodes[index]: decode_atom(value)
                                   for index, value in entries}
               for name, entries in state.get("weights", ())}
    # The LabeledForest constructor re-derives depths/paths and rejects
    # parent cycles, so a tampered forest cannot produce silent garbage.
    return LabeledForest(parent, labels=labels, weights=weights)


def _non_clique_pair(gaifman, tup: Tuple) -> Optional[Tuple]:
    """The first pair of distinct elements of ``tup`` *not* adjacent in
    the Gaifman graph, or ``None`` when the tuple is a clique — the
    Theorem 24 update-model condition."""
    distinct = list(dict.fromkeys(tup))
    for i, a in enumerate(distinct):
        for b in distinct[i + 1:]:
            if not gaifman.has_edge(a, b):
                return (a, b)
    return None


@dataclass
class CompiledQuery:
    """A compiled closed weighted query over a fixed structure."""

    circuit: Circuit
    structure: Structure
    blocks: List[Block]
    coloring: Dict[Hashable, int]
    forests: List[Tuple[frozenset, LabeledForest]]
    gaifman: object  # cached Gaifman graph (fixed under the update model)
    recorded: Dict[Hashable, Tuple[str, object]]
    dynamic_relations: frozenset
    #: layered evaluation plan, built once at compile time and memoized
    #: (circuits are immutable after compilation/optimization, so the
    #: schedule never goes stale).
    _schedule: Optional[LayerSchedule] = field(
        default=None, repr=False, compare=False)
    #: bumped by every recorded-input mutation (weight updates, relation
    #: toggles); versions the memoized base valuations below.
    _input_version: int = field(default=0, repr=False, compare=False)
    #: semiring -> [version, base valuation dict,
    #: {kernel name: PreparedBase}] (guarded fast-path kernels and the
    #: object kernel have different dtypes, so each keeps its own column).
    _base_cache: Dict[Any, list] = field(default_factory=dict, repr=False,
                                         compare=False)
    #: accumulated vectorized-kernel telemetry ("requested"/"used" kernel
    #: names, guard-trip "fallbacks", "batches"), surfaced via stats().
    _kernel_stats: Dict[str, Any] = field(default_factory=dict, repr=False,
                                          compare=False)
    _kernel_stats_lock: Any = field(default_factory=threading.Lock,
                                    repr=False, compare=False)
    #: per-stage compile durations in seconds (normalize, coloring,
    #: forests, forest_compiler, optimize, schedule), recorded by
    #: ``compile_structure_query`` and surfaced via stats(); empty for
    #: plans loaded from a store (the work was not done here) and shared
    #: across rebinds (the compilation *was* this one).
    _stage_seconds: Dict[str, float] = field(default_factory=dict,
                                             repr=False, compare=False)

    def schedule(self) -> LayerSchedule:
        """The circuit's layer schedule, computed once and cached."""
        if self._schedule is None:
            self._schedule = build_schedule(self.circuit)
        return self._schedule

    def _invalidate_inputs(self) -> None:
        """Called by every mutation of ``recorded``: stales the memoized
        base valuations (serving-path cache hook)."""
        self._input_version += 1

    def _cached_entry(self, sr: Semiring) -> list:
        """The memoized ``[version, base valuation, {kernel: PreparedBase}]``
        entry for ``sr``, rebuilt when an update has staled it.

        The base dict is shared across calls — callers must treat it as
        read-only (the batched evaluators overlay copies).  Entries go
        stale the moment an update lands; a concurrent in-flight batch
        may still read the old base, which is the documented serving
        semantics.  Derived state (the prepared columns) is always built
        from and stored into *one* entry object, so a stale base can
        never be planted in a fresh entry by a racing thread."""
        entry = self._base_cache.get(sr)
        if entry is None or entry[0] != self._input_version:
            entry = [self._input_version, self.input_valuation(sr), {}]
            self._base_cache[sr] = entry
        return entry

    def _cached_input_valuation(self, sr: Semiring) -> Dict[Hashable, Any]:
        """Memoized :meth:`input_valuation` for the batched hot path."""
        return self._cached_entry(sr)[1]

    def _cached_override_base(self, sr: Semiring, kernel: ArrayKernel):
        """Memoized :class:`PreparedBase` for the numpy override path,
        keyed by the kernel (fast-path and object columns differ)."""
        entry = self._cached_entry(sr)
        prepared = entry[2].get(kernel.name)
        if prepared is None:
            prepared = VectorizedEvaluator.prepare_base(
                self.circuit, sr, entry[1], schedule=self.schedule(),
                kernel=kernel)
            entry[2][kernel.name] = prepared
        return prepared

    def _note_kernel(self, evaluator: VectorizedEvaluator) -> None:
        """Fold one vectorized evaluation's kernel telemetry into the
        accumulated stats (which kernel ran, how many guard trips)."""
        with self._kernel_stats_lock:
            stats = self._kernel_stats
            stats["requested"] = evaluator.kernel_requested
            stats["used"] = evaluator.kernel_used
            stats["fallbacks"] = (stats.get("fallbacks", 0)
                                  + evaluator.fallbacks)
            stats["batches"] = stats.get("batches", 0) + 1

    def kernel_used(self) -> Optional[str]:
        """The exact kernel the last vectorized batch ran (``"int64"``,
        ``"object"``, ...), or ``None`` before any batch.  Cheap — reads
        the telemetry dict without the full circuit walk of :meth:`stats`
        (grouped sweeps read this per call)."""
        with self._kernel_stats_lock:
            return self._kernel_stats.get("used")

    def input_valuation(self, sr: Semiring) -> Dict[Hashable, Any]:
        """Carrier values for every recorded input gate."""
        values: Dict[Hashable, Any] = {}
        for key, (kind, raw) in self.recorded.items():
            values[key] = (sr.one if raw else sr.zero) if kind == "b" else raw
        return values

    def evaluate(self, sr: Semiring) -> Any:
        values = self.input_valuation(sr)
        return StaticEvaluator(self.circuit, sr,
                               lambda key: values.get(key, sr.zero)).value()

    def evaluate_batch(self, sr: Semiring, valuations: Sequence[Any],
                       backend: str = "auto",
                       workers: Optional[int] = None,
                       executor: Optional[Any] = None,
                       exact_mode: str = "auto") -> List[Any]:
        """Evaluate the circuit under N valuations in one batched pass.

        Each element of ``valuations`` is either a mapping of input keys
        to carrier values — interpreted as *overrides* of the structure's
        recorded weights, so ``{}`` reproduces :meth:`evaluate` — or a
        callable ``key -> value`` used as-is.  Returns one output value
        per valuation, in order.

        ``backend`` selects the evaluation substrate: ``"python"`` is
        the pure-Python :class:`BatchedEvaluator`; ``"numpy"`` is the
        layered :class:`VectorizedEvaluator` (raises if NumPy is missing
        or the semiring has no array kernel); ``"auto"`` (default) uses
        NumPy when available for the semiring and falls back to Python
        otherwise.  ``workers`` > 1 shards the batch across a thread
        pool — chunks evaluate independently over the shared (cached)
        schedule, so results are identical to the single-threaded path.
        Note threads only buy wall-clock parallelism for kernels whose
        reductions release the GIL (the ``float64`` carriers: floats and
        the tropical family); object-dtype kernels (``N``/``Z``/``Q``)
        and the pure-Python backend serialize on the GIL.

        ``executor`` lends an existing ``concurrent.futures`` executor
        for the ``workers`` sharding instead of constructing (and tearing
        down) a fresh thread pool per call — the hot-path form used by
        :class:`repro.api.Database`, which owns one pool for its whole
        lifetime.  The executor is not shut down here.

        ``exact_mode`` selects the vectorized kernel for the exact
        carriers (``N``/``Z``/``Q``): ``"auto"``/``"int64"`` pick the
        overflow-guarded native fast path (results stay exact — a guard
        trip transparently re-runs on the object kernel), ``"object"``
        forces the exact object-dtype kernel.  Validated eagerly through
        the same seam as ``backend`` (:mod:`repro.circuits.backends`).
        """
        validate_backend(backend)
        validate_exact_mode(exact_mode)
        valuations = list(valuations)
        kernel = None
        if backend != "python":
            kernel = kernel_for(sr, exact_mode)
            if kernel is None and backend == "numpy":
                raise RuntimeError(
                    f"backend='numpy' unavailable: numpy is not installed "
                    f"or semiring {sr.name} has no array kernel")
        if workers is not None and workers > 1 and len(valuations) > 1:
            if kernel is not None:
                self.schedule()  # build once, outside the pool
            size = -(-len(valuations) // workers)  # ceil division
            chunks = [valuations[i:i + size]
                      for i in range(0, len(valuations), size)]
            if executor is not None:
                parts = list(executor.map(
                    lambda chunk: self._evaluate_chunk(sr, chunk, kernel),
                    chunks))
            else:
                with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
                    parts = list(pool.map(
                        lambda chunk: self._evaluate_chunk(sr, chunk,
                                                           kernel),
                        chunks))
            return [value for part in parts for value in part]
        return self._evaluate_chunk(sr, valuations, kernel)

    def _evaluate_chunk(self, sr: Semiring, valuations: List[Any],
                        kernel: Optional[ArrayKernel]) -> List[Any]:
        zero = sr.zero
        if kernel is not None and not any(callable(v) for v in valuations):
            # Sparse-override fast path: the precomputed (memoized) base
            # input column is broadcast once, then only the per-valuation
            # edits are written.
            evaluator = VectorizedEvaluator.from_overrides(
                self.circuit, sr, self._cached_override_base(sr, kernel),
                valuations, schedule=self.schedule(), kernel=kernel)
            self._note_kernel(evaluator)
            return evaluator.results()
        base = self._cached_input_valuation(sr)
        fns = []
        for valuation in valuations:
            if callable(valuation):
                fns.append(valuation)
            else:
                overlay = dict(base)
                overlay.update(valuation)
                fns.append(lambda key, _o=overlay: _o.get(key, zero))
        if kernel is not None:
            evaluator = VectorizedEvaluator(self.circuit, sr, fns,
                                            schedule=self.schedule(),
                                            kernel=kernel)
            self._note_kernel(evaluator)
            return evaluator.results()
        return BatchedEvaluator(self.circuit, sr, fns).results()

    def dynamic(self, sr: Semiring, strategy: Optional[str] = None,
                on_change=None) -> "DynamicQuery":
        """The Theorem 8/24 maintained handle."""
        return DynamicQuery(self, sr, strategy=strategy, on_change=on_change)

    def rebind(self, structure: Structure) -> "CompiledQuery":
        """A fresh :class:`CompiledQuery` over ``structure``, sharing the
        immutable artifacts (circuit, layer schedule, blocks) and copying
        the mutable per-instance state (``recorded``, forests, coloring).

        ``structure`` must be content-equal to the structure the plan was
        compiled for (same fingerprint) — this is how the compile-plan
        cache hands one compilation to many consumers without aliasing
        their update state.
        """
        return CompiledQuery(
            self.circuit, structure, self.blocks, dict(self.coloring),
            [(colors, forest.copy()) for colors, forest in self.forests],
            structure.gaifman(), dict(self.recorded), self.dynamic_relations,
            _schedule=self._schedule, _stage_seconds=self._stage_seconds)

    # -- serialization -----------------------------------------------------------

    def to_state(self) -> Dict[str, Any]:
        """A versioned, data-only snapshot of the plan: circuit gates,
        layer schedule, coloring, forests, recorded inputs and dynamic
        relations — everything :meth:`from_state` needs except the host
        structure and the source expression (which the caller keys the
        plan by).  Raises :class:`~repro.circuits.PlanNotSerializable`
        when a recorded value falls outside the serializable vocabulary
        (e.g. a user-defined carrier object); see
        :mod:`repro.circuits.serialize` for the format.
        """
        return {
            "format": PLAN_FORMAT_VERSION,
            "circuit": circuit_to_state(self.circuit),
            "schedule": (schedule_to_state(self._schedule)
                         if self._schedule is not None else None),
            "coloring": [[encode_atom(element), color]
                         for element, color in self.coloring.items()],
            "forests": [[sorted(colors), _forest_to_state(forest)]
                        for colors, forest in self.forests],
            "recorded": [[encode_atom(key), kind, encode_atom(raw)]
                         for key, (kind, raw) in self.recorded.items()],
            "dynamic_relations": sorted(self.dynamic_relations),
        }

    @classmethod
    def from_state(cls, state: Any, structure: Structure,
                   expr: Optional[WExpr] = None) -> "CompiledQuery":
        """Rebuild a plan from :meth:`to_state` output over ``structure``
        (which must be content-equal to the compile-time structure — the
        persistent store enforces that through its fingerprint key).

        ``expr`` re-derives the normalized blocks (query-sized, cheap);
        the Gaifman graph comes from ``structure``.  Raises
        :class:`~repro.circuits.PlanStateError` on malformed state.
        """
        if not isinstance(state, dict):
            raise PlanStateError("malformed plan state")
        if state.get("format") != PLAN_FORMAT_VERSION:
            raise PlanStateError(
                f"plan state format {state.get('format')!r} != "
                f"{PLAN_FORMAT_VERSION}")
        try:
            circuit = circuit_from_state(state["circuit"])
            schedule = (schedule_from_state(circuit, state["schedule"])
                        if state.get("schedule") is not None else None)
            coloring = {decode_atom(element): color
                        for element, color in state["coloring"]}
            forests = [(frozenset(colors), _forest_from_state(forest_state))
                       for colors, forest_state in state["forests"]]
            recorded: Dict[Hashable, Tuple[str, object]] = {}
            for key, kind, raw in state["recorded"]:
                if kind not in ("b", "w"):
                    raise PlanStateError(f"unknown recorded kind {kind!r}")
                recorded[decode_atom(key)] = (kind, decode_atom(raw))
            dynamic = frozenset(state["dynamic_relations"])
        except PlanStateError:
            raise
        except (KeyError, IndexError, TypeError, ValueError) as error:
            raise PlanStateError(f"malformed plan state: {error}") from None
        blocks = normalize(expr) if expr is not None else []
        return cls(circuit, structure, blocks, coloring, forests,
                   structure.gaifman(), recorded, dynamic,
                   _schedule=schedule)

    def stats(self) -> Dict[str, Any]:
        info = self.circuit.stats()
        info["color_subsets"] = len(self.forests)
        info["colors"] = len(set(self.coloring.values())) if self.coloring else 0
        info["max_forest_height"] = max(
            (forest.height() for _, forest in self.forests), default=0)
        with self._kernel_stats_lock:
            if self._kernel_stats:
                info["exact_kernel"] = dict(self._kernel_stats)
        if self._stage_seconds:
            info["compile_stages"] = dict(self._stage_seconds)
        return info

    # -- update routing ---------------------------------------------------------
    # Input gates are keyed by the *original* fact: ("w", name, tup) for
    # weights and ("dynrel", name, tup, positive) for dynamic relations, so
    # one update touches exactly one (resp. two) input gates regardless of
    # how many color subsets mention the fact.

    def can_mark(self, name: str, tup: Tuple) -> bool:
        """Whether :meth:`mark_relation` would accept this toggle: the
        relation is declared dynamic and the tuple is a clique of the
        compile-time Gaifman graph (the Theorem 24 update model).  The
        one shared predicate behind every pre-validation (e.g. the
        facade's transaction checks on live services)."""
        return (name in self.dynamic_relations
                and _non_clique_pair(self.gaifman, tuple(tup)) is None)

    def mark_relation(self, name: str, tup: Tuple, present: bool
                      ) -> List[Tuple[Hashable, bool]]:
        """Record a Gaifman-preserving relation toggle; returns the input
        keys whose boolean state changed (for the evaluator/enumerator to
        apply).  Validates the Theorem 24 update model."""
        if name not in self.dynamic_relations:
            raise ValueError(f"{name} was not declared dynamic")
        tup = tuple(tup)
        if _non_clique_pair(self.gaifman, tup) is not None:
            raise ValueError(
                f"tuple {tup!r} is not a clique of the Gaifman "
                f"graph; such updates change the Gaifman graph and "
                f"are outside the Theorem 24 update model")
        if present:
            self.structure.add_tuple(name, tup)
        else:
            self.structure.remove_tuple(name, tup)
        for _, forest in self.forests:
            if all(element in forest.parent for element in tup):
                if len(tup) == 1:
                    forest.set_label(("rel", name), tup[0], present)
                else:
                    depths = tuple(forest.depth[e] for e in tup)
                    deepest = max(tup, key=lambda e: forest.depth[e])
                    forest.set_label(("reltup", name, depths),
                                     deepest, present)
        changed: List[Tuple[Hashable, bool]] = []
        for positive in (True, False):
            key = ("dynrel", name, tup, positive)
            if key in self.recorded:
                state = present == positive
                self.recorded[key] = ("b", state)
                changed.append((key, state))
        if changed:
            self._invalidate_inputs()
        return changed


class DynamicQuery:
    """Theorem 8 / Theorem 24 dynamic data structure."""

    def __init__(self, compiled: CompiledQuery, sr: Semiring,
                 strategy: Optional[str] = None, on_change=None):
        self.compiled = compiled
        self.sr = sr
        values = compiled.input_valuation(sr)
        self.evaluator = DynamicEvaluator(
            compiled.circuit, sr, lambda key: values.get(key, sr.zero),
            strategy=strategy, on_change=on_change)

    def value(self) -> Any:
        return self.evaluator.value()

    def update_weight(self, name: str, tup: Tuple, value: Any) -> int:
        """Set ``name(tup) = value``; returns gates touched.  Only tuples
        declared at compile time are updatable (supports, hence the Gaifman
        graph, stay fixed — the paper's update model)."""
        compiled = self.compiled
        tup = tuple(tup)
        if tup not in compiled.structure.weights.get(name, {}):
            raise KeyError(f"{name}{tup} was not declared at compile time")
        # Through set_weight, not a raw dict write: the structure's
        # content caches (fingerprint, Gaifman) must see the mutation.
        compiled.structure.set_weight(name, tup, value)
        key = ("w", name, tup)
        touched = 0
        if key in compiled.recorded:
            compiled.recorded[key] = ("w", value)
            compiled._invalidate_inputs()
            touched = self.evaluator.update_input(key, value)
        return touched

    def set_relation(self, name: str, tup: Tuple, present: bool) -> int:
        """Gaifman-preserving relation update (Theorem 24's model): toggle
        membership of a tuple whose elements form a clique of the (fixed)
        Gaifman graph.  ``name`` must be declared dynamic at compile time."""
        sr = self.sr
        touched = 0
        for key, state in self.compiled.mark_relation(name, tup, present):
            touched += self.evaluator.update_input(
                key, sr.one if state else sr.zero)
        return touched


def plan_cache_key(structure: Structure, expr: WExpr,
                   dynamic_relations: Sequence[str] = (),
                   optimize: bool = True) -> Tuple:
    """The compile-plan cache key: everything the compiled circuit depends
    on.  The structure enters via its content :meth:`~Structure.fingerprint`
    (domain order, relations, weight values), the expression via its
    canonical ``repr`` (expressions are frozen dataclasses with
    deterministic reprs)."""
    return (structure.fingerprint(), repr(expr),
            frozenset(dynamic_relations), bool(optimize))


def compile_structure_query(structure: Structure, expr: WExpr,
                            dynamic_relations: Sequence[str] = (),
                            coloring: Optional[Dict[Hashable, int]] = None,
                            optimize: bool = True,
                            plan_cache: Optional[Any] = None,
                            plan_store: Optional[Any] = None,
                            verify: Optional[bool] = None
                            ) -> CompiledQuery:
    """Theorem 6 end-to-end (quantifier-free brackets; see repro.qe for
    eliminating quantifiers first).

    ``optimize`` runs the :mod:`repro.circuits.optimize` default pass
    pipeline (constant folding, fan-in flattening, CSE/DCE) over the
    compiled circuit before it is handed to the evaluators; the rewrite
    preserves the circuit's value in every semiring and rebuilds the
    input-gate table, so updates and enumeration are unaffected.  Pass
    ``optimize=False`` to keep the raw Theorem 6 circuit (the shape the
    paper's size bounds are stated for).

    ``plan_cache`` (e.g. :class:`repro.serve.PlanCache`) memoizes whole
    compilations keyed by :func:`plan_cache_key`: on a hit the cached
    plan is :meth:`~CompiledQuery.rebind`-ed to ``structure`` — sharing
    the immutable circuit and layer schedule, copying the mutable update
    state — and the normalize/color/forest/compile stages are skipped
    entirely.  An explicit ``coloring`` bypasses the cache (the coloring
    is an input the key does not capture).

    ``plan_store`` (a :class:`repro.serve.PlanStore`) is the persistent
    tier *under* the in-memory cache, on the same key: memory miss →
    disk load (also seeding the memory cache) → compile, with the
    compiled plan written back to disk.  A corrupt or stale entry is a
    miss (recompile), never an error.

    ``verify`` runs the IR verifier
    (:func:`repro.analysis.verify_plan`) over the freshly compiled
    plan before it is returned or persisted — the opt-in post-compile
    trust seam.  ``None`` (default) defers to the
    ``REPRO_VERIFY_PLANS`` environment variable.  Plans loaded from
    ``plan_store`` are always verified by the store itself (disk bytes
    are untrusted); in-memory cache hits rebind plans this process
    already produced, so they are not re-verified.
    """
    if (plan_cache is not None or plan_store is not None) \
            and coloring is None:
        key = plan_cache_key(structure, expr, dynamic_relations, optimize)
        if plan_cache is not None:
            template = plan_cache.lookup(key)
            if template is not None:
                return template.rebind(structure)
        if plan_store is not None:
            loaded = plan_store.load(key, structure, expr)
            if loaded is not None:
                if plan_cache is not None:
                    # Seed the memory tier: later lookups in this
                    # process must not touch disk again.
                    plan_cache.store(key, loaded.rebind(structure))
                return loaded
        compiled = compile_structure_query(
            structure, expr, dynamic_relations=dynamic_relations,
            optimize=optimize, verify=verify)
        # Store a pristine snapshot: the caller may mutate its plan's
        # recorded weights/forest labels, which must not drift the cached
        # template away from the content the key fingerprints.
        if plan_cache is not None:
            plan_cache.store(key, compiled.rebind(structure))
        if plan_store is not None:
            # Serialized immediately (before the caller can mutate the
            # plan); unserializable carriers skip quietly.
            plan_store.save(key, compiled)
        return compiled

    stage_seconds: Dict[str, float] = {}
    stamp = time.perf_counter()

    def _stage(name: str) -> None:
        # Accumulating (not assigning) lets the forest/compile stages
        # interleave per color subset and still report clean totals.
        nonlocal stamp
        now = time.perf_counter()
        stage_seconds[name] = stage_seconds.get(name, 0.0) + (now - stamp)
        stamp = now

    blocks = normalize(expr)
    width = max((len(b.vars) for b in blocks), default=0)
    dynamic = frozenset(dynamic_relations)
    _stage("normalize")

    builder = CircuitBuilder()
    recorded: Dict[Hashable, Tuple[str, object]] = {}
    tops: List[Optional[int]] = []

    constant_blocks = [b for b in blocks if not b.vars]
    variable_blocks = [b for b in blocks if b.vars]
    if constant_blocks:
        compiler = ForestCompiler(LabeledForest({}), builder,
                                  recorded=recorded)
        tops.append(compiler.compile_blocks(constant_blocks))
        _stage("forest_compiler")

    color_of: Dict[Hashable, int] = {}
    forests: List[Tuple[frozenset, LabeledForest]] = []
    if variable_blocks and structure.domain:
        if coloring is None:
            coloring = low_treedepth_coloring(structure.gaifman(),
                                              max(width, 1))
        color_of = dict(coloring)
        palette = sorted(set(color_of.values()))
        _stage("coloring")
        for size in range(1, width + 1):
            for subset in itertools.combinations(palette, size):
                refined: List[Block] = []
                for block in variable_blocks:
                    if len(block.vars) >= size:
                        refined.extend(color_blocks(block, subset))
                if not refined:
                    continue
                part = [v for v in structure.domain
                        if color_of[v] in set(subset)]
                if not part:
                    continue
                stamp = time.perf_counter()
                forest = forest_from_structure(structure, part)
                for color in subset:
                    forest.labels[("color", color)] = {
                        v for v in part if color_of[v] == color}
                forests.append((frozenset(subset), forest))
                _stage("forests")
                compiler = ForestCompiler(forest, builder,
                                          dynamic_relations=dynamic,
                                          recorded=recorded)
                tops.append(compiler.compile_blocks(refined))
                _stage("forest_compiler")

    stamp = time.perf_counter()
    circuit = builder.build(builder.add(tops))
    if optimize:
        circuit = optimize_circuit(circuit).circuit
        _stage("optimize")
    compiled = CompiledQuery(circuit, structure, blocks, color_of, forests,
                             structure.gaifman(), recorded, dynamic,
                             _stage_seconds=stage_seconds)
    if HAVE_NUMPY:
        # Precompute the layered evaluation plan now: the circuit is
        # immutable from here on, so the schedule is paid once per compile
        # and every vectorized batched evaluation reuses it.  Numpy-less
        # installs have no consumer (the python backend walks the circuit
        # directly), so they keep the lazy schedule() accessor only.
        stamp = time.perf_counter()
        compiled.schedule()
        _stage("schedule")
    # Post-compile trust seam (opt-in): catch a compiler/optimizer bug
    # at the source instead of deep inside an evaluation.  Imported
    # lazily — repro.core must not pay for repro.analysis on every use.
    from ..analysis.verify import verification_enabled
    if verification_enabled(verify):
        from ..analysis.verify import verify_plan
        verify_plan(compiled)
    return compiled
