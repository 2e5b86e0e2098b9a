"""The project-invariant linter: AST rules for repo-specific contracts.

Generic linters cannot see the invariants this codebase actually relies
on — they live in comments and code review.  This module turns them
into machine-checked rules over the Python AST (stdlib :mod:`ast`, no
third-party dependency), run by CI and by a pytest wrapper so the real
source tree is provably clean and each rule provably fires.

The rules:

``REP001`` **lock ordering** — the database lock (``db._lock``) is
    acquired *before* any prepared-query engine lock (``_engine_lock``),
    never inside one.  The update router holds ``db._lock`` when it
    reaches the engines; an inverted acquisition elsewhere is a
    lock-order cycle, i.e. a deadlock waiting for load.

``REP002`` **locks via ``with`` only** — no bare ``.acquire()`` /
    ``.release()`` on lock-named attributes.  A ``with`` block releases
    on every exit path (including exceptions); manual pairing has
    already been the source of abandoned-lock bugs in enough codebases
    to ban outright.

``REP003`` **epoch bump on invalidation** — any ``*invalidate*``
    method in the facade/serving layers (``repro.api``, ``repro.serve``)
    must advance the database epoch (``_epoch += 1``).  The shared
    result cache keys point-query results by epoch; an invalidation
    path that forgets the bump serves stale answers — silently.

``REP005`` **deterministic, pickle-free serialization** — modules that
    produce serialized plans or cache keys (``serialize``,
    ``plan_store``, ``plan_cache``, ``result_cache``) must not import
    pickle-family codecs (arbitrary code execution on load) nor call
    nondeterminism sources (``hash()`` is salted per process;
    ``time``/``random``/``uuid``/``os.urandom`` vary per run) — cache
    keys and stored bytes must be reproducible across processes.
    Stable facilities (``hashlib``, ``os.getpid``,
    ``threading.get_ident`` for temp-file uniqueness) stay allowed.

``REP006`` **no blocking calls in cluster async paths** — inside an
    ``async def`` in ``repro.cluster`` modules, no ``time.sleep``, no
    bare ``.result()`` (a ``concurrent.futures`` wait with no timeout),
    and no blocking pipe/socket operations (``recv``, ``recv_bytes``,
    ``send_bytes``, ``sendall``, ``accept``, ``connect``).  The gateway
    embeds in the *caller's* event loop; one blocking call in a
    coroutine stalls every request on that loop.  Blocking belongs in
    the dispatcher threads and the ``*_sync`` facades — coroutines only
    await loop-agnostic futures.

``REP007`` **no full-content rehash on the update hot path** — inside
    update-path functions (``_apply_weight``/``_apply_relation``/
    ``_apply_write``, the structure mutators, ``update``/``__exit__`` of
    the transaction router, the retag/verify hooks) in the ``api``/
    ``serve``/``cluster`` layers, no ``full_fingerprint()`` or
    ``rehash()`` calls.  The structure fingerprint is maintained
    incrementally precisely so a write costs O(delta); one stray
    full rehash in the hot path silently reverts the update model to
    O(structure) per write.  Full rehashes belong to tests and the
    ``REPRO_VERIFY_FINGERPRINT`` debug mode.

Each rule has positive and negative fixtures under
``tests/lint_fixtures/``; ``tests/test_analysis_lint.py`` asserts the
shipped source tree is clean and that every rule fires on its negative
fixture.  CLI: ``python -m repro.analysis lint src/repro``.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = ["LintViolation", "lint_source", "lint_file", "lint_paths",
           "RULES"]

#: rule id -> one-line description (the CLI's ``--explain`` output).
RULES = {
    "REP001": "db._lock must be acquired before _engine_lock, never "
              "inside it (lock-order deadlock)",
    "REP002": "locks are acquired only via `with`, never bare "
              ".acquire()/.release()",
    "REP003": "invalidation paths in repro.api/repro.serve must bump "
              "the database epoch (`_epoch += 1`)",
    "REP005": "serialize/cache-key modules: no pickle-family imports, no "
              "nondeterminism (hash()/time/random/uuid/urandom)",
    "REP006": "cluster async paths: no time.sleep, bare .result(), or "
              "blocking pipe/socket ops inside `async def`",
    "REP007": "update hot paths in repro.api/serve/cluster: no "
              "full-content rehash (full_fingerprint()/rehash()) — the "
              "fingerprint is maintained incrementally, O(delta) per "
              "write",
}

#: pickle-family modules whose import REP005 bans outright.
_PICKLE_MODULES = frozenset({"pickle", "cPickle", "dill", "shelve",
                             "marshal"})

#: dotted calls REP005 treats as nondeterminism sources.
_NONDETERMINISTIC_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "os.urandom",
    "uuid.uuid1", "uuid.uuid4", "random.random", "random.randint",
    "random.randrange", "random.getrandbits", "random.choice",
    "random.shuffle", "random.sample",
})

#: module basenames (sans ``.py``) REP005 applies to.
_SERIALIZE_MODULES = frozenset({"serialize", "plan_store", "plan_cache",
                                "result_cache"})

#: attribute calls REP006 treats as blocking pipe/socket operations.
_BLOCKING_IO_ATTRS = frozenset({"recv", "recv_bytes", "recv_into",
                                "send_bytes", "sendall", "accept",
                                "connect"})

#: function names REP007 treats as the update hot path.
_HOT_UPDATE_FUNCS = frozenset({
    "_apply_weight", "_apply_relation", "_apply_write",
    "set_weight", "set_relation", "add_tuple", "remove_tuple",
    "remove_weight", "update_weight", "update", "__exit__",
    "_verify_fresh", "_retag_points", "_retag_unaffected",
})

#: call tails REP007 bans inside the update hot path.
_FULL_REHASH_CALLS = frozenset({"full_fingerprint", "rehash"})


@dataclass(frozen=True)
class LintViolation:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: {self.rule} "
                f"{self.message}")


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_db_lock(dotted: str) -> bool:
    """``db._lock`` / ``self.db._lock`` / ``prepared.db._lock`` ..."""
    parts = dotted.split(".")
    return len(parts) >= 2 and parts[-1] == "_lock" and parts[-2] == "db"


def _is_engine_lock(dotted: str) -> bool:
    return dotted.split(".")[-1] == "_engine_lock"


def _module_parts(path: str) -> Tuple[str, ...]:
    """Normalized path components, for layer checks (``api``/``serve``)."""
    normalized = path.replace(os.sep, "/").replace("\\", "/")
    return tuple(part for part in normalized.split("/") if part)


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str):
        self.path = path
        parts = _module_parts(path)
        basename = parts[-1][:-3] if parts and parts[-1].endswith(".py") \
            else (parts[-1] if parts else "")
        #: REP003 applies only in the facade/serving layers.
        self.in_facade_layer = bool({"api", "serve"} & set(parts[:-1]))
        #: REP005 applies to serialize/cache-key modules.
        self.in_serialize_module = basename in _SERIALIZE_MODULES
        #: REP006 applies to the multi-process serving layer.
        self.in_cluster_module = "cluster" in parts[:-1]
        #: REP007 applies to the layers that route updates.
        self.in_update_layer = bool(
            {"api", "serve", "cluster"} & set(parts[:-1]))
        #: lexical stack of `with`-held lock names (dotted).
        self.lock_stack: List[str] = []
        #: lexical function-kind stack: True inside `async def` bodies
        #: (a nested sync `def` pushes False and shadows it).
        self.async_stack: List[bool] = []
        #: lexical stack of enclosing function names (for REP007).
        self.func_stack: List[str] = []
        self.violations: List[LintViolation] = []

    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        self.violations.append(LintViolation(
            rule=rule, path=self.path, line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0), message=message))

    # -- REP001 / REP002: lock discipline -----------------------------------------

    def visit_With(self, node: ast.With) -> None:
        held = []
        for item in node.items:
            expr = item.context_expr
            # `with lock:` and `with lock.acquire_timeout(...)` both
            # root at the lock attribute; classify by the dotted name.
            dotted = _dotted(expr)
            if dotted is None:
                continue
            if _is_db_lock(dotted) and any(
                    _is_engine_lock(h) for h in self.lock_stack):
                self._flag(
                    "REP001", item.context_expr,
                    f"acquires {dotted} while holding an engine lock "
                    f"({[h for h in self.lock_stack if _is_engine_lock(h)][0]})"
                    f" — lock order is db._lock BEFORE _engine_lock")
            if _is_db_lock(dotted) or _is_engine_lock(dotted):
                held.append(dotted)
        self.lock_stack.extend(held)
        self.generic_visit(node)
        del self.lock_stack[len(self.lock_stack) - len(held):]

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) \
                and func.attr in ("acquire", "release"):
            dotted = _dotted(func.value)
            if dotted is not None and "lock" in dotted.lower():
                self._flag(
                    "REP002", node,
                    f"bare {dotted}.{func.attr}() — acquire locks only "
                    f"via `with` (releases on every exit path)")
        if self.in_serialize_module:
            self._check_nondeterministic_call(node)
        if self.in_cluster_module and self.async_stack \
                and self.async_stack[-1]:
            self._check_blocking_call(node)
        if self.in_update_layer and any(
                name in _HOT_UPDATE_FUNCS for name in self.func_stack):
            self._check_full_rehash_call(node)
        self.generic_visit(node)

    # -- REP003: epoch bump on invalidation ----------------------------------------

    def _visit_function(self, node) -> None:
        if self.in_facade_layer and "invalidate" in node.name.lower() \
                and not self._bumps_epoch(node):
            self._flag(
                "REP003", node,
                f"{node.name}() is an invalidation path but never bumps "
                f"the database epoch (`_epoch += 1`) — epoch-keyed "
                f"result caches would serve stale answers")
        self.async_stack.append(isinstance(node, ast.AsyncFunctionDef))
        self.func_stack.append(node.name)
        self.generic_visit(node)
        self.func_stack.pop()
        self.async_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    @staticmethod
    def _bumps_epoch(node) -> bool:
        return any(isinstance(child, ast.AugAssign)
                   and isinstance(child.op, ast.Add)
                   and isinstance(child.target, ast.Attribute)
                   and child.target.attr == "_epoch"
                   for child in ast.walk(node))

    # -- REP005: deterministic, pickle-free serialization ---------------------------

    def visit_Import(self, node: ast.Import) -> None:
        if self.in_serialize_module:
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _PICKLE_MODULES:
                    self._flag(
                        "REP005", node,
                        f"import {alias.name} in a serialize/cache-key "
                        f"module — plan bytes must be data-only (loading "
                        f"must never execute code)")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self.in_serialize_module and node.module \
                and node.module.split(".")[0] in _PICKLE_MODULES:
            self._flag(
                "REP005", node,
                f"from {node.module} import ... in a serialize/cache-key "
                f"module — plan bytes must be data-only")
        self.generic_visit(node)

    def _check_nondeterministic_call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "hash":
            self._flag(
                "REP005", node,
                "builtin hash() in a serialize/cache-key module — it is "
                "salted per process; use hashlib for stable digests")
            return
        dotted = _dotted(node.func)
        if dotted in _NONDETERMINISTIC_CALLS:
            self._flag(
                "REP005", node,
                f"{dotted}() in a serialize/cache-key module — stored "
                f"bytes and cache keys must be reproducible across "
                f"processes")

    # -- REP006: no blocking calls in cluster async paths ---------------------------

    def _check_blocking_call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted == "time.sleep":
            self._flag(
                "REP006", node,
                "time.sleep() inside a cluster `async def` stalls the "
                "caller's event loop — await asyncio.sleep, or move the "
                "wait into a dispatcher thread")
            return
        if not isinstance(node.func, ast.Attribute):
            return
        attr = node.func.attr
        if attr == "result" and not node.args and not node.keywords:
            self._flag(
                "REP006", node,
                "bare .result() inside a cluster `async def` blocks the "
                "event loop with no deadline — await "
                "asyncio.wrap_future(...) instead")
        elif attr in _BLOCKING_IO_ATTRS:
            self._flag(
                "REP006", node,
                f".{attr}() inside a cluster `async def` is a blocking "
                f"pipe/socket operation — only dispatcher threads may "
                f"touch worker connections")

    # -- REP007: no full rehash on the update hot path -------------------------------

    def _check_full_rehash_call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is None:
            return
        tail = dotted.split(".")[-1]
        if tail in _FULL_REHASH_CALLS:
            self._flag(
                "REP007", node,
                f"{dotted}() inside an update hot-path function — a "
                f"full content rehash is O(structure) per write; the "
                f"fingerprint digest is maintained incrementally "
                f"(verification belongs in tests / "
                f"REPRO_VERIFY_FINGERPRINT)")


def lint_source(source: str, path: str = "<string>"
                ) -> List[LintViolation]:
    """Lint one module's source text.  ``path`` determines which
    path-scoped rules apply (REP003's facade layers, REP005's serialize
    modules, REP006's cluster modules, REP007's update layers) and is
    echoed in violations."""
    tree = ast.parse(source, filename=path)
    linter = _Linter(path)
    linter.visit(tree)
    return sorted(linter.violations,
                  key=lambda v: (v.path, v.line, v.col, v.rule))


def lint_file(path: str) -> List[LintViolation]:
    with open(path, encoding="utf-8") as handle:
        return lint_source(handle.read(), path)


def lint_paths(paths: Sequence[str]) -> List[LintViolation]:
    """Lint files and directory trees (``.py`` files, recursively)."""
    violations: List[LintViolation] = []
    for path in _python_files(paths):
        violations.extend(lint_file(path))
    return violations


def _python_files(paths: Sequence[str]) -> Iterable[str]:
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = [d for d in dirs
                           if d not in ("__pycache__", ".git")]
                for name in sorted(names):
                    if name.endswith(".py"):
                        yield os.path.join(root, name)
        else:
            yield path
