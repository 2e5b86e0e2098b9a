"""PlanStore: the persistent on-disk tier under the in-memory PlanCache.

One Theorem 6 compilation takes seconds; loading its serialized plan
takes milliseconds.  :class:`PlanStore` persists compiled plans to a
directory, keyed by :func:`repro.core.plan_cache_key` — the same
(structure fingerprint, expression repr, dynamic relations, optimize)
tuple the in-memory cache uses — so a *fresh process* (a serving
worker, a warm CI runner, a second ``Database`` on the same path) loads
instead of recompiling.

Robustness contract:

* **atomic writes** — each entry is written to a unique temp file and
  ``os.replace``-d into place, so readers never see a torn entry and
  concurrent writers of the same key resolve last-writer-wins;
* **versioned** — entries carry the plan-format and library versions
  (:mod:`repro.circuits.serialize`); a mismatch is a miss and the stale
  file is removed;
* **corruption-tolerant** — a truncated/bit-flipped/garbage entry is a
  counted miss (and removed), never an exception to the caller;
* **verified** — every deserialized plan passes the full IR
  well-formedness contract (:func:`repro.analysis.verify_plan`) before
  it is returned; a plan that decodes but violates an invariant (a
  tampered gate id, a reordered layer, a dropped state field) is a
  counted ``rejected`` miss, removed like any other corrupt entry;
* **bounded** — an LRU sweep (by file mtime; hits refresh it) caps the
  entry count and total bytes;
* **no pickle** — the format is data-only JSON in a checksummed binary
  container; loading a store cannot execute code (though a *tampered*
  store can alter answers — point the path at a trusted directory).

Plans whose recorded values fall outside the serializable vocabulary
(e.g. free-semiring polynomials as selector zeros) are skipped on save,
also without error — the store is an accelerator, never a gate.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from typing import Any, Dict, Hashable, Optional

from ..analysis.verify import PlanVerifyError, verify_plan
from ..circuits.serialize import (PlanNotSerializable, PlanStaleError,
                                  dump_plan_bytes, encode_atom,
                                  load_plan_bytes)

_ENTRY_PREFIX = "plan-"
_ENTRY_SUFFIX = ".rpln"


class PlanStore:
    """A disk-backed store of serialized compiled plans.

    ``path`` is created if missing.  ``max_entries``/``max_bytes`` bound
    the store; the oldest entries (by mtime — refreshed on every hit)
    are evicted after each save.  Thread-safe; multiple processes may
    share one directory (writes are atomic, loads tolerate races).

    Satisfies the ``plan_store`` protocol of
    :func:`repro.core.compile_structure_query` (``load``/``save``).
    """

    def __init__(self, path: Any, max_entries: int = 256,
                 max_bytes: int = 512 * 1024 * 1024):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.path = os.fspath(path)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        os.makedirs(self.path, exist_ok=True)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stale = 0
        self.rejected = 0
        self.errors = 0
        self.skips = 0
        self.saves = 0
        self.evictions = 0

    # -- keys --------------------------------------------------------------------

    def _entry_path(self, key: Hashable) -> str:
        digest = hashlib.sha256(
            json.dumps(encode_atom(key), separators=(",", ":"),
                       sort_keys=True).encode()).hexdigest()
        return os.path.join(self.path, f"{_ENTRY_PREFIX}{digest}"
                                       f"{_ENTRY_SUFFIX}")

    # -- load / save -------------------------------------------------------------

    def load(self, key: Hashable, structure: Any,
             expr: Any = None) -> Optional[Any]:
        """The stored plan for ``key``, rebuilt over ``structure`` — or
        ``None`` (a miss).  Stale or corrupt entries are removed and
        counted; no failure mode raises (bad entry → recompile)."""
        from ..core import CompiledQuery
        path = self._entry_path(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            with self._lock:
                self.misses += 1
            return None
        try:
            state = load_plan_bytes(data)
            # The full key is embedded alongside the plan: a hash
            # collision (or a foreign file at the right name) must be a
            # miss, not a silently-wrong plan.
            if not isinstance(state, dict) or \
                    state.get("key") != encode_atom(key):
                raise PlanStaleError("stored key does not match")
            plan = CompiledQuery.from_state(state.get("plan"), structure,
                                            expr)
            # Disk bytes are untrusted: decode succeeding only means the
            # container and codec were intact.  The verifier checks the
            # IR contract itself (topological order, arities, schedule
            # coverage, recorded-input completeness) before the plan can
            # reach an evaluator.
            verify_plan(plan)
        except PlanVerifyError:
            with self._lock:
                self.rejected += 1
            self._discard(path)
            return None
        except PlanStaleError:
            with self._lock:
                self.stale += 1
            self._discard(path)
            return None
        except Exception:
            with self._lock:
                self.errors += 1
            self._discard(path)
            return None
        with self._lock:
            self.hits += 1
        try:
            os.utime(path)  # refresh the LRU clock
        except OSError:
            pass
        return plan

    def save(self, key: Hashable, plan: Any) -> bool:
        """Persist ``plan`` under ``key`` (atomic write-then-rename);
        returns whether an entry was written.  Unserializable plans are
        counted as skips; I/O failures as errors — neither raises."""
        try:
            data = dump_plan_bytes({"key": encode_atom(key),
                                    "plan": plan.to_state()})
        except PlanNotSerializable:
            with self._lock:
                self.skips += 1
            return False
        path = self._entry_path(key)
        tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
        try:
            with open(tmp, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except OSError:
            with self._lock:
                self.errors += 1
            self._discard(tmp)
            return False
        with self._lock:
            self.saves += 1
        self._prune()
        return True

    # -- maintenance -------------------------------------------------------------

    @staticmethod
    def _discard(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    def _entries(self) -> list:
        """``(path, mtime, size)`` for every entry file, tolerating
        concurrent deletion."""
        entries = []
        try:
            names = os.listdir(self.path)
        except OSError:
            return entries
        for name in names:
            if not (name.startswith(_ENTRY_PREFIX)
                    and name.endswith(_ENTRY_SUFFIX)):
                continue
            path = os.path.join(self.path, name)
            try:
                info = os.stat(path)
            except OSError:
                continue
            entries.append((path, info.st_mtime, info.st_size))
        return entries

    def _prune(self) -> None:
        """Evict oldest-first until within ``max_entries``/``max_bytes``."""
        entries = sorted(self._entries(), key=lambda entry: entry[1])
        total = sum(size for _, _, size in entries)
        index = 0
        while entries[index:] and (len(entries) - index > self.max_entries
                                   or total > self.max_bytes):
            path, _, size = entries[index]
            index += 1
            total -= size
            self._discard(path)
            with self._lock:
                self.evictions += 1

    def clear(self) -> None:
        for path, _, _ in self._entries():
            self._discard(path)

    def __len__(self) -> int:
        return len(self._entries())

    def stats(self) -> Dict[str, Any]:
        entries = self._entries()
        with self._lock:
            return {
                "path": self.path,
                "entries": len(entries),
                "bytes": sum(size for _, _, size in entries),
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "stale": self.stale,
                "rejected": self.rejected,
                "errors": self.errors,
                "skips": self.skips,
                "saves": self.saves,
                "evictions": self.evictions,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (f"<PlanStore {self.path!r} entries={s['entries']} "
                f"hits={s['hits']} misses={s['misses']} "
                f"saves={s['saves']}>")
