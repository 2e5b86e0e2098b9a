"""Epoch-tagged LRU cache for point-query results.

A point query ``f(a)`` over a fixed engine state is a pure function of
the argument tuple, so results are cacheable until the state changes.
Invalidation is driven by :class:`~repro.core.DynamicQuery`'s
touched-gate reporting: every effective ``update_weight``/``set_relation``
(one that recomputes at least one gate) advances the service *epoch*,
and entries are tagged with the epoch they were computed under — a
lookup at a later epoch misses and evicts the stale entry lazily.  An
update that touches zero gates (a no-op write of an unchanged value, or
a write to an input the circuit never reads) provably changes no query
result and leaves the cache warm.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Iterable, Tuple

#: Sentinel returned by :meth:`ResultCache.get` on a miss (``None`` is a
#: legitimate carrier value in user semirings).
MISS = object()


class ResultCache:
    """Bounded, thread-safe LRU of ``(epoch, value)`` entries.

    Keys of the form ``(namespace, key)`` — what :meth:`scoped` views
    store — are also indexed by namespace, so one scope's keys are
    listed and cleared without walking the other scopes' entries.
    """

    MISS = MISS

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, Tuple[int, Any]]" = OrderedDict()
        # namespace -> its inner keys (as dict keys: insertion-ordered).
        self._scopes: Dict[Hashable, Dict[Hashable, None]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stale = 0

    def get(self, key: Hashable, epoch: int) -> Any:
        """The cached value for ``key`` at ``epoch``, or :data:`MISS`.

        An entry tagged with an older epoch counts as a miss and is
        evicted on the spot (lazy invalidation: one epoch bump makes the
        whole cache stale without walking it).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return MISS
            if entry[0] != epoch:
                del self._entries[key]
                self._unindex(key)
                self.stale += 1
                self.misses += 1
                return MISS
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[1]

    def put(self, key: Hashable, value: Any, epoch: int) -> None:
        with self._lock:
            if key not in self._entries and isinstance(key, tuple) \
                    and len(key) == 2:
                self._scopes.setdefault(key[0], {})[key[1]] = None
            self._entries[key] = (epoch, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._unindex(self._entries.popitem(last=False)[0])

    def _unindex(self, key: Hashable) -> None:
        """Drop a removed entry's key from the namespace index (lock
        held)."""
        if isinstance(key, tuple) and len(key) == 2:
            inner = self._scopes.get(key[0])
            if inner is not None:
                inner.pop(key[1], None)
                if not inner:
                    del self._scopes[key[0]]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._scopes.clear()

    def keys(self) -> list:
        """A snapshot of the cached keys (any epoch, LRU order)."""
        with self._lock:
            return list(self._entries)

    def retag(self, key: Hashable, from_epoch: int, to_epoch: int) -> bool:
        """Carry one entry across an epoch bump: if ``key`` is cached
        under exactly ``from_epoch``, tag it ``to_epoch`` and return
        True.  The conditional matters — an entry from an even older
        epoch may have been invalidated by an *earlier* update and must
        not be resurrected.  This is the fine-grained invalidation hook:
        after an effective update advances the epoch, the updater retags
        the entries its change provably cannot affect, so only touched
        results go stale."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry[0] != from_epoch:
                return False
            self._entries[key] = (to_epoch, entry[1])
            return True

    def retag_many(self, keys: Iterable[Hashable],
                   from_epoch: int, to_epoch: int) -> int:
        """Bulk :meth:`retag` under one lock round; returns how many
        entries were carried over.  A write stream retags every
        provably-unaffected entry after each effective update, so the
        per-entry lock/unlock of N ``retag`` calls is hot-path overhead
        worth batching away."""
        carried = 0
        with self._lock:
            for key in keys:
                entry = self._entries.get(key)
                if entry is not None and entry[0] == from_epoch:
                    self._entries[key] = (to_epoch, entry[1])
                    carried += 1
        return carried

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"size": len(self._entries), "maxsize": self.maxsize,
                    "hits": self.hits, "misses": self.misses,
                    "stale": self.stale}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (f"<ResultCache size={s['size']}/{s['maxsize']} "
                f"hits={s['hits']} misses={s['misses']} stale={s['stale']}>")

    # -- scoped views ------------------------------------------------------------

    def scoped(self, namespace: Hashable) -> "ScopedResultCache":
        """A namespaced view of this cache: keys are transparently
        prefixed with ``namespace``, so many consumers (one per prepared
        query / service) share a single LRU memory budget without their
        argument-tuple keys colliding."""
        return ScopedResultCache(self, namespace)

    def clear_scope(self, namespace: Hashable) -> int:
        """Drop every entry of one scope; returns how many were dropped."""
        with self._lock:
            inner = self._scopes.pop(namespace, {})
            for key in inner:
                del self._entries[(namespace, key)]
            return len(inner)

    def scope_keys(self, namespace: Hashable) -> list:
        """The inner keys cached under one scope (any epoch), in first
        insertion order — read from the namespace index, so the cost
        follows the scope's size, not the whole cache's."""
        with self._lock:
            return list(self._scopes.get(namespace, ()))


class ScopedResultCache:
    """A namespaced view of a shared :class:`ResultCache`.

    Satisfies the cache protocol :class:`~repro.serve.QueryService` and
    the facade's bound point queries consume (``get``/``put``/``stats``/
    ``clear``), storing entries under ``(namespace, key)`` in the parent.
    Hit/miss counters are tracked per scope; capacity, eviction and the
    epoch semantics belong to the parent.
    """

    MISS = MISS

    def __init__(self, parent: ResultCache, namespace: Hashable) -> None:
        self.parent = parent
        self.namespace = namespace
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable, epoch: int) -> Any:
        value = self.parent.get((self.namespace, key), epoch)
        with self._lock:
            if value is MISS:
                self.misses += 1
            else:
                self.hits += 1
        return value

    def put(self, key: Hashable, value: Any, epoch: int) -> None:
        self.parent.put((self.namespace, key), value, epoch)

    def clear(self) -> None:
        self.parent.clear_scope(self.namespace)

    def keys(self) -> list:
        """This scope's cached inner keys (any epoch)."""
        return self.parent.scope_keys(self.namespace)

    def retag(self, key: Hashable, from_epoch: int, to_epoch: int) -> bool:
        """Conditional epoch carry-over (see :meth:`ResultCache.retag`)."""
        return self.parent.retag((self.namespace, key), from_epoch, to_epoch)

    def retag_many(self, keys: Iterable[Hashable],
                   from_epoch: int, to_epoch: int) -> int:
        """Bulk carry-over (see :meth:`ResultCache.retag_many`)."""
        return self.parent.retag_many(
            [(self.namespace, key) for key in keys], from_epoch, to_epoch)

    def stats(self) -> Dict[str, int]:
        parent = self.parent.stats()
        with self._lock:
            return {"size": parent["size"], "maxsize": parent["maxsize"],
                    "hits": self.hits, "misses": self.misses,
                    "shared": True}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ScopedResultCache ns={self.namespace!r} "
                f"hits={self.hits} misses={self.misses}>")
