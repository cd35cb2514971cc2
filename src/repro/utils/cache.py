"""Shared memoization primitives for the evaluation hot path.

Pieces used by the decode/few-shot cache layers and the serving-side
response cache:

* :class:`LRUCache` — a small, thread-safe, bounded LRU with
  hit/miss/eviction counters and predicate purges.
* :func:`per_object_cache` — a registry of LRU caches keyed by the
  *identity* of a host object (a :class:`~repro.dbengine.database.Database`,
  a :class:`~repro.schema.model.DatabaseSchema`), so every consumer of
  the same live object shares one memo and the memo dies with the
  object.  Host objects only need to support weak references.
* a process-global enable switch — :func:`caches_enabled`,
  :func:`set_caches_enabled`, and the :func:`caches_disabled` context
  manager — that lets equivalence tests (and debugging sessions) run the
  exact same pipeline with every memo layer bypassed.  It is the
  program's one runtime switch; process pools and gateway shards
  receive it as one bool.
* :func:`gated_lru_cache` — a bounded ``functools.lru_cache`` for pure
  string functions (schema-linking similarity, tokens, identifiers)
  that the same switch bypasses.

The switch gates *lookups and stores*, not correctness: with caches on
or off the pipeline must produce bit-identical results, which
``tests/test_mode_identity.py`` asserts in every execution mode.
"""

from __future__ import annotations

import functools
import threading
import weakref
from collections import OrderedDict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any, Hashable

_MISSING = object()


class LRUCache:
    """A bounded, thread-safe LRU mapping with hit/miss/eviction counters."""

    __slots__ = ("maxsize", "hits", "misses", "evictions", "_data", "_lock")

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()

    def lookup(self, key: Hashable) -> tuple[bool, Any]:
        """Return ``(hit, value)``; ``value`` is ``None`` on a miss."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return False, None
            self._data.move_to_end(key)
            self.hits += 1
            return True, value

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def purge(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key satisfies ``predicate``; returns the count."""
        with self._lock:
            doomed = [key for key in self._data if predicate(key)]
            for key in doomed:
                del self._data[key]
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    # Locks are not picklable; a cache crossing a process boundary
    # arrives empty (memo state is a pure optimisation).
    def __getstate__(self) -> dict:
        return {"maxsize": self.maxsize}

    def __setstate__(self, state: dict) -> None:
        self.maxsize = state["maxsize"]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data = OrderedDict()
        self._lock = threading.Lock()


# -- per-object cache registry -------------------------------------------

# (id(host), cache name) -> (weakref to host, cache).  The weakref both
# detects id reuse (a new object at a recycled address must not inherit a
# dead object's memo) and drives eviction via weakref.finalize.
_OBJECT_CACHES: dict[tuple[int, str], tuple[weakref.ref, LRUCache]] = {}
_OBJECT_CACHES_LOCK = threading.Lock()
# Keys whose host died, awaiting removal under the lock.
_DEAD_KEYS: list[tuple[int, str]] = []


def _evict_if_dead(key: tuple[int, str]) -> None:
    # A finalizer can run on any allocation, including one made while
    # this thread holds the lock, so it only queues the key (list.append
    # takes no lock); lock holders drain the queue.
    _DEAD_KEYS.append(key)


def _drain_dead_keys() -> None:
    """Drop the entries of dead hosts; the caller holds the lock."""
    while _DEAD_KEYS:
        key = _DEAD_KEYS.pop()
        entry = _OBJECT_CACHES.get(key)
        if entry is not None and entry[0]() is None:
            del _OBJECT_CACHES[key]


def per_object_cache(host: object, name: str, maxsize: int = 1024) -> LRUCache:
    """The shared :class:`LRUCache` named ``name`` for the live ``host``.

    Every caller holding the same object gets the same cache; the cache
    is dropped when the host is garbage-collected.
    """
    key = (id(host), name)
    with _OBJECT_CACHES_LOCK:
        _drain_dead_keys()
        entry = _OBJECT_CACHES.get(key)
        if entry is not None and entry[0]() is host:
            return entry[1]
        cache = LRUCache(maxsize=maxsize)
        _OBJECT_CACHES[key] = (weakref.ref(host), cache)
    weakref.finalize(host, _evict_if_dead, key)
    return cache


def clear_object_caches(name: str) -> None:
    """Empty every live per-object cache named ``name``."""
    with _OBJECT_CACHES_LOCK:
        entries = list(_OBJECT_CACHES.items())
    for (_host_id, cache_name), (_ref, cache) in entries:
        if cache_name == name:
            cache.clear()


def lru_cache_stats() -> dict[str, dict[str, int]]:
    """Aggregate live per-object cache counters, keyed by cache name.

    Sums ``hits``/``misses``/``entries`` over every live host sharing a
    cache name (e.g. all databases' ``candidate_exec`` memos) plus the
    live cache count, for surfacing through CLI stats and the run
    report.  Counters are process-cumulative; callers wanting per-run
    numbers snapshot before/after and subtract.
    """
    totals: dict[str, dict[str, int]] = {}
    with _OBJECT_CACHES_LOCK:
        _drain_dead_keys()
        entries = list(_OBJECT_CACHES.items())
    for (_host_id, name), (ref, cache) in entries:
        if ref() is None:
            continue
        bucket = totals.setdefault(
            name,
            {"hits": 0, "misses": 0, "evictions": 0, "entries": 0, "caches": 0},
        )
        bucket["hits"] += cache.hits
        bucket["misses"] += cache.misses
        bucket["evictions"] += cache.evictions
        bucket["entries"] += len(cache)
        bucket["caches"] += 1
    return totals


# -- global enable switch ------------------------------------------------

_ENABLED = True


def caches_enabled() -> bool:
    """True while the hot-path memo layers are active (the default)."""
    return _ENABLED


def set_caches_enabled(enabled: bool) -> None:
    """Globally enable/disable every hot-path memo layer."""
    global _ENABLED
    _ENABLED = bool(enabled)


@contextmanager
def caches_disabled() -> Iterator[None]:
    """Scoped bypass of all memo layers (for equivalence tests)."""
    previous = _ENABLED
    set_caches_enabled(False)
    try:
        yield
    finally:
        set_caches_enabled(previous)


def gated_lru_cache(maxsize: int) -> Callable[[Callable], Callable]:
    """A bounded ``functools.lru_cache`` whose lookups obey the global switch.

    For pure functions of immutable (string) arguments.  While caches are
    enabled a call goes through the memo; under :func:`caches_disabled`
    it runs the undecorated body, so the memo neither hits nor fills.
    The returned function keeps the memo's ``cache_info`` and
    ``cache_clear`` and, via ``__wrapped__``, the plain body.
    """

    def decorate(function: Callable) -> Callable:
        memo = functools.lru_cache(maxsize=maxsize)(function)

        @functools.wraps(function)
        def gated(*args):
            return memo(*args) if _ENABLED else function(*args)

        gated.cache_info = memo.cache_info
        gated.cache_clear = memo.cache_clear
        return gated

    return decorate
