"""Batched LM inference engine plumbing: prefix cache, decode window.

This module is the infrastructure layer behind the batched generation
path (``SimulatedLanguageModel.generate_many``) and the prefix-cached
prompt builder (:func:`repro.modules.prompts.build_prompt`):

* :class:`PromptSegment` — one rendered prompt fragment paired with its
  token count, so whole-prompt accounting becomes a sum of cached
  per-segment counts instead of a fresh regex scan per example.  The
  approximate tokenizer (:func:`repro.llm.tokens.count_tokens`) never
  matches a token across whitespace, so segment counts are *exactly*
  additive as long as every segment boundary falls on whitespace — which
  :func:`repro.modules.prompts.build_prompt` guarantees (each cached
  segment ends with a newline).
* :class:`PromptPrefixCache` — a segment/radix cache over prompt
  construction.  Schema-DDL segments are cached per live ``Database``
  on ``(data_version, pruned tables, value-comment content)``, since
  two datasets may hold different databases under one ``db_id`` at one
  ``data_version``; few-shot blocks key on
  ``(strategy, k, selected examples)``; instruction overhead keys on its
  token budget.  All questions against the same database share one
  rendered (and token-counted) DDL segment, exactly like the prefix/
  radix KV caches of real inference servers share the prompt prefix.
* a thread-local **decode window** registry — the hook through which
  :class:`repro.serve.scheduler.DecodeScheduler` observes (and
  accounts) the batched decode calls a ``(method, db_id)`` micro-batch
  submits, without ``repro.llm`` ever importing ``repro.serve``.

Per-draw ``generate`` calls stay the reference that batched decoding is
tested against (``tests/test_llm_engine.py``).

Thread/process safety: the prefix cache wraps thread-safe
:class:`~repro.utils.cache.LRUCache` instances and may be shared across
threads; it does not cross process boundaries (worker processes build
their own lazily).  Its lookups obey the process-global memo switch
(:func:`repro.utils.cache.caches_enabled`).
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Hashable

from repro.llm.tokens import count_tokens
from repro.utils.cache import (
    LRUCache,
    caches_enabled,
    clear_object_caches,
    lru_cache_stats,
    per_object_cache,
)


@dataclass(frozen=True)
class PromptSegment:
    """One rendered prompt fragment with its (exact) token count."""

    text: str
    tokens: int

    @classmethod
    def render(cls, text: str) -> "PromptSegment":
        return cls(text=text, tokens=count_tokens(text))


#: Segment kinds the cache partitions by (each gets its own LRU, so a
#: burst of distinct few-shot selections cannot evict schema DDL).
SEGMENT_KINDS = ("overhead", "schema", "fewshot")


class PromptPrefixCache:
    """Segment cache over prompt construction (prefix/radix-cache style).

    ``segment(kind, key, render)`` returns the cached
    :class:`PromptSegment` for ``(kind, key)`` or renders, counts, and
    stores it.  With a ``host`` object the segment is cached per live
    host instead (:func:`~repro.utils.cache.per_object_cache`, named
    ``prefix_<kind>``), so equal keys on two hosts never share a
    segment.  Lookups and stores are gated by the process-global memo
    switch (:func:`repro.utils.cache.caches_enabled`): with caches off
    every call renders fresh, so cached and uncached prompt construction
    stay bit-identical — the cache only ever reuses byte-equal text.
    """

    def __init__(self, maxsize: int = 2048) -> None:
        self.maxsize = maxsize
        self._caches = {kind: LRUCache(maxsize=maxsize) for kind in SEGMENT_KINDS}
        # This instance's hits and misses per kind, host-keyed lookups
        # included (their LRUs live in the per-object registry).
        self._counts = {kind: {"hits": 0, "misses": 0} for kind in SEGMENT_KINDS}
        self._lock = threading.Lock()

    def segment(
        self,
        kind: str,
        key: Hashable,
        render: Callable[[], str],
        host: object | None = None,
    ) -> tuple[PromptSegment, bool]:
        """Return ``(segment, hit)`` for ``(kind, key)``, per ``host`` if given."""
        cache = self._caches[kind]
        if not caches_enabled():
            return PromptSegment.render(render()), False
        if host is not None:
            cache = per_object_cache(host, _hosted_name(kind), maxsize=self.maxsize)
        hit, value = cache.lookup(key)
        with self._lock:
            self._counts[kind]["hits" if hit else "misses"] += 1
        if hit:
            return value, True
        segment = PromptSegment.render(render())
        cache.put(key, segment)
        return segment, False

    def clear(self) -> None:
        for kind, cache in self._caches.items():
            cache.clear()
            clear_object_caches(_hosted_name(kind))

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-kind hits and misses of this instance, plus the entries
        and evictions of its own LRUs and of every live host's."""
        hosted = lru_cache_stats()
        with self._lock:
            counts = {kind: dict(pair) for kind, pair in self._counts.items()}
        for kind, cache in self._caches.items():
            extra = hosted.get(_hosted_name(kind), {})
            counts[kind]["evictions"] = cache.evictions + extra.get("evictions", 0)
            counts[kind]["entries"] = len(cache) + extra.get("entries", 0)
        return counts


def _hosted_name(kind: str) -> str:
    """The ``per_object_cache`` name of ``kind``'s per-host segments."""
    return f"prefix_{kind}"


# One cache per process, shared by every method and serving engine:
# prefix reuse across methods on the same database is the point.
_PREFIX_CACHE = PromptPrefixCache()


def prefix_cache() -> PromptPrefixCache:
    """The process-global prompt prefix cache."""
    return _PREFIX_CACHE


def clear_prefix_cache() -> None:
    """Drop every cached segment (tests and long-lived servers)."""
    _PREFIX_CACHE.clear()


# -- decode window registry ----------------------------------------------

# The serving scheduler installs a window object around each micro-batch
# so member requests' batched decode calls flow through one shared
# accounting context.  The window counts them; each decode is still its
# own generate_many call, so no draws are combined across requests.
# Windows are thread-local: each serve worker thread runs one
# micro-batch at a time.
_WINDOW_TLS = threading.local()


def current_decode_window():
    """The decode window installed on this thread, or ``None``."""
    return getattr(_WINDOW_TLS, "window", None)


@contextmanager
def decode_window(window) -> Iterator[None]:
    """Install ``window`` as this thread's decode window for the scope.

    ``window`` must expose ``submit(sampler, draws)`` returning the
    candidate list (see :class:`repro.serve.scheduler.DecodeScheduler`).
    """
    previous = current_decode_window()
    _WINDOW_TLS.window = window
    try:
        yield
    finally:
        _WINDOW_TLS.window = previous
