"""Cross-request response cache for the online serving engine.

:class:`ResponseCache` memoizes terminal OK responses across requests —
the tier above in-flight coalescing, which only deduplicates
*concurrent* identical requests.  Entries are keyed on ``(method,
db_id, normalized_question, data_version)``:

* the question is canonicalized with
  :func:`repro.utils.text.normalize_question` (whitespace and case
  only, never wording, so the key is exact);
* the database's ``data_version`` is part of the key, so a content
  mutation structurally orphans every cached record for that database —
  a stale entry can never match a post-mutation lookup.
  :meth:`invalidate` (wired to ``Database.add_mutation_listener`` by the
  engine) additionally purges the orphaned entries eagerly and counts
  them.

Storage is a bounded :class:`repro.utils.cache.LRUCache`.  Entries have
no time-to-live: the version key and the eager purge already keep a
record from outliving the content it was computed on.  Cached records
are the exact offline :class:`~repro.core.metrics.EvaluationRecord`
objects, so cache hits are bit-identical to fresh evaluations.

Thread/process safety: every method is safe from any thread (one cache
lock plus the LRU's own lock); instances do not cross process
boundaries.
"""

from __future__ import annotations

import threading
from typing import Hashable

from repro.core.metrics import EvaluationRecord
from repro.utils.cache import LRUCache
from repro.utils.text import normalize_question

#: Default bound on cached responses per engine.
DEFAULT_RESPONSE_CACHE_SIZE = 4096


class ResponseCache:
    """Bounded LRU memo of served records, invalidated by data_version."""

    def __init__(self, maxsize: int = DEFAULT_RESPONSE_CACHE_SIZE) -> None:
        self._cache = LRUCache(maxsize=maxsize)
        self._lock = threading.Lock()
        self._invalidations = 0
        self._stores = 0

    def key(
        self, method: str, db_id: str, question: str, data_version: int
    ) -> tuple[str, str, str, int]:
        """The cache identity of one request against one database state."""
        return (method, db_id, normalize_question(question), int(data_version))

    def lookup(
        self, method: str, db_id: str, question: str, data_version: int
    ) -> EvaluationRecord | None:
        """Return the cached record, or ``None`` on a miss."""
        hit, value = self._cache.lookup(self.key(method, db_id, question, data_version))
        return value if hit else None

    def store(
        self,
        method: str,
        db_id: str,
        question: str,
        data_version: int,
        record: EvaluationRecord,
    ) -> None:
        """Memoize one freshly-computed record under the current version."""
        self._cache.put(self.key(method, db_id, question, data_version), record)
        with self._lock:
            self._stores += 1

    def invalidate(self, db_id: str, current_version: int) -> int:
        """Purge entries for ``db_id`` older than ``current_version``.

        Version-keyed lookups already structurally miss stale entries;
        this eagerly reclaims their memory and feeds the deterministic
        ``invalidations`` counter the tests gate on.  Returns the
        number of purged entries.
        """

        def stale(key: Hashable) -> bool:
            return key[1] == db_id and key[3] < current_version  # type: ignore[index]

        removed = self._cache.purge(stale)
        with self._lock:
            self._invalidations += removed
        return removed

    def clear(self) -> None:
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)

    def stats(self) -> dict[str, int]:
        """Deterministic counters: hits/misses/evictions/entries/…"""
        cache = self._cache
        stats = {
            "hits": cache.hits,
            "misses": cache.misses,
            "evictions": cache.evictions,
            "entries": len(cache),
        }
        with self._lock:
            stats["invalidations"] = self._invalidations
            stats["stores"] = self._stores
        return stats
