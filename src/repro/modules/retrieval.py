"""Few-shot retrieval index: inverted-index Jaccard top-k over train questions.

:func:`repro.modules.fewshot.select_examples` re-tokenizes every training
question on every call — O(|train|) tokenizations per example, repeated
per method and per AAS generation.  :class:`FewShotIndex` builds the
tokenization once per train corpus: each train question is stored as a
frozen token set, and an inverted token → candidate-id map restricts
Jaccard scoring to examples sharing at least one token with the target
question.  Selection uses :func:`heapq.nlargest`, and a bounded
per-question memo shares completed selections across methods that use
the same train split.

The index is an *exact* replacement, not an approximation: for any
corpus and query it returns bit-identical ``(examples, quality)`` to the
brute-force selector (asserted against randomized corpora in
``tests/test_perf_caches.py``).  The equivalence relies on three facts:

* ``|A ∪ B| = |A| + |B| - |A ∩ B|``, so the indexed similarity
  ``inter / (|A| + |B| - inter)`` divides the same two integers as
  ``jaccard`` and produces the same float;
* candidates sharing no token score exactly ``0.0`` (and ones sharing a
  token score ``> 0.0``), so the inverted index misses nothing that the
  stable descending sort would have placed in the top k ahead of the
  zero-similarity tail (taken in corpus order);
* an empty query token set matches :func:`repro.utils.text.jaccard`'s
  both-empty convention — empty train questions score ``1.0``, all
  others ``0.0``.

Indexes are obtained through :func:`index_for`, a small process-level
registry keyed by a stable hash of the corpus so identical train splits
(across methods, or across evaluator instances in one process) share
one index and one memo.  Process workers rebuild the registry lazily on
first use; pickling an index reduces to its pair list and rebuilds
deterministically on the other side.
"""

from __future__ import annotations

import heapq
import threading

from repro.modules.fewshot import (
    MANUAL_EXAMPLES,
    MANUAL_QUALITY,
    FewShotExample,
)
from repro.utils.cache import LRUCache
from repro.utils.rng import stable_hash
from repro.utils.text import tokenize_words

_MEMO_MAXSIZE = 16384


class FewShotIndex:
    """Pre-tokenized train corpus with inverted-index top-k selection."""

    __slots__ = ("_pairs", "_token_sets", "_sizes", "_inverted", "_empty_ids", "_memo")

    def __init__(self, train_pairs: list[tuple[str, str]]) -> None:
        self._pairs: tuple[tuple[str, str], ...] = tuple(
            (question, sql) for question, sql in train_pairs
        )
        self._token_sets: list[frozenset[str]] = [
            frozenset(tokenize_words(question)) for question, _ in self._pairs
        ]
        self._sizes: list[int] = [len(tokens) for tokens in self._token_sets]
        inverted: dict[str, list[int]] = {}
        empty_ids: list[int] = []
        for idx, tokens in enumerate(self._token_sets):
            if not tokens:
                empty_ids.append(idx)
                continue
            for token in tokens:
                inverted.setdefault(token, []).append(idx)
        self._inverted = inverted
        self._empty_ids = tuple(empty_ids)
        self._memo = LRUCache(maxsize=_MEMO_MAXSIZE)

    def __len__(self) -> int:
        return len(self._pairs)

    def __reduce__(self):
        # Rebuild (cheaply and deterministically) on unpickle rather than
        # shipping the inverted index and memo across process boundaries.
        return (index_for, (list(self._pairs),))

    @property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        return self._pairs

    def top_k(self, question: str, k: int) -> list[tuple[float, str, str]]:
        """Top-``k`` ``(similarity, question, sql)`` triples.

        Order matches ``sorted(..., key=lambda item: -item[0])`` over the
        brute-force scores: descending similarity, ties (and the
        zero-similarity fill) in corpus order.
        """
        if k <= 0 or not self._pairs:
            return []
        query_tokens = frozenset(tokenize_words(question))
        query_size = len(query_tokens)

        scores: dict[int, float] = {}
        if not query_tokens:
            # jaccard(∅, ∅) == 1.0; anything non-empty scores 0.0.
            for idx in self._empty_ids:
                scores[idx] = 1.0
        else:
            overlap: dict[int, int] = {}
            for token in query_tokens:
                for idx in self._inverted.get(token, ()):
                    overlap[idx] = overlap.get(idx, 0) + 1
            for idx, inter in overlap.items():
                scores[idx] = inter / (query_size + self._sizes[idx] - inter)

        top = heapq.nlargest(
            k, scores.items(), key=lambda item: (item[1], -item[0])
        )
        chosen = [
            (sim, self._pairs[idx][0], self._pairs[idx][1]) for idx, sim in top
        ]
        if len(chosen) < k:
            # Zero-similarity tail, in corpus order, exactly as the stable
            # descending sort would emit it.
            taken = {idx for idx, _ in top}
            for idx in range(len(self._pairs)):
                if len(chosen) >= k:
                    break
                if idx in taken or idx in scores:
                    continue
                chosen.append((0.0, self._pairs[idx][0], self._pairs[idx][1]))
        return chosen

    def select(
        self, strategy: str, question: str, k: int
    ) -> tuple[list[FewShotExample], float, bool]:
        """Mirror of ``select_examples`` returning ``(examples, quality, memo_hit)``."""
        if strategy == "manual_fewshot" or not self._pairs:
            chosen = MANUAL_EXAMPLES[:k]
            examples = [
                FewShotExample(question=q, sql=s, similarity=MANUAL_QUALITY)
                for q, s in chosen
            ]
            return examples, MANUAL_QUALITY, False

        memo_key = (strategy, question, k)
        hit, cached = self._memo.lookup(memo_key)
        if hit:
            examples, quality = cached
            return list(examples), quality, True

        top = self.top_k(question, k)
        examples = [
            FewShotExample(question=q, sql=s, similarity=round(sim, 4))
            for sim, q, s in top
        ]
        if not examples:
            result: tuple[list[FewShotExample], float] = ([], 0.0)
        else:
            # Quality from the *unrounded* similarities; rounding is only
            # for display on FewShotExample.
            mean_similarity = sum(sim for sim, _, _ in top) / len(top)
            quality = max(MANUAL_QUALITY, min(0.5 + mean_similarity, 0.95))
            result = (examples, quality)
        self._memo.put(memo_key, (tuple(result[0]), result[1]))
        return list(result[0]), result[1], False


# -- process-level index registry ----------------------------------------

_REGISTRY_MAXSIZE = 8
_REGISTRY: dict[int, FewShotIndex] = {}
_REGISTRY_ORDER: list[int] = []
_REGISTRY_LOCK = threading.Lock()


def index_for(train_pairs: list[tuple[str, str]]) -> FewShotIndex:
    """Shared :class:`FewShotIndex` for this train corpus.

    Identical corpora (by content) map to one index — and therefore one
    selection memo — across every method prepared in this process.
    """
    key = stable_hash(tuple(train_pairs))
    with _REGISTRY_LOCK:
        index = _REGISTRY.get(key)
        if index is None:
            index = FewShotIndex(train_pairs)
            _REGISTRY[key] = index
            _REGISTRY_ORDER.append(key)
            while len(_REGISTRY_ORDER) > _REGISTRY_MAXSIZE:
                evicted = _REGISTRY_ORDER.pop(0)
                _REGISTRY.pop(evicted, None)
        return index


def clear_index_registry() -> None:
    """Drop every cached index (test isolation helper)."""
    with _REGISTRY_LOCK:
        _REGISTRY.clear()
        _REGISTRY_ORDER.clear()
