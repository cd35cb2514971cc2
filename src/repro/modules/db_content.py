"""Pre-processing: DB content matching (BRIDGE v2 / CodeS style).

BRIDGE scans the question for spans that string-match actual cell values
and attaches the matched values as per-column annotations in the prompt.
The simulated model uses these hints to copy literals verbatim instead of
hallucinating them — which is the mechanism behind SuperSQL's inclusion
of the module (paper §5.3, Figure 15).
"""

from __future__ import annotations

import re

from repro.dbengine.database import Database
from repro.utils.cache import caches_enabled, per_object_cache
from repro.utils.text import normalized_similarity


def _question_value_spans(question: str) -> list[str]:
    """Candidate value spans: quoted strings plus capitalized multi-words."""
    spans = re.findall(r"'([^']*)'", question)
    spans.extend(re.findall(r"\b\d+(?:\.\d+)?\b", question))
    return [span for span in spans if span]


# Per-database bound: one entry per (question, strategy) at the current
# data version; a zoo pass over one dev database holds a few dozen.
_MATCH_CACHE_SIZE = 1024


def match_db_content(
    strategy: str,
    database: Database,
    question: str,
    max_values_per_column: int = 3,
    fuzzy_threshold: float = 0.82,
) -> dict[str, dict[str, list[str]]]:
    """Match question spans against database contents.

    Returns a ``table -> column -> matched values`` map.  ``strategy``
    distinguishes BRIDGE (fuzzy matching) from CodeS (exact + prefix
    matching); both share the same scan.  The scan is memoized per live
    ``Database`` on its ``data_version`` (so a write re-scans), and every
    caller gets fresh dicts and lists.
    """
    if not caches_enabled():
        return _thaw(_scan(strategy, database, question, max_values_per_column, fuzzy_threshold))
    cache = per_object_cache(database, "db_content", maxsize=_MATCH_CACHE_SIZE)
    key = (database.data_version, strategy, question, max_values_per_column, fuzzy_threshold)
    hit, matches = cache.lookup(key)
    if not hit:
        matches = _scan(strategy, database, question, max_values_per_column, fuzzy_threshold)
        cache.put(key, matches)
    return _thaw(matches)


def _thaw(matches: tuple) -> dict[str, dict[str, list[str]]]:
    return {
        table: {column: list(values) for column, values in columns}
        for table, columns in matches
    }


def _scan(
    strategy: str,
    database: Database,
    question: str,
    max_values_per_column: int,
    fuzzy_threshold: float,
) -> tuple[tuple[str, tuple[tuple[str, tuple[str, ...]], ...]], ...]:
    """The match as ``((table, ((column, values), ...)), ...)`` in scan order."""
    spans = _question_value_spans(question)
    if not spans:
        return ()
    fuzzy = strategy == "bridge"
    matches: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
    for table_name, column_name in database.text_columns():
        values = database.column_values(table_name, column_name, limit=500)
        hits: list[str] = []
        for span in spans:
            span_lower = span.lower()
            span_length = len(span_lower)
            for value in values:
                if value is None:
                    continue
                text = str(value)
                text_lower = text.lower()
                if span_lower in text_lower:
                    hits.append(text)
                elif (
                    fuzzy
                    and _may_reach(len(text_lower), span_length, fuzzy_threshold)
                    and normalized_similarity(text, span) >= fuzzy_threshold
                ):
                    hits.append(text)
                if len(hits) >= max_values_per_column:
                    break
            if len(hits) >= max_values_per_column:
                break
        if hits:
            deduped = tuple(dict.fromkeys(hits))[:max_values_per_column]
            matches.setdefault(table_name, []).append((column_name, deduped))
    return tuple((table, tuple(columns)) for table, columns in matches.items())


def _may_reach(length_a: int, length_b: int, threshold: float) -> bool:
    """False when no edit distance between the two lengths reaches ``threshold``.

    The distance is at least the length difference, so this is
    :func:`normalized_similarity`'s own expression with that lower bound
    in the distance's place: skipping on it changes no verdict.
    """
    return 1.0 - abs(length_a - length_b) / max(length_a, length_b) >= threshold
