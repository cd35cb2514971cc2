"""Schema linking: map natural-language phrases to schema elements.

This is the substrate behind both the NLU intent parser and the
design-space *Schema Linking* module (RESDSQL-style ranking): tables and
columns are indexed by their display phrases and matched by a blend of
token-set Jaccard similarity and normalized edit distance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.schema.model import Column, DatabaseSchema, Table
from repro.utils.cache import gated_lru_cache
from repro.utils.text import jaccard, normalized_similarity, singularize, tokenize_words

# Memo bounds, sized from the distinct keys one process sees over the
# Spider-like and BIRD-like suites: about 3.9k (phrase, schema name) pairs
# and 1.2k phrase strings.  A full pair memo holds about 3 MB.
_SIMILARITY_CACHE_SIZE = 8192
_TOKENS_CACHE_SIZE = 4096


@dataclass(frozen=True)
class LinkedTable:
    """A table match with its linking score in [0, 1]."""

    table: Table
    score: float


@dataclass(frozen=True)
class LinkedColumn:
    """A column match (with owning table) and its linking score."""

    table: Table
    column: Column
    score: float


@gated_lru_cache(maxsize=_TOKENS_CACHE_SIZE)
def _phrase_tokens(phrase: str) -> tuple[str, ...]:
    return tuple(singularize(token) for token in tokenize_words(phrase))


@gated_lru_cache(maxsize=_SIMILARITY_CACHE_SIZE)
def phrase_similarity(a: str, b: str) -> float:
    """Blend of token-set Jaccard and character-level similarity.

    Memoized per process: the intent parser and the column/table rankers
    score the same (phrase, schema name) pairs for every question over a
    schema.
    """
    tokens_a, tokens_b = _phrase_tokens(a), _phrase_tokens(b)
    token_score = jaccard(tokens_a, tokens_b)
    char_score = normalized_similarity(" ".join(tokens_a), " ".join(tokens_b))
    return 0.65 * token_score + 0.35 * char_score


class SchemaLinker:
    """Ranks schema elements against NL phrases for one database."""

    def __init__(self, schema: DatabaseSchema) -> None:
        self.schema = schema

    # -- tables -----------------------------------------------------------

    def rank_tables(self, phrase: str) -> list[LinkedTable]:
        """All tables ranked by similarity to ``phrase`` (best first)."""
        ranked = [
            LinkedTable(table=table, score=phrase_similarity(phrase, table.display_name))
            for table in self.schema.tables
        ]
        ranked.sort(key=lambda lt: (-lt.score, lt.table.name))
        return ranked

    def link_table(self, phrase: str, threshold: float = 0.5) -> LinkedTable | None:
        """Best table match above ``threshold``, or None."""
        ranked = self.rank_tables(phrase)
        if ranked and ranked[0].score >= threshold:
            return ranked[0]
        return None

    # -- columns ----------------------------------------------------------

    def rank_columns(
        self, phrase: str, tables: list[str] | None = None
    ) -> list[LinkedColumn]:
        """All columns (optionally restricted to ``tables``) ranked by similarity.

        Column phrases are scored both standalone and with the owning
        table's name prefixed, so "department name" finds
        ``departments.department_name`` and plain ``name`` columns match
        "student name" through their table context.
        """
        wanted = {name.lower() for name in tables} if tables else None
        ranked: list[LinkedColumn] = []
        for table in self.schema.tables:
            if wanted is not None and table.name.lower() not in wanted:
                continue
            for column in table.columns:
                direct = phrase_similarity(phrase, column.display_name)
                contextual = phrase_similarity(
                    phrase, f"{table.display_name} {column.display_name}"
                )
                score = max(direct, 0.92 * contextual)
                ranked.append(LinkedColumn(table=table, column=column, score=score))
        ranked.sort(key=lambda lc: (-lc.score, lc.table.name, lc.column.name))
        return ranked

    def link_column(
        self,
        phrase: str,
        tables: list[str] | None = None,
        threshold: float = 0.45,
    ) -> LinkedColumn | None:
        """Best column match above ``threshold``, or None."""
        ranked = self.rank_columns(phrase, tables)
        if ranked and ranked[0].score >= threshold:
            return ranked[0]
        return None

    # -- question-level linking (RESDSQL-style pruning) --------------------

    def relevant_tables(self, question: str, top_k: int = 4) -> list[str]:
        """Tables likely referenced by ``question``, for prompt pruning.

        Scores each table by the best token-set overlap between any of
        its phrases (table name, column names) and the question's tokens;
        returns up to ``top_k`` table names, always at least one.
        """
        question_set = set(_phrase_tokens(question))
        scores: list[tuple[float, str]] = []
        for table in self.schema.tables:
            best = self._table_evidence(table, question_set)
            scores.append((best, table.name))
        scores.sort(key=lambda pair: (-pair[0], pair[1]))
        selected = [name for score, name in scores[:top_k] if score > 0.2]
        if not selected:
            selected = [scores[0][1]]
        return selected

    def _table_evidence(self, table: Table, question_set: set[str]) -> float:
        table_tokens = set(_phrase_tokens(table.display_name))
        best = len(table_tokens & question_set) / max(len(table_tokens), 1)
        for column in table.columns:
            column_tokens = set(_phrase_tokens(column.display_name))
            if not column_tokens:
                continue
            overlap = len(column_tokens & question_set) / len(column_tokens)
            best = max(best, 0.9 * overlap)
        return best
