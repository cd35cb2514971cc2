"""Phrase lexicon: normalize question surface forms back to canonical.

Two layers:

* **base rules** cover the canonical templates and the *easy* paraphrase
  rewrites — any language model resolves these;
* **hard rules** cover the rarer paraphrase rewrites.  Which hard rules a
  given model resolves is decided by the caller (the simulated LLM) via
  the ``enabled_hard`` set, so linguistic capability and dataset-specific
  fine-tuning manifest as lexicon coverage — exactly the mechanism behind
  the paper's query-variance findings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.utils.cache import gated_lru_cache

# Base (easy) normalization rules, applied in order.  Patterns operate on
# lowercase text.
_BASE_RULES: list[tuple[str, str]] = [
    (r"\balong with\b", "together with"),
    (r"\b(?:list|display|give me|find|tell me) the\b", "show the"),
    (r"\bcount how many\b", "how many"),
    (r"\bis more than\b", "is greater than"),
    (r"\bis under\b", "is less than"),
    (r"\bis no less than\b", "is at least"),
    (r"\bis no more than\b", "is at most"),
    (r"\bordered by\b", "sorted by"),
]

# Hard rules: phrase key -> (pattern, replacement).  The phrase key is what
# paraphrase injected; a model lacking the key leaves the phrase in place.
_HARD_RULES: dict[str, tuple[str, str]] = {
    # Only reverse "with" -> "whose" when it introduces a filter clause
    # ("with <column phrase> is/contains ..."), never "with the highest"
    # (EXTREME) or "groups with more than N records" (HAVING).
    "with": (r"(?<!together )\bwith (?=[\w'\"\x00- ]+? (?:is|contains)\b)", "whose "),
    "mean": (r"\bmean\b", "average"),
    "biggest": (r"\bbiggest\b", "maximum"),
    "smallest": (r"\bsmallest\b", "minimum"),
    "sum of the": (r"\bsum of the\b", "total"),
    "do not have any": (r"\bdo not have any\b", "have no"),
    "are linked to some": (r"\bare linked to some\b", "have at least one"),
    "limited to the first": (r"\blimited to the first\b", "showing only the top"),
    "from highest to lowest": (r"\bfrom highest to lowest\b", "in descending order"),
    "from lowest to highest": (r"\bfrom lowest to highest\b", "in ascending order"),
    "exist": (r"\bexist\b", "are there"),
}

HARD_PHRASES: tuple[str, ...] = tuple(_HARD_RULES)

# Every model re-reads the same dev questions; a zoo pass normalizes
# about 2k distinct (coverage, question) pairs.
_NORMALIZE_CACHE_SIZE = 16384


@gated_lru_cache(maxsize=_NORMALIZE_CACHE_SIZE)
def _normalize(enabled_hard: frozenset[str], question: str) -> str:
    """:meth:`Lexicon.normalize`, memoized per (hard-phrase coverage, question)."""
    literals: list[str] = []

    def _stash(match: re.Match[str]) -> str:
        literals.append(match.group(0))
        return f"\x00{len(literals) - 1}\x00"

    text = re.sub(r"'[^']*'", _stash, question.strip())
    text = text.lower()
    for pattern, replacement in _BASE_RULES:
        text = re.sub(pattern, replacement, text)
    for phrase in HARD_PHRASES:
        if phrase not in enabled_hard:
            continue
        pattern, replacement = _HARD_RULES[phrase]
        text = re.sub(pattern, replacement, text)
    text = re.sub(r"\s+", " ", text).strip()
    for index, literal in enumerate(literals):
        text = text.replace(f"\x00{index}\x00", literal)
    return text


@dataclass
class Lexicon:
    """A normalizer with configurable hard-phrase coverage.

    Attributes:
        enabled_hard: The hard phrases this lexicon resolves.  Defaults to
            all of them (a perfect reader); simulated models shrink this
            set according to their linguistic capability.
    """

    enabled_hard: frozenset[str] = field(
        default_factory=lambda: frozenset(HARD_PHRASES)
    )

    def normalize(self, question: str) -> str:
        """Normalize ``question`` to canonical template phrasing.

        The text is lowercased *except* inside single-quoted value spans,
        whose original case must survive so that generated SQL literals
        match database contents.
        """
        return _normalize(frozenset(self.enabled_hard), question)

    def unresolved_hard_phrases(self, question: str) -> list[str]:
        """Hard phrases present in ``question`` that this lexicon cannot resolve."""
        text = question.lower()
        missing = []
        for phrase in HARD_PHRASES:
            if phrase in self.enabled_hard:
                continue
            pattern, __ = _HARD_RULES[phrase]
            if re.search(pattern, text):
                missing.append(phrase)
        return missing

    @staticmethod
    def full() -> "Lexicon":
        """A lexicon resolving every known phrase."""
        return Lexicon()

    @staticmethod
    def with_coverage(enabled: frozenset[str] | set[str]) -> "Lexicon":
        """A lexicon resolving only ``enabled`` hard phrases."""
        return Lexicon(enabled_hard=frozenset(enabled))
