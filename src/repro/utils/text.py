"""Lightweight text utilities used by schema linking and NLU.

These are dependency-free implementations of the string-similarity
primitives the paper's systems rely on (RESDSQL's schema ranking, BRIDGE's
value matching, DAIL-SQL's question-similarity example selection).
"""

from __future__ import annotations

import re
from collections.abc import Iterable

from repro.utils.cache import gated_lru_cache

_WORD_RE = re.compile(r"[A-Za-z0-9]+")

# Schema identifiers are few (about 340 distinct names per process over
# the Spider-like and BIRD-like suites); the bound only caps a pathological
# caller.
_IDENTIFIER_CACHE_SIZE = 4096

# Irregular plural forms that a naive "strip the s" rule would mangle.
_IRREGULAR_SINGULARS = {
    "people": "person",
    "children": "child",
    "men": "man",
    "women": "woman",
    "feet": "foot",
    "teeth": "tooth",
    "mice": "mouse",
    "geese": "goose",
    "criteria": "criterion",
    "data": "datum",
    "series": "series",
    "species": "species",
}


def tokenize_words(text: str) -> list[str]:
    """Split ``text`` into lowercase alphanumeric word tokens.

    Underscores and camelCase boundaries are treated as separators so that
    schema identifiers like ``airportCode`` or ``airport_code`` tokenize
    identically to the natural-language phrase "airport code".
    """
    spaced = re.sub(r"(?<=[a-z0-9])(?=[A-Z])", " ", text)
    spaced = spaced.replace("_", " ")
    return [match.group(0).lower() for match in _WORD_RE.finditer(spaced)]


@gated_lru_cache(maxsize=_IDENTIFIER_CACHE_SIZE)
def normalize_identifier(name: str) -> str:
    """Normalize a schema identifier to a canonical space-joined form."""
    return " ".join(tokenize_words(name))


def normalize_question(question: str) -> str:
    """Canonicalize one NL question for request identity and cache keys.

    Collapses runs of whitespace and casefolds, so trivially-different
    repeats ("List flights ", "list  flights") share one identity; it
    never changes wording, which makes it safe for exact coalescing and
    cache keys.  Idempotent: ``normalize_question(normalize_question(q))
    == normalize_question(q)``.
    """
    return " ".join(question.split()).casefold()


def singularize(word: str) -> str:
    """Return a best-effort singular form of an English noun."""
    lowered = word.lower()
    if lowered in _IRREGULAR_SINGULARS:
        return _IRREGULAR_SINGULARS[lowered]
    if lowered.endswith("ies") and len(lowered) > 3:
        return lowered[:-3] + "y"
    if lowered.endswith("ses") or lowered.endswith("xes") or lowered.endswith("zes"):
        return lowered[:-2]
    if lowered.endswith("s") and not lowered.endswith("ss") and len(lowered) > 2:
        return lowered[:-1]
    return lowered


def levenshtein(a: str, b: str) -> int:
    """Compute the Levenshtein edit distance between two strings.

    Bit-parallel (Myers 1999, in Hyyrö's 2001 form for global edit
    distance): the shorter string is the pattern, each of its distinct
    characters gets a bit mask of its positions, and one column of the
    DP matrix is advanced per character of the longer string as vertical
    and horizontal +1/-1 delta bit vectors.  Python ints are unbounded,
    so one int holds the vectors for a pattern of any length; every
    complement is masked back to the pattern length.  Same result as the
    O(n*m) table.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    match_masks: dict[str, int] = {}
    bit = 1
    for char in b:
        match_masks[char] = match_masks.get(char, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    positive, negative = mask, 0
    distance = len(b)
    for char in a:
        eq = match_masks.get(char, 0)
        vertical = eq | negative
        horizontal = (((eq & positive) + positive) ^ positive) | eq
        h_positive = negative | (~(horizontal | positive) & mask)
        h_negative = positive & horizontal
        if h_positive & last:
            distance += 1
        elif h_negative & last:
            distance -= 1
        h_positive = ((h_positive << 1) | 1) & mask
        h_negative = (h_negative << 1) & mask
        positive = h_negative | (~(vertical | h_positive) & mask)
        negative = h_positive & vertical
    return distance


def normalized_similarity(a: str, b: str) -> float:
    """Return 1 - normalized edit distance, in [0, 1].

    Case-insensitive.  Lengths are taken after lowering, because
    lowering can change a string's length (``"İ".lower()`` is two code
    points).
    """
    a, b = a.lower(), b.lower()
    if not a and not b:
        return 1.0
    return 1.0 - levenshtein(a, b) / max(len(a), len(b))


def jaccard(a: Iterable[str], b: Iterable[str]) -> float:
    """Jaccard similarity of two token collections."""
    set_a, set_b = set(a), set(b)
    if not set_a and not set_b:
        return 1.0
    union = set_a | set_b
    if not union:
        return 1.0
    return len(set_a & set_b) / len(union)
