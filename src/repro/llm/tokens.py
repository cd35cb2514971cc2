"""Approximate BPE token counting.

Real GPT tokenizers average ~4 characters per token on English/SQL text;
we approximate with a word-piece heuristic (identifiers and words split
into 4-char pieces, punctuation one token each).  The Exp-6 economy
numbers need only consistent relative counts across prompt styles.
"""

from __future__ import annotations

import re

from repro.utils.cache import gated_lru_cache

_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+|[^\sA-Za-z0-9_]")

# Nearly every call counts a short SQL completion or a prompt tail, and
# the same few thousand strings recur across methods; long segments are
# counted once by the prompt prefix cache.
_TOKENS_CACHE_SIZE = 16384


@gated_lru_cache(maxsize=_TOKENS_CACHE_SIZE)
def count_tokens(text: str) -> int:
    """Estimate the number of BPE tokens in ``text``."""
    total = 0
    for match in _TOKEN_RE.finditer(text):
        piece = match.group(0)
        if piece.isalnum() or "_" in piece:
            total += max(1, (len(piece) + 3) // 4)
        else:
            total += 1
    return total
