"""Small in-memory inverted index with tf.idf ranking.

Shared by the knowledge store's token index, which fuzzy name lookups read,
and the reasoning cycle's concept search. Text is cut into tokens by one rule: a space goes between a
lowercase letter or digit and the uppercase letter after it (camelCase), the
text is lowercased, and each maximal run of [a-z0-9] is a token. ASCII text
takes a faster path through two byte tables; it gives the same tokens.

Scoring is pinned so rankings stay reproducible:

    score(d) = sum over distinct query tokens t present in d of
               tf(t, d) * (1 + ln(N / df(t)))

The sum runs in sorted token order, whatever the string-hash seed. Scores
equal in exact arithmetic may still differ in their last bits, so documents
are ordered by score rounded to 9 places, descending, then by id; only those
containing a query token are returned, with unrounded scores. A limit keeps
the first `limit` of that order: only scores within 1e-8 of the limit-th best
(found with a heap) can be among them, so only those are sorted.
"""

from __future__ import annotations

import heapq
import math
import re
from collections import _count_elements
from dataclasses import dataclass, field

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_HUMP_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")
_LOWER = b"abcdefghijklmnopqrstuvwxyz0123456789"
_UPPER = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ"
# byte -> itself in [a-z0-9], its lowercase in [A-Z], else a space
_WORDS = bytes(c if c in _LOWER else c + 32 if c in _UPPER else 32 for c in range(256))
# byte -> "a" in [a-z0-9], "A" in [A-Z], else a space; a camel hump reads "aA"
_CLASSES = bytes(97 if c in _LOWER else 65 if c in _UPPER else 32 for c in range(256))


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens; camelCase and snake_case are split apart."""
    if not text.isascii():
        return _TOKEN_RE.findall(_HUMP_RE.sub(" ", text).lower())
    raw = text.encode("ascii")
    if b"aA" in raw.translate(_CLASSES):
        raw = _HUMP_RE.sub(" ", text).encode("ascii")
    return raw.translate(_WORDS).decode("ascii").split()


def _rank(item: tuple[str, float]) -> tuple[float, str]:
    return -round(item[1], 9), item[0]


@dataclass
class InvertedIndex:
    postings: dict[str, dict[str, int]] = field(default_factory=dict)
    doc_ids: set[str] = field(default_factory=set)

    def add(self, doc_id: str, text: str) -> None:
        if doc_id in self.doc_ids:
            raise ValueError(f"duplicate document id {doc_id!r}")
        self.doc_ids.add(doc_id)
        counts: dict[str, int] = {}
        _count_elements(counts, tokenize(text))
        postings = self.postings
        for token, count in counts.items():
            docs = postings.get(token)
            if docs is None:
                postings[token] = {doc_id: count}
            else:
                docs[doc_id] = count

    def __len__(self) -> int:
        return len(self.doc_ids)

    def search(self, query: str, limit: int | None = None) -> list[tuple[str, float]]:
        n = len(self.doc_ids)
        if n == 0:
            return []
        scores: dict[str, float] = {}
        for token in sorted(set(tokenize(query))):
            docs = self.postings.get(token)
            if not docs:
                continue
            idf = 1.0 + math.log(n / len(docs))
            for doc_id, tf in docs.items():
                scores[doc_id] = scores.get(doc_id, 0.0) + tf * idf
        if limit is None:
            return sorted(scores.items(), key=_rank)
        floor = min(heapq.nlargest(limit, scores.values()), default=math.inf) - 1e-8
        return sorted(((d, s) for d, s in scores.items() if s >= floor), key=_rank)[:limit]
