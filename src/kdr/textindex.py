"""Small in-memory inverted index with tf.idf ranking.

Shared by the knowledge store's full-text search and the reasoning cycle's
concept search. Scoring is pinned so rankings stay reproducible:

    score(d) = sum over distinct query tokens t present in d of
               tf(t, d) * (1 + ln(N / df(t)))

The sum runs in sorted token order, so tied documents get the same float in
every process, whatever its string-hash seed.

Only documents containing at least one query token are returned, ordered by
score descending with document id as the tiebreak. A limit keeps the first
`limit` of that order, selected with a heap: the same as sorting, then slicing.
"""

from __future__ import annotations

import heapq
import math
import re
from collections import Counter
from dataclasses import dataclass, field

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens; camelCase and snake_case are split apart."""
    spaced = re.sub(r"(?<=[a-z0-9])(?=[A-Z])", " ", text)
    return _TOKEN_RE.findall(spaced.lower())


def _rank(item: tuple[str, float]) -> tuple[float, str]:
    return -item[1], item[0]


@dataclass
class InvertedIndex:
    postings: dict[str, dict[str, int]] = field(default_factory=dict)
    doc_ids: list[str] = field(default_factory=list)
    _seen: set[str] = field(default_factory=set, init=False, repr=False, compare=False)

    def add(self, doc_id: str, text: str) -> None:
        if doc_id in self._seen:
            raise ValueError(f"duplicate document id {doc_id!r}")
        self._seen.add(doc_id)
        self.doc_ids.append(doc_id)
        for token, count in Counter(tokenize(text)).items():
            self.postings.setdefault(token, {})[doc_id] = count

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
        return heapq.nsmallest(limit, scores.items(), key=_rank)
