"""Search backends for the text generation cycle.

The default is an offline fixture backend reading a directory of JSON
documents, so the whole engine runs without a network. A live HTTP backend
sits behind the same contract.
"""

from __future__ import annotations

import functools
import logging
import os
from dataclasses import dataclass

from .errors import EmptyCorpus, SchemaViolation, SearchBackendUnavailable
from .files import check_keys, read_json
from .llm_gateway import post_json
from .textindex import InvertedIndex

log = logging.getLogger(__name__)


@dataclass
class SearchHit:
    title: str
    url: str
    body: str
    score: float = 0.0


_FIELDS = ("title", "url", "body")


def _hit(what: str, title, url, body, score: float = 0.0) -> SearchHit:
    """The hit, if title, url and body are strings; SchemaViolation naming `what` if not."""
    for key, value in zip(_FIELDS, (title, url, body)):
        if not isinstance(value, str):
            raise SchemaViolation(f"{what} field {key!r} must be a string, "
                                  f"got {type(value).__name__}")
    return SearchHit(title, url, body, score)


class SearchBackend:
    def search(self, query: str, limit: int = 5) -> list[SearchHit]:
        raise NotImplementedError


class FixtureSearchBackend(SearchBackend):
    """Ranked full-text search over a local directory of JSON documents.

    Each ``*.json`` file holds one record, {"title", "url", "body"}, all
    three strings. Files load in name order; a document's id is its file
    name without ``.json``.
    """

    def __init__(self, corpus_dir: str):
        self.corpus_dir = corpus_dir
        self.documents: dict[str, SearchHit] = {}
        self._index = InvertedIndex()
        try:
            names = sorted(n for n in os.listdir(corpus_dir) if n.endswith(".json"))
        except OSError as exc:  # absent, not a directory, or unreadable
            raise SearchBackendUnavailable(f"cannot list {corpus_dir!r}: {exc.strerror}") from exc
        folder = os.path.join(corpus_dir, "")  # with one trailing separator
        for name in names:
            path = folder + name
            what = f"web record {path}"
            record = check_keys(read_json(path), what, required=_FIELDS)
            doc_id = name.removesuffix(".json")
            self.documents[doc_id] = _hit(what, record["title"], record["url"], record["body"])
            self._index.add(doc_id, f"{record['title']} {record['body']}")

    def search(self, query: str, limit: int = 5) -> list[SearchHit]:
        if not self.documents:
            raise EmptyCorpus(f"no documents under {self.corpus_dir!r}")
        hits = []
        for doc_id, score in self._index.search(query, limit=limit):
            hit = self.documents[doc_id]
            hits.append(SearchHit(hit.title, hit.url, hit.body, score))
        return hits


class HttpSearchBackend(SearchBackend):
    """POSTs {"query", "limit"}, expects {"results": [{title, url, body, score?}]}."""

    def __init__(self, endpoint: str, post=None):
        if not endpoint:
            raise SearchBackendUnavailable("no search endpoint configured")
        self.endpoint = endpoint
        self._post = post or functools.partial(post_json, timeout=60)

    def search(self, query: str, limit: int = 5) -> list[SearchHit]:
        try:
            body = self._post(self.endpoint, {"query": query, "limit": limit})
            return [
                _hit("search result", r["title"], r["url"], r.get("body", ""),
                     float(r.get("score", 0.0)))
                for r in body["results"]
            ]
        except Exception as exc:  # noqa: BLE001 - transport and shape errors alike
            raise SearchBackendUnavailable(f"search endpoint failed: {exc}") from exc
