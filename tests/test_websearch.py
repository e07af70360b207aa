"""Fixture-backed and HTTP search backends."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from kdr.errors import EmptyCorpus, IoFailure, SchemaViolation, SearchBackendUnavailable
from kdr.websearch import FixtureSearchBackend, HttpSearchBackend, SearchHit


def write_doc(dirpath, name, title, url, body):
    (dirpath / name).write_text(
        json.dumps({"title": title, "url": url, "body": body}), encoding="utf-8"
    )


def test_fixture_backend_ranks_by_token_overlap(tmp_path):
    write_doc(tmp_path, "a.json", "Lovelace biography", "https://x/a",
              "Ada Lovelace wrote the first program for the analytical engine.")
    write_doc(tmp_path, "b.json", "Steam engines", "https://x/b",
              "Steam engines power locomotives.")
    backend = FixtureSearchBackend(str(tmp_path))
    hits = backend.search("Lovelace program", limit=5)
    assert hits[0].url == "https://x/a"
    assert all(isinstance(h, SearchHit) for h in hits)
    assert hits[0].score > 0


def test_fixture_backend_respects_limit(tmp_path):
    for i in range(4):
        write_doc(tmp_path, f"d{i}.json", f"doc {i}", f"https://x/{i}", "shared token")
    backend = FixtureSearchBackend(str(tmp_path))
    assert len(backend.search("shared", limit=2)) == 2


def test_fixture_backend_empty_dir_raises_empty_corpus(tmp_path):
    backend = FixtureSearchBackend(str(tmp_path))
    with pytest.raises(EmptyCorpus):
        backend.search("anything")


def test_fixture_backend_missing_key_is_schema_violation(tmp_path):
    (tmp_path / "bad.json").write_text(json.dumps({"title": "t", "url": "u"}))
    with pytest.raises(SchemaViolation):
        FixtureSearchBackend(str(tmp_path))


@pytest.mark.parametrize("record, field", [
    ({"title": None, "url": "https://x/a", "body": "loom"}, "title"),
    ({"title": "t", "url": 7, "body": "loom"}, "url"),
    ({"title": "t", "url": "https://x/a", "body": {"text": "loom"}}, "body"),
])
def test_fixture_backend_rejects_a_field_that_is_not_a_string(tmp_path, record, field):
    (tmp_path / "bad.json").write_text(json.dumps(record), encoding="utf-8")
    with pytest.raises(SchemaViolation, match=rf"bad\.json field '{field}' must be a string"):
        FixtureSearchBackend(str(tmp_path))


def test_fixture_backend_loads_only_json_files_in_name_order(tmp_path):
    for name in ("b.json", "a.json", ".h.json"):
        write_doc(tmp_path, name, name, f"https://x/{name}", "shared")
    (tmp_path / "notes.txt").write_text("shared", encoding="utf-8")
    (tmp_path / "c.json.bak").write_text("not json", encoding="utf-8")
    backend = FixtureSearchBackend(str(tmp_path))
    assert list(backend.documents) == [".h", "a", "b"]
    assert [hit.title for hit in backend.search("shared")] == [".h.json", "a.json", "b.json"]


def test_fixture_backend_directory_named_like_a_record_is_io_failure(tmp_path):
    write_doc(tmp_path, "a.json", "t", "https://x/a", "body")
    (tmp_path / "x.json").mkdir()
    with pytest.raises(IoFailure, match=r"x\.json"):
        FixtureSearchBackend(str(tmp_path))


def test_fixture_corpus_rankings_are_pinned():
    backend = FixtureSearchBackend(str(Path(__file__).parent / "fixtures" / "webcorpus"))
    ranked = {query: [(hit.url, hit.score) for hit in backend.search(query)]
              for query in ("analytical engine", "Lovelace program", "computer", "zz")}
    assert ranked == {
        "analytical engine": [("https://w/engine", 4.0), ("https://w/ada", 2.0)],
        "Lovelace program": [("https://w/ada", 3.386294361119891)],  # tf 2
        "computer": [("https://w/engine", 1.6931471805599454)],
        "zz": [],
    }


def test_fixture_backend_missing_dir_unavailable(tmp_path):
    with pytest.raises(SearchBackendUnavailable):
        FixtureSearchBackend(str(tmp_path / "nope"))


def test_http_backend_parses_results():
    def post(url, payload):
        assert payload == {"query": "q", "limit": 3}
        return {"results": [
            {"title": "t", "url": "https://x", "body": "b", "score": 1.5},
        ]}

    backend = HttpSearchBackend("https://search.example", post=post)
    hits = backend.search("q", limit=3)
    assert hits == [SearchHit("t", "https://x", "b", 1.5)]


def test_http_backend_wraps_transport_failure():
    def post(url, payload):
        raise ConnectionError("down")

    backend = HttpSearchBackend("https://search.example", post=post)
    with pytest.raises(SearchBackendUnavailable):
        backend.search("q")


@pytest.mark.parametrize("result", [
    {"title": None, "url": "https://x", "body": "b"},
    {"title": "t", "url": 7, "body": "b"},
    {"title": "t", "url": "https://x", "body": {"text": "b"}},
])
def test_http_backend_result_field_that_is_not_a_string_is_unavailable(result):
    backend = HttpSearchBackend("https://search.example",
                                post=lambda url, payload: {"results": [result]})
    with pytest.raises(SearchBackendUnavailable, match="must be a string"):
        backend.search("q")
