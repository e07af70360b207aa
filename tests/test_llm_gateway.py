"""Gateway behavior: scripted mocks, retries, reply shapes, transcripts."""

import json
import sys
import threading
import time

import numpy as np
import pytest

from kdr.errors import BackendUnavailable, SchemaViolation
from kdr.llm_gateway import (
    MAX_ATTEMPTS,
    ChatMessage,
    GenerationConfig,
    HttpChatBackend,
    HttpEmbeddingBackend,
    LlmGateway,
    MockChatBackend,
    MockEmbeddingBackend,
    MockRule,
    Transcript,
    mock_gateway,
)
from kdr.reasoning import ordered_map

from chat_probes import InFlight


def test_mock_rules_match_in_order_and_queue_responses():
    backend = MockChatBackend.from_script({
        "rules": [
            {"match": "alpha", "responses": ["first", "second"]},
            {"match": "alp", "responses": ["shadowed"]},
        ],
        "default_response": "fallback",
    })
    config = GenerationConfig()
    msg = [ChatMessage("user", "say alpha")]
    assert backend.complete(msg, config) == "first"
    assert backend.complete(msg, config) == "second"
    assert backend.complete(msg, config) == "second"  # last response repeats
    assert backend.complete([ChatMessage("user", "nothing")], config) == "fallback"


def test_mock_regex_rule():
    backend = MockChatBackend.from_script({
        "rules": [{"match": r"\d{4}", "regex": True, "responses": ["year"]}],
    })
    assert backend.complete([ChatMessage("user", "in 1999")], GenerationConfig()) == "year"
    assert backend.complete([ChatMessage("user", "in 99")], GenerationConfig()) == ""


def test_mock_script_rejects_unknown_keys():
    with pytest.raises(SchemaViolation):
        MockChatBackend.from_script({"rules": [], "oops": 1})
    with pytest.raises(SchemaViolation):
        MockChatBackend.from_script({"rules": [{"match": "x"}]})


def test_mock_embeddings_are_deterministic_unit_vectors():
    backend = MockEmbeddingBackend(dim=32)
    a = backend.embed(["hello", "hello", "world"])
    assert a.shape == (3, 32)
    assert np.allclose(a[0], a[1])
    assert not np.allclose(a[0], a[2])
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0)


def test_http_chat_retries_with_backoff_then_succeeds():
    attempts = []
    sleeps = []

    def post(url, payload):
        attempts.append(payload)
        if len(attempts) < 3:
            raise ConnectionError("boom")
        return {"choices": [{"message": {"content": "ok"}}]}

    backend = HttpChatBackend(
        endpoint="http://example.test/v1", model="m", post=post, sleep=sleeps.append
    )
    out = backend.complete([ChatMessage("user", "hi")], GenerationConfig())
    assert out == "ok"
    assert sleeps == [1.0, 2.0]


def test_http_chat_gives_up_after_max_retries():
    def post(url, payload):
        raise ConnectionError("down")

    backend = HttpChatBackend(
        endpoint="http://example.test/v1", model="m", post=post, sleep=lambda _: None
    )
    with pytest.raises(BackendUnavailable):
        backend.complete([ChatMessage("user", "hi")], GenerationConfig())


def test_http_chat_requires_endpoint(monkeypatch):
    monkeypatch.delenv("KDR_LLM_ENDPOINT", raising=False)
    with pytest.raises(BackendUnavailable):
        HttpChatBackend()


def test_http_embeddings_normalize():
    def post(url, payload):
        return {"data": [{"embedding": [3.0, 4.0]}]}

    backend = HttpEmbeddingBackend(endpoint="http://example.test/emb", model="m", post=post)
    vec = backend.embed(["x"])
    assert np.allclose(vec, [[0.6, 0.8]])


@pytest.mark.parametrize("content", [None, 7, ["text"]])
def test_http_chat_reply_without_text_content_is_a_failed_attempt(content):
    attempts, sleeps = [], []

    def post(url, payload):
        attempts.append(payload)
        return {"choices": [{"message": {"content": content}}]}

    backend = HttpChatBackend(
        endpoint="http://example.test/v1", model="m", post=post, sleep=sleeps.append
    )
    with pytest.raises(BackendUnavailable, match="not a string"):
        backend.complete([ChatMessage("user", "hi")], GenerationConfig())
    assert len(attempts) == MAX_ATTEMPTS
    assert sleeps == [1.0, 2.0]


@pytest.mark.parametrize("rows", [
    [[1.0, 0.0]],  # one row for three texts
    [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]],  # one row too many
    [[1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0]],  # rows of different widths
])
def test_http_embedding_reply_needs_one_row_per_text_of_one_width(rows):
    attempts = []

    def post(url, payload):
        attempts.append(payload)
        return {"data": [{"embedding": row} for row in rows]}

    backend = HttpEmbeddingBackend(
        endpoint="http://example.test/emb", model="m", post=post, sleep=lambda _: None
    )
    with pytest.raises(BackendUnavailable):
        backend.embed(["a", "b", "c"])
    assert len(attempts) == MAX_ATTEMPTS


def test_http_embedding_retries_a_short_reply_then_succeeds():
    replies = [[[1.0, 0.0]], [[3.0, 4.0], [0.0, 2.0]]]

    def post(url, payload):
        return {"data": [{"embedding": row} for row in replies.pop(0)]}

    backend = HttpEmbeddingBackend(
        endpoint="http://example.test/emb", model="m", post=post, sleep=lambda _: None
    )
    assert np.allclose(backend.embed(["a", "b"]), [[0.6, 0.8], [0.0, 1.0]])


def test_transcript_records_request_response_and_retries(tmp_path):
    path = tmp_path / "transcript.jsonl"
    gateway = LlmGateway(
        MockChatBackend(default_response="pong"),
        MockEmbeddingBackend(),
        Transcript(str(path)),
    )
    gateway.chat("ping", tag="unit")
    gateway.embed(["a"])
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    kinds = [r["kind"] for r in rows]
    assert kinds == ["request", "response", "embed"]
    assert rows[0]["tag"] == "unit"
    assert rows[1]["content"] == "pong"


def test_transcript_pairs_rows_of_one_call_by_seq(tmp_path):
    path = tmp_path / "transcript.jsonl"
    gateway = LlmGateway(MockChatBackend(default_response="pong"), MockEmbeddingBackend(),
                         Transcript(str(path)))
    gateway.chat("one", tag="a")
    gateway.chat("two", tag="b")
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(r["kind"], r["seq"], r["tag"]) for r in rows] == [
        ("request", 1, "a"), ("response", 1, "a"),
        ("request", 2, "b"), ("response", 2, "b")]


def test_limited_gateway_caps_chat_calls_in_flight_over_shared_backends(tmp_path):
    path = tmp_path / "transcript.jsonl"
    chat = InFlight(MockChatBackend(default_response="pong"), delay_s=0.01)
    gateway = LlmGateway(chat, MockEmbeddingBackend(), Transcript(str(path)))
    capped = gateway.limited(2)
    assert (capped.chat_backend, capped.embedder, capped.transcript) == (
        gateway.chat_backend, gateway.embedder, gateway.transcript)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        replies = ordered_map(lambda i: capped.chat(f"call {i}", tag="t"), list(range(6)), 6)
    finally:
        sys.setswitchinterval(interval)
    assert replies == ["pong"] * 6
    assert max(n for *_, n in chat.spans) == 2
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert sorted((r["kind"], r["seq"]) for r in rows) == sorted(
        (kind, seq) for kind in ("request", "response") for seq in range(1, 7))


class _SlowQueue(list):
    """Yields the GIL between reading a rule's cursor and advancing it."""

    def __getitem__(self, index):
        time.sleep(0.001)
        return super().__getitem__(index)


def test_mock_queue_hands_each_concurrent_caller_its_own_reply():
    n = 16
    backend = MockChatBackend([MockRule("q", _SlowQueue(f"reply {i}" for i in range(n)))])
    barrier = threading.Barrier(n, timeout=10)
    replies = []

    def call():
        barrier.wait()
        replies.append(backend.complete([ChatMessage("user", "q")], GenerationConfig()))

    threads = [threading.Thread(target=call) for _ in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert sorted(replies) == sorted(f"reply {i}" for i in range(n))
    assert len(backend.calls) == n


def test_mock_gateway_temperature_defaults_to_zero():
    assert GenerationConfig().temperature == 0.0
    gw = mock_gateway(default_response="y")
    assert gw.chat("anything") == "y"


@pytest.mark.parametrize("script", [
    {"rules": [5]},
    {"rules": [{"match": 5, "responses": ["x"]}]},
    {"rules": [{"match": "([", "regex": True, "responses": ["x"]}]},
    {"rules": [{"match": "x", "responses": "PASS"}]},
    {"rules": [{"match": "x", "responses": ["ok", 3]}]},
    {"rules": {"match": "x", "responses": ["x"]}},
    {"default_response": 7},
], ids=["rule-not-object", "match-not-string", "bad-regex", "responses-string",
        "response-not-string", "rules-not-list", "default-not-string"])
def test_mock_script_shape_is_checked_at_load(script):
    with pytest.raises(SchemaViolation):
        MockChatBackend.from_script(script)
