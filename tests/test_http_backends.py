"""The chat, embedding and search backends over real HTTP to a local server."""

from __future__ import annotations

import json
import os
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from kdr.errors import BackendUnavailable, SearchBackendUnavailable
from kdr.llm_gateway import (
    ChatMessage,
    GenerationConfig,
    HttpChatBackend,
    HttpEmbeddingBackend,
    LlmGateway,
)
from kdr.websearch import HttpSearchBackend, SearchHit

KINDS = ("chat", "embedding", "search")
BACKENDS = {"chat": HttpChatBackend, "embedding": HttpEmbeddingBackend,
            "search": HttpSearchBackend}
GOOD = {
    "chat": {"choices": [{"message": {"content": "ok"}}]},
    "embedding": {"data": [{"embedding": [3.0, 4.0]}]},
    "search": {"results": [{"title": "t", "url": "https://x", "body": "b", "score": 1.5}]},
}
PARSED = {"chat": "ok", "embedding": [[0.6, 0.8]],
          "search": [SearchHit("t", "https://x", "b", 1.5)]}
PAYLOADS = {
    "chat": {"model": "m", "messages": [{"role": "user", "content": "hi"}],
             "temperature": 0.0, "max_tokens": 2048},
    "embedding": {"model": "m", "input": ["x"]},
    "search": {"query": "q", "limit": 3},
}


class Endpoint(BaseHTTPRequestHandler):
    """Answers each POST with the server's next reply; the last one repeats.

    A reply is (status, body bytes). A body of None holds the reply until
    the server's `release` event is set.
    """

    def do_POST(self):
        server = self.server
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        server.seen.append((self.path, self.headers, payload))
        status, body = server.replies.pop(0) if len(server.replies) > 1 else server.replies[0]
        if body is None:
            server.release.wait(10)
            body = b"{}"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):
        pass


class Server(HTTPServer):
    def handle_error(self, request, client_address):
        if not isinstance(sys.exc_info()[1], ConnectionError):  # a client that timed out left
            super().handle_error(request, client_address)


@pytest.fixture
def server(monkeypatch):
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    httpd = Server(("127.0.0.1", 0), Endpoint)
    httpd.seen, httpd.replies, httpd.release = [], [], threading.Event()
    thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    yield httpd
    httpd.release.set()
    httpd.shutdown()
    thread.join(10)
    httpd.server_close()
    assert not thread.is_alive()


def reply(document) -> tuple[int, bytes]:
    return 200, json.dumps(document).encode()


def ask(server, kind: str, sleeps: list | None = None):
    """One request of `kind` through its HTTP backend, sleeping into `sleeps`."""
    url = f"http://127.0.0.1:{server.server_port}/{kind}"
    sleep = (sleeps if sleeps is not None else []).append
    if kind == "chat":
        backend = HttpChatBackend(url, model="m", sleep=sleep)
        return backend.complete([ChatMessage("user", "hi")], GenerationConfig())
    if kind == "embedding":
        return HttpEmbeddingBackend(url, model="m", sleep=sleep).embed(["x"]).tolist()
    return HttpSearchBackend(url, sleep=sleep).search("q", limit=3)


@pytest.mark.parametrize("kind", KINDS)
def test_a_good_reply_is_parsed(server, kind):
    server.replies = [reply(GOOD[kind])]
    assert ask(server, kind) == PARSED[kind]
    [(path, headers, payload)] = server.seen
    assert (path, payload) == (f"/{kind}", PAYLOADS[kind])
    assert headers["Content-Type"] == "application/json"


@pytest.mark.parametrize("kind", KINDS)
def test_a_server_error_is_retried(server, kind):
    server.replies = [(500, b"{}"), reply(GOOD[kind])]
    sleeps = []
    assert ask(server, kind, sleeps) == PARSED[kind]
    assert len(server.seen) == 2
    assert sleeps == [1.0]


@pytest.mark.parametrize("kind, error", [("chat", BackendUnavailable),
                                         ("embedding", BackendUnavailable),
                                         ("search", SearchBackendUnavailable)])
def test_a_body_that_is_not_json_fails_after_three_attempts(server, kind, error):
    server.replies = [(200, b"<html>busy</html>")]
    sleeps = []
    with pytest.raises(error, match=f"{kind} endpoint failed after 3 attempts"):
        ask(server, kind, sleeps)
    assert len(server.seen) == 3
    assert sleeps == [1.0, 2.0]


def test_a_lone_surrogate_in_a_chat_reply_comes_back_as_a_replacement_character(server):
    server.replies = [reply({"choices": [{"message": {"content": "a\ud800b"}}]})]
    assert b"\\ud800" in server.replies[0][1]
    backend = HttpChatBackend(f"http://127.0.0.1:{server.server_port}/chat", model="m")
    assert LlmGateway(backend).chat("hi") == "a\ufffdb"


def test_a_lone_surrogate_in_a_search_result_comes_back_as_a_replacement_character(server):
    server.replies = [reply({"results": [{"title": "t\ud800", "url": "https://x/\udfff",
                                          "body": "b\ud800"}]})]
    assert ask(server, "search") == [SearchHit("t\ufffd", "https://x/\ufffd", "b\ufffd")]


@pytest.mark.parametrize("kind, error", [("chat", BackendUnavailable),
                                         ("embedding", BackendUnavailable),
                                         ("search", SearchBackendUnavailable)])
def test_a_reply_slower_than_the_timeout_fails_after_three_attempts(server, monkeypatch,
                                                                    kind, error):
    monkeypatch.setattr(BACKENDS[kind], "timeout", 0.1)
    server.replies = [(200, None)]
    sleeps = []
    with pytest.raises(error, match="timed out"):
        ask(server, kind, sleeps)
    assert sleeps == [1.0, 2.0]


def test_chat_and_embedding_send_the_key_and_search_sends_none(server, monkeypatch):
    monkeypatch.setenv("KDR_LLM_API_KEY", "sk-test")
    for kind in KINDS:
        server.replies = [reply(GOOD[kind])]
        assert ask(server, kind) == PARSED[kind]
    keys = {path: headers.get("Authorization") for path, headers, _ in server.seen}
    assert keys == {"/chat": "Bearer sk-test", "/embedding": "Bearer sk-test", "/search": None}
