"""Language-model and embedding access.

Everything above this module talks to two small interfaces: a chat backend
(messages in, text out) and an embedding backend (strings in, unit vectors
out). Two implementations of each exist: an HTTP client for OpenAI-style
endpoints, and fully deterministic mocks so the whole engine runs offline
and every test is reproducible.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import hashlib
import itertools
import json
import logging
import os
import re
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import BackendUnavailable, SchemaViolation
from .files import append_text, check_keys, read_json

if TYPE_CHECKING:  # numpy is imported where vectors are made, so `import kdr.cli` skips it
    import numpy as np

log = logging.getLogger(__name__)

ENV_LLM_ENDPOINT = "KDR_LLM_ENDPOINT"
ENV_LLM_API_KEY = "KDR_LLM_API_KEY"
ENV_LLM_MODEL = "KDR_LLM_MODEL"
ENV_EMBED_ENDPOINT = "KDR_EMBED_ENDPOINT"
ENV_EMBED_MODEL = "KDR_EMBED_MODEL"

MAX_ATTEMPTS = 3  # per chat or embedding request


@dataclass
class ChatMessage:
    role: str  # "system" | "user" | "assistant"
    content: str


@dataclass
class GenerationConfig:
    """Decoding parameters; temperature stays 0 so runs are repeatable."""

    temperature: float = 0.0
    max_tokens: int = 2048


class Transcript:
    """Append-only JSONL log of every model exchange, including retries.

    Rows of concurrent calls interleave; the gateway stamps each call's
    rows with one ``seq`` number from next_seq so they can be paired.
    """

    def __init__(self, path: str | None):
        self.path = path
        self._lock = threading.Lock()
        self._seq = itertools.count(1)
        if path:  # a bad path fails here, before any model call
            append_text(path, "")

    def next_seq(self) -> int:
        return next(self._seq)

    def record(self, kind: str, payload: dict) -> None:
        if not self.path:
            return
        row = {"kind": kind, "ts": time.time(), **payload}
        line = json.dumps(row, ensure_ascii=False, default=str)
        with self._lock:
            append_text(self.path, line + "\n")


# -- HTTP plumbing ---------------------------------------------------------------


def post_json(url: str, payload: dict, api_key: str = "", timeout: float = 120) -> dict:
    """POST a JSON payload and decode the JSON reply; HTTP errors raise."""
    import requests

    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    response = requests.post(url, json=payload, headers=headers, timeout=timeout)
    response.raise_for_status()
    return response.json()


class _HttpBackend:
    """Endpoint settings from arguments or the environment, and one retrying POST.

    Every failure retries, transport and reply shape alike: MAX_ATTEMPTS
    tries with 1 s, 2 s, ... sleeps between them; the last failure is
    reported as BackendUnavailable.
    """

    kind = env_endpoint = env_model = ""

    def __init__(
        self,
        endpoint: str | None = None,
        api_key: str | None = None,
        model: str | None = None,
        post=None,
        sleep=time.sleep,
    ):
        self.endpoint = endpoint or os.environ.get(self.env_endpoint, "")
        self.api_key = api_key if api_key is not None else os.environ.get(ENV_LLM_API_KEY, "")
        self.model = model or os.environ.get(self.env_model, "")
        self._post = post or functools.partial(post_json, api_key=self.api_key)
        self._sleep = sleep
        if not self.endpoint:
            raise BackendUnavailable(f"no {self.kind} endpoint configured; "
                                     f"set {self.env_endpoint} or use a mock backend")

    def _request(self, payload: dict, parse):
        delay = 1.0
        for n in range(1, MAX_ATTEMPTS + 1):
            try:
                return parse(self._post(self.endpoint, payload))
            except Exception as exc:  # noqa: BLE001 - every failure retries
                log.warning("%s backend attempt %d failed: %s", self.kind, n, exc)
                if n == MAX_ATTEMPTS:
                    raise BackendUnavailable(f"{self.kind} endpoint failed after "
                                             f"{MAX_ATTEMPTS} attempts: {exc}") from exc
                self._sleep(delay)
                delay *= 2


# -- chat backends --------------------------------------------------------------


class ChatBackend:
    def complete(self, messages: list[ChatMessage], config: GenerationConfig) -> str:
        raise NotImplementedError


@dataclass
class MockRule:
    match: str
    responses: list[str]
    regex: bool = False
    _cursor: int = 0

    def matches(self, prompt: str) -> bool:
        if self.regex:
            return re.search(self.match, prompt) is not None
        return self.match in prompt

    def next_response(self) -> str:
        if not self.responses:
            return ""
        response = self.responses[min(self._cursor, len(self.responses) - 1)]
        self._cursor += 1
        return response


class MockChatBackend(ChatBackend):
    """Scripted chat model.

    Rules are checked in order against the concatenated prompt text; the
    first hit answers from its response queue (the last entry repeats once
    the queue runs dry). With no hit the default response is returned.
    A queue's replies go to overlapping calls in the order the calls reach
    it; one lock keeps them from losing or repeating a reply. So at
    `workers` > 1, a rule that overlapping calls share, such as the
    `summarize` rule of a research run, should hold one reply.
    """

    def __init__(self, rules: list[MockRule] | None = None, default_response: str = ""):
        self.rules = rules or []
        self.default_response = default_response
        self.calls: list[str] = []
        self._lock = threading.Lock()

    @classmethod
    def from_script(cls, document: dict) -> "MockChatBackend":
        check_keys(document, "mock script", allowed=("rules", "default_response"))
        raw_rules = document.get("rules", [])
        default_response = document.get("default_response", "")
        if not isinstance(raw_rules, list) or not isinstance(default_response, str):
            raise SchemaViolation("mock 'rules' must be a list and 'default_response' a string")
        rules = []
        for i, raw in enumerate(raw_rules):
            check_keys(raw, f"mock rule {i}", required=("match", "responses"),
                       allowed=("match", "regex", "responses"))
            match, responses = raw["match"], raw["responses"]
            if not isinstance(match, str):
                raise SchemaViolation(f"mock rule match {match!r} must be a string")
            if not (isinstance(responses, list) and all(isinstance(r, str) for r in responses)):
                raise SchemaViolation(f"mock rule {match!r}: responses must be a list of strings")
            regex = bool(raw.get("regex", False))
            if regex:
                try:
                    re.compile(match)
                except re.error as exc:
                    raise SchemaViolation(f"mock rule regex {match!r}: {exc}") from exc
            rules.append(MockRule(match=match, responses=list(responses), regex=regex))
        return cls(rules, default_response)

    @classmethod
    def from_script_file(cls, path: str) -> "MockChatBackend":
        return cls.from_script(read_json(path))

    def complete(self, messages: list[ChatMessage], config: GenerationConfig) -> str:
        prompt = "\n".join(m.content for m in messages)
        with self._lock:
            self.calls.append(prompt)
            for rule in self.rules:
                if rule.matches(prompt):
                    return rule.next_response()
        return self.default_response


class HttpChatBackend(_HttpBackend, ChatBackend):
    """OpenAI-compatible chat completion client with exponential backoff."""

    kind, env_endpoint, env_model = "chat", ENV_LLM_ENDPOINT, ENV_LLM_MODEL

    def complete(self, messages: list[ChatMessage], config: GenerationConfig) -> str:
        payload = {
            "model": self.model,
            "messages": [{"role": m.role, "content": m.content} for m in messages],
            "temperature": config.temperature,
            "max_tokens": config.max_tokens,
        }
        return self._request(payload, _reply_text)


def _reply_text(body: dict) -> str:
    content = body["choices"][0]["message"]["content"]
    if not isinstance(content, str):
        raise TypeError(f"reply content is {type(content).__name__}, not a string")
    return content


# -- embedding backends -----------------------------------------------------------


class EmbeddingBackend:
    dim: int = 0

    def embed(self, texts: list[str]) -> np.ndarray:
        raise NotImplementedError


class MockEmbeddingBackend(EmbeddingBackend):
    """Deterministic unit vectors seeded from a hash of each input string.

    Equal strings always embed identically; unrelated strings land nearly
    orthogonal once the dimension is reasonably large.
    """

    def __init__(self, dim: int = 64):
        self.dim = dim

    def embed(self, texts: list[str]) -> np.ndarray:
        import numpy as np

        out = np.empty((len(texts), self.dim), dtype=np.float64)
        for i, text in enumerate(texts):
            digest = hashlib.sha256(text.encode("utf-8")).digest()
            seed = int.from_bytes(digest[:8], "big")
            rng = np.random.default_rng(seed)
            vec = rng.standard_normal(self.dim)
            out[i] = vec / np.linalg.norm(vec)
        return out


class HttpEmbeddingBackend(_HttpBackend, EmbeddingBackend):
    """OpenAI-compatible embeddings client; vectors are L2-normalized locally."""

    kind, env_endpoint, env_model = "embedding", ENV_EMBED_ENDPOINT, ENV_EMBED_MODEL

    def embed(self, texts: list[str]) -> np.ndarray:
        return self._request({"model": self.model, "input": texts},
                             functools.partial(_unit_rows, count=len(texts)))


def _unit_rows(body: dict, count: int) -> np.ndarray:
    import numpy as np

    matrix = np.asarray([item["embedding"] for item in body["data"]], dtype=np.float64)
    if matrix.ndim != 2 or len(matrix) != count:
        raise ValueError(f"expected {count} embedding rows of one width, got shape {matrix.shape}")
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return matrix / norms


# -- gateway ---------------------------------------------------------------------


class LlmGateway:
    """Front door for model calls; every exchange goes to the transcript.

    `chat(prompt, tag)` is the one way kdr calls the chat model: one prompt
    out as a single user message with the default GenerationConfig, one
    reply back. The tag names the pipeline step in the transcript.
    A gateway from `limited(n)` holds at most n chat calls in flight.
    """

    def __init__(
        self,
        chat: ChatBackend,
        embedder: EmbeddingBackend | None = None,
        transcript: Transcript | None = None,
    ):
        self.chat_backend = chat
        self.embedder = embedder
        self.transcript = transcript or Transcript(None)
        self._slots = contextlib.nullcontext()

    def limited(self, n: int) -> LlmGateway:
        """A copy sharing this gateway's backends and transcript whose chat
        calls wait for one of n slots; a call holds its slot while it is out."""
        gateway = copy.copy(self)
        gateway._slots = threading.BoundedSemaphore(n)
        return gateway

    def chat(self, prompt: str, tag: str = "") -> str:
        config = GenerationConfig()
        with self._slots:  # the request row's ts is when the call went out
            seq = self.transcript.next_seq()
            self.transcript.record("request", {
                "seq": seq,
                "tag": tag,
                "messages": [{"role": "user", "content": prompt}],
                "temperature": config.temperature,
            })
            try:
                response = self.chat_backend.complete([ChatMessage("user", prompt)], config)
            except Exception as exc:
                self.transcript.record("error", {"seq": seq, "tag": tag, "error": str(exc)})
                raise
        self.transcript.record("response", {"seq": seq, "tag": tag, "content": response})
        return response

    def embed(self, texts: list[str]) -> np.ndarray:
        if self.embedder is None:
            raise BackendUnavailable("no embedding backend configured")
        vectors = self.embedder.embed(texts)
        self.transcript.record("embed", {"seq": self.transcript.next_seq(), "count": len(texts)})
        return vectors


def mock_gateway(
    script: dict | None = None,
    default_response: str = "",
    transcript_path: str | None = None,
) -> LlmGateway:
    """Offline gateway wired to the deterministic mocks; test convenience."""
    chat = MockChatBackend.from_script(script) if script else MockChatBackend(
        default_response=default_response
    )
    return LlmGateway(
        chat,
        MockEmbeddingBackend(),
        Transcript(transcript_path),
    )
