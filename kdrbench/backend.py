"""The benchmark's model backends: scripted replies plus a fixed latency.

A reply depends only on the prompt text and on the seed-derived reply table
the generator wrote, never on call order, so a change that reorders or
overlaps calls gets the same replies. The prompt kind is told from the fixed
wording of kdr's templates with a few substring tests, so answering costs
time linear in the prompt length.
"""

from __future__ import annotations

import re
import threading
import time
from collections import Counter

from kdr.llm_gateway import ChatBackend, MockEmbeddingBackend

# (tag, marker, where the marker sits); checked in order.
KINDS = (
    ("propose", "Design a concept schema", "start"),
    ("plan", "You are planning a research report", "start"),
    ("topic-ner", "List the topic entities", "start"),
    ("codegen", "Write a Python script", "start"),
    ("evaluate", "Decide whether the analysis results", "start"),
    ("summarize", "Summarize the following source", "start"),
    ("draft", "Write the answer to the research question", "start"),
    ("sufficiency", "Decide whether the draft", "start"),
    ("merge", "Merge the computed findings", "start"),
    ("revise", "Polish the section below", "start"),
    ("relation-classify", "You are curating a class hierarchy", "start"),
    ("importing", "Please import all the possible", "inside"),
    ("instantiation", "Please instantiate all the possible", "inside"),
)

FAILING_SCRIPT = """\
```python
total = len(search_results)
raise RuntimeError(f"grouping by holding is not supported for {total} records")
```"""

PASSING_SCRIPT = """\
```python
from collections import Counter

kinds = Counter(type(o).__name__ for o in search_results)
links = sum(len(v) for o in search_results for v in vars(o).values() if isinstance(v, list))
print(f"records: {len(search_results)}")
print(f"links: {links}")
with open("counts.csv", "w") as fh:
    fh.write("kind,count\\n")
    for kind, count in sorted(kinds.items()):
        fh.write(f"{kind},{count}\\n")
print("saved counts.csv")
```"""

_PASSAGE = re.compile(r"Dossier (D\d+P\d+)")
_NAMESPACE = re.compile(r"all the possible (\S+) (?:Types|Objects) in the following")
_QUERY_LINE = re.compile(r"^Query: (.*)$", re.MULTILINE)
_SOURCE_LINE = re.compile(r"^Source \((.*)\):$", re.MULTILINE)
_SUMMARY_LINE = re.compile(r"^\[(\d+)\] ", re.MULTILINE)
_CLASS_LINE = re.compile(r"^class (\w+)\(", re.MULTILINE)


def prompt_kind(prompt: str) -> str:
    for tag, marker, where in KINDS:
        if prompt.startswith(marker) if where == "start" else marker in prompt:
            return tag
    raise ValueError(f"unrecognised prompt: {prompt[:80]!r}")


def _between(text: str, start: str, end: str | None = None) -> str:
    tail = text.split(start, 1)[1]
    return tail.split(end, 1)[0] if end else tail


def _passage_key(prompt: str) -> str:
    return f"{_PASSAGE.search(prompt).group(1)}|{_NAMESPACE.search(prompt).group(1)}"


def _relation_reply(prompt: str) -> str:
    """Name the candidate that is the longest prefix of the query, else the first."""
    query_part, candidate_part = prompt.split("Existing candidate concepts:", 1)
    query = _CLASS_LINE.search(query_part).group(1)
    candidates = _CLASS_LINE.findall(candidate_part)
    ancestors = [c for c in candidates if query.startswith(c)]
    parent = max(ancestors, key=len) if ancestors else candidates[0]
    return "\n".join(f"{c}: {'parent_of_query' if c == parent else 'unrelated'}"
                     for c in candidates)


def reply(tag: str, prompt: str, table: dict) -> str:
    if tag in ("propose", "plan"):
        return table[tag]
    if tag in ("importing", "instantiation"):
        return table[tag][_passage_key(prompt)]
    if tag == "topic-ner":
        return "\n".join(re.findall(r'"([^"]+)"', _QUERY_LINE.search(prompt).group(1)))
    if tag == "codegen":
        return PASSING_SCRIPT if "Feedback from the previous attempt" in prompt else FAILING_SCRIPT
    if tag == "evaluate":
        return "PASS the printed counts answer the query."
    if tag == "summarize":
        return f"The page at {_SOURCE_LINE.search(prompt).group(1)} lists the holdings asked about."
    if tag == "draft":
        cites = " ".join(f"[{n}]" for n in _SUMMARY_LINE.findall(prompt))
        return f"The background sources agree on how the holdings were kept {cites}."
    if tag == "sufficiency":
        return "PASS the draft answers the question."
    if tag == "merge":
        computed = _between(prompt, "Computed findings:\n", "\n\nDrafted text:\n").strip()
        drafted = _between(prompt, "\n\nDrafted text:\n").strip()
        return f"{computed}\n\n{drafted}"
    if tag == "revise":
        return _between(prompt, "Section to polish:\n").strip()
    return _relation_reply(prompt)


class Meter:
    """Per-run call counters shared by the chat and embedding backends."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.first_call_at: float | None = None
        self.calls: Counter = Counter()
        self.prompt_chars = 0
        self.response_chars = 0
        self.wait_s = 0.0
        self.embed_texts = 0

    def started(self) -> float:
        now = time.perf_counter()
        with self.lock:
            if self.first_call_at is None:
                self.first_call_at = now
        return now


class BenchChatBackend(ChatBackend):
    def __init__(self, table: dict, latency_s: float, meter: Meter):
        self.table = table
        self.latency_s = latency_s
        self.meter = meter

    def complete(self, messages, config) -> str:
        start = self.meter.started()
        prompt = "\n".join(m.content for m in messages)
        tag = prompt_kind(prompt)
        text = reply(tag, prompt, self.table)
        if self.latency_s:
            time.sleep(self.latency_s)
        waited = time.perf_counter() - start
        with self.meter.lock:
            self.meter.calls[tag] += 1
            self.meter.prompt_chars += len(prompt)
            self.meter.response_chars += len(text)
            self.meter.wait_s += waited
        return text


class BenchEmbeddingBackend(MockEmbeddingBackend):
    """kdr's hash-seeded mock embeddings, metered."""

    def __init__(self, meter: Meter, dim: int = 64):
        super().__init__(dim)
        self.meter = meter

    def embed(self, texts):
        self.meter.started()
        with self.meter.lock:
            self.meter.embed_texts += len(texts)
        return super().embed(texts)
