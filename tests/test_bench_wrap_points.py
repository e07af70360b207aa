"""Every function the benchmark's tracer wraps still exists under its name,
and the flows the benchmark drives still call it there.

kdrbench/tracing.py replaces kdr functions by name from outside the program;
renaming one would break only the traced bench run, and moving a call away
from the wrapped name would leave its span reading zero. So this test
installs the tracer with a stub that checks each name and wraps it with a
call recorder (through monkeypatch, so every original comes back), then
drives organize, research and a taxonomy evaluation as the bench does.
"""

from __future__ import annotations

import functools
import importlib.util
import json
from pathlib import Path

import pytest

from kdr import alignment as al
from kdr import evalkit as ek
from kdr import knowledge_store as ks
from kdr import ontology as onto
from kdr import pipeline as pl
from kdr.llm_gateway import (
    LlmGateway,
    MockChatBackend,
    MockEmbeddingBackend,
    Transcript,
    mock_gateway,
)
from kdr.reasoning import Limits
from kdr.websearch import FixtureSearchBackend

TRACING = Path(__file__).resolve().parent.parent / "kdrbench" / "tracing.py"
FIXTURES = Path(__file__).resolve().parent / "fixtures"
TOPIC = "Ada Lovelace and the Analytical Engine"

# wrapped names that organize, research and a taxonomy evaluation do not call
NOT_EXERCISED: set[str] = set()


class CallRecorder:
    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.wrapped: list[str] = []
        self.called: set[str] = set()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        assert hasattr(owner, attr), f"{owner!r} has no {attr!r}, which the bench wraps as {name}"
        key = f"{getattr(owner, '__name__', owner)}.{attr}"
        self.wrapped.append(key)
        original, called = getattr(owner, attr), self.called

        @functools.wraps(original)
        def recorded(*args, **kwargs):
            called.add(key)
            return original(*args, **kwargs)

        self.monkeypatch.setattr(owner, attr, recorded)


@pytest.fixture
def recorder(monkeypatch):
    spec = importlib.util.spec_from_file_location("kdrbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    recorder = CallRecorder(monkeypatch)
    tracing.install(recorder)
    return recorder


def e2e_gateway():
    script = json.loads((FIXTURES / "e2e_mock.json").read_text())
    return LlmGateway(MockChatBackend.from_script(script), MockEmbeddingBackend(), Transcript(None))


def organize_and_research(tmp_path: Path, workers: int) -> None:
    """The bench child's organize and research runs, over the e2e fixtures."""
    limits = Limits(workers=workers)
    corpus = str(FIXTURES / "corpus")
    docs, _ = pl.read_corpus(corpus)
    kb = tmp_path / "kb.jsonl"
    review = f"{kb}.proposal.json"
    pl.propose_ontology(TOPIC, "\n\n".join(text for _, text in docs)[:2000], e2e_gateway(),
                        review_path=review)
    proposal = pl.review_gate(review, approve=True)
    task = pl.ResearchTask(TOPIC, "organize", corpus_path=corpus, kb_path=str(kb))
    pl.run_organization(task, proposal, e2e_gateway(), run_dir=str(tmp_path / "organize"),
                        limits=limits)

    graph = onto.load_ontology(f"{kb}.ontology.json")
    store = ks.load(str(kb), graph)
    task = pl.ResearchTask(TOPIC, "research", kb_path=str(kb),
                           output_path=str(tmp_path / "research"))
    pl.run_research(task, graph, store, e2e_gateway(),
                    search_backend=FixtureSearchBackend(str(FIXTURES / "webcorpus")),
                    run_dir=str(tmp_path / "research"), limits=limits)


def test_every_name_the_bench_wraps_exists(recorder):
    assert {"LlmGateway.chat", "InvertedIndex.add", "InvertedIndex.search",
            "FixtureSearchBackend.__init__", "FixtureSearchBackend.search"} <= set(recorder.wrapped)


@pytest.mark.parametrize("workers", [1, 8])
def test_the_flows_the_bench_drives_call_every_name_it_wraps(tmp_path, recorder, workers):
    organize_and_research(tmp_path, workers)
    dataset = json.loads((FIXTURES / "taxonomy_20.json").read_text())
    aligner = al.make_llm_aligner(mock_gateway({"rules": [],
                                                "default_response": "Animal: parent_of_query"}))
    ek.eval_taxonomy(dataset, aligner, graph_builder=ek.build_taxonomy_graph,
                     limits=Limits(workers=workers))
    assert set(recorder.wrapped) - recorder.called == NOT_EXERCISED
