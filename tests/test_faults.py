"""Fault sweep: each model call of an organize run and of a research run over
the scripted fixture fails in turn, as an outage, an empty reply or a
refusal. Every run must end in one of two ways: it finishes with the fault
recorded where kdr records it, or it raises a KdrError, leaving the KB, its
ontology, the proposal and organize's run directory as they were, and no
report. Any other exception fails the sweep."""

from __future__ import annotations

import json
import shutil
import threading
from collections import Counter
from pathlib import Path

import pytest

from kdr import knowledge_store as ks
from kdr import ontology as onto
from kdr import pipeline as pl
from kdr.errors import BackendUnavailable, KdrError, UnparseableProposal
from kdr.llm_gateway import LlmGateway, MockChatBackend, MockEmbeddingBackend
from kdr.reasoning import Limits
from kdr.websearch import FixtureSearchBackend

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = str(FIXTURES / "corpus")
TOPIC = "Ada Lovelace and the Analytical Engine"
# what the failing call does: None raises BackendUnavailable, a string is its reply
FAULTS = {"outage": None, "empty": "", "refusal": "I cannot help with that."}


class FaultyGateway(LlmGateway):
    """The e2e mock, except that the `target` call fails. A call is keyed by
    (tag, prompt, occurrence), the occurrence counting identical prompts, so
    a key names the same call however overlapped calls are ordered."""

    def __init__(self, target: tuple[str, str, int] | None = None, fault: str | None = None):
        script = json.loads((FIXTURES / "e2e_mock.json").read_text())
        super().__init__(MockChatBackend.from_script(script), MockEmbeddingBackend())
        self.target, self.fault = target, fault
        self.calls: list[tuple[str, str, int]] = []
        self._seen: Counter = Counter()
        self._lock = threading.Lock()

    def chat(self, prompt: str, tag: str = "") -> str:
        with self._lock:
            self._seen[tag, prompt] += 1
            key = (tag, prompt, self._seen[tag, prompt])
            self.calls.append(key)
        if key != self.target:
            return super().chat(prompt, tag)
        if self.fault is None:
            raise BackendUnavailable(f"{tag} endpoint failed after 3 attempts")
        return self.fault


def organize(root: Path, gateway: LlmGateway, workers: int) -> dict:
    """Propose, approve, then organize the fixture corpus over the KB in root."""
    kb = str(root / "kb.jsonl")
    pl.propose_ontology(TOPIC, "sample", gateway, review_path=str(root / "proposal.json"))
    proposal = pl.review_gate(str(root / "proposal.json"), approve=True)
    graph = onto.load_ontology(f"{kb}.ontology.json")
    task = pl.ResearchTask(TOPIC, "organize", corpus_path=CORPUS, kb_path=kb)
    return pl.run_organization(task, proposal, gateway, base_graph=graph,
                               store=ks.load(kb, graph), run_dir=str(root / "run"),
                               limits=Limits(workers=workers))[2]


def research(root: Path, gateway: LlmGateway, workers: int) -> pl.ReportDocument:
    kb = str(root / "kb.jsonl")
    graph = onto.load_ontology(f"{kb}.ontology.json")
    task = pl.ResearchTask(TOPIC, "research", kb_path=kb)
    return pl.run_research(task, graph, ks.load(kb, graph), gateway,
                           search_backend=FixtureSearchBackend(str(FIXTURES / "webcorpus")),
                           run_dir=str(root / "report"), generated_at="fixed",
                           limits=Limits(workers=workers))


def files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def trace_failures(root: Path) -> Counter:
    """The reason and the failed iterations' feedback of the analysis trace."""
    (path,) = (root / "report" / "sections").glob("*/trace*.json")
    trace = json.loads(path.read_text())
    return Counter([trace["reason"]] + [it["feedback"] for it in trace["iterations"]
                                        if it["verdict"] == "fail"])


@pytest.fixture(scope="module")
def kb_dir(tmp_path_factory) -> Path:
    """A finished organize run of the fixture: KB, ontology, proposal, run dir."""
    root = tmp_path_factory.mktemp("kb")
    gateway = FaultyGateway()
    proposal = pl.propose_ontology(TOPIC, "sample", gateway,
                                   review_path=str(root / "proposal.json"))
    proposal.status = "approved"
    task = pl.ResearchTask(TOPIC, "organize", corpus_path=CORPUS,
                           kb_path=str(root / "kb.jsonl"))
    pl.run_organization(task, proposal, gateway, run_dir=str(root / "run"))
    return root


@pytest.fixture(scope="module")
def clean_calls(kb_dir, tmp_path_factory) -> dict[str, list]:
    """The calls of a fault-free run of each kind, in workers-1 order; the
    same calls are made at 8 workers."""
    calls = {}
    for name, run in (("organize", organize), ("research", research)):
        made = []
        for workers in (1, 8):
            root = tmp_path_factory.mktemp(f"clean-{name}")
            shutil.copytree(kb_dir, root, dirs_exist_ok=True)
            gateway = FaultyGateway()
            run(root, gateway, workers)
            made.append(gateway.calls)
        assert sorted(made[0]) == sorted(made[1])
        calls[name] = made[0]
    assert Counter(tag for tag, _, _ in calls["organize"]) == {
        "propose": 1, "importing": 2, "instantiation": 2}
    assert len(calls["research"]) == 12
    return calls


def sweep(run, kb_dir: Path, calls: list, tmp_path: Path, workers: int, fault: str,
          check_raised, check_finished) -> Counter:
    """Fail each call in turn; the outcome of each run is counted by how it ended."""
    outcomes: Counter = Counter()
    for k, target in enumerate(calls):
        root = tmp_path / str(k)
        shutil.copytree(kb_dir, root)
        before = files(root)
        gateway = FaultyGateway(target, FAULTS[fault])
        try:
            result = run(root, gateway, workers)
        except KdrError as exc:
            check_raised(exc, before, files(root))
            outcomes["raised", type(exc).__name__] += 1
        else:
            check_finished(target, root, result)
            outcomes["finished"] += 1
        assert target in gateway.calls
        assert not [p for p in root.rglob("*") if p.name.endswith(".tmp")]
    return outcomes


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("workers", [1, 8])
def test_organize_fault_sweep(kb_dir, clean_calls, tmp_path, workers, fault):
    docs, _ = pl.read_corpus(CORPUS)
    passages = {(name, i): passage for name, text in docs
                for i, passage in enumerate(pl.split_passages(text))}

    def check_raised(exc, before, after):
        assert isinstance(exc, BackendUnavailable if fault == "outage" else UnparseableProposal)
        # KB, ontology, proposal and run dir as they were; a rejected proposal's reply is kept
        assert {name: data for name, data in after.items() if not name.endswith(".raw")} == before

    def check_finished(target, root, manifest):
        tag, prompt, _ = target
        assert fault != "outage" and tag in ("importing", "instantiation")
        assert any(passages[row["document"], row["passage"]] in prompt
                   for row in manifest["errors"])

    outcomes = sweep(organize, kb_dir, clean_calls["organize"], tmp_path, workers, fault,
                     check_raised, check_finished)
    expected = ({("raised", "BackendUnavailable"): 5} if fault == "outage" else
                {("raised", "UnparseableProposal"): 1, "finished": 4})
    assert outcomes == expected


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("workers", [1, 8])
def test_research_fault_sweep(kb_dir, clean_calls, tmp_path, workers, fault):
    clean_root = tmp_path / "clean"
    shutil.copytree(kb_dir, clean_root)
    research(clean_root, FaultyGateway(), workers)
    clean_failures = trace_failures(clean_root)

    def check_raised(exc, before, after):
        assert fault == "outage" and isinstance(exc, BackendUnavailable)
        assert {name: after.get(name) for name in before} == before
        assert not {"report/report.md", "report/manifest.json"} & after.keys()

    def check_finished(target, root, doc):
        assert fault != "outage"
        assert (root / "report" / "report.md").is_file()
        if target[0] in ("topic-ner", "codegen", "evaluate"):  # the trace or a caveat records it
            assert trace_failures(root) - clean_failures

    outcomes = sweep(research, kb_dir, clean_calls["research"], tmp_path, workers, fault,
                     check_raised, check_finished)
    assert outcomes == ({("raised", "BackendUnavailable"): 12} if fault == "outage" else
                        {"finished": 12})
