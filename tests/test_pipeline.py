"""Organization and research orchestration over the scripted fixture corpus."""

from __future__ import annotations

import ast
import dataclasses
import json
import re
import sys
import threading
import time
from pathlib import Path

import pytest

from kdr import knowledge_store as ks
from kdr import ontology as onto
from kdr import pipeline as pl
from kdr import reasoning as rs
from kdr.errors import (
    BackendUnavailable,
    DanglingArtifact,
    IoFailure,
    ParseFailure,
    SchemaViolation,
    UnbalancedTags,
    UnparseableProposal,
)
from kdr.llm_gateway import (
    ChatBackend,
    LlmGateway,
    MockChatBackend,
    MockEmbeddingBackend,
    Transcript,
    mock_gateway,
)
from kdr.reasoning import Limits
from kdr.websearch import FixtureSearchBackend, SearchHit

from chat_probes import HoldFirst, InFlight, prompt_of

FIXTURES = Path(__file__).parent / "fixtures"
TOPIC = "Ada Lovelace and the Analytical Engine"


def e2e_gateway():
    script = json.loads((FIXTURES / "e2e_mock.json").read_text())
    return LlmGateway(MockChatBackend.from_script(script),
                      MockEmbeddingBackend(), Transcript(None))


def organize_task(tmp_path):
    return pl.ResearchTask(TOPIC, "organize",
                           corpus_path=str(FIXTURES / "corpus"),
                           kb_path=str(tmp_path / "kb.jsonl"))


def approved_proposal(gateway, tmp_path):
    proposal = pl.propose_ontology(TOPIC, "sample text", gateway,
                                   review_path=str(tmp_path / "proposal.json"))
    return pl.review_gate(str(tmp_path / "proposal.json"), approve=True)


# -- tasks ----------------------------------------------------------------------


def test_task_validation():
    with pytest.raises(SchemaViolation):
        pl.ResearchTask("", "organize", corpus_path="x")
    with pytest.raises(SchemaViolation):
        pl.ResearchTask("t", "summarize")
    with pytest.raises(SchemaViolation):
        pl.ResearchTask("t", "organize")
    with pytest.raises(SchemaViolation):
        pl.ResearchTask("t", "research")


# -- proposal and review gate ------------------------------------------------------


def test_propose_ontology_writes_review_file(tmp_path):
    gw = e2e_gateway()
    proposal = pl.propose_ontology(TOPIC, "sample", gw,
                                   review_path=str(tmp_path / "p.json"))
    assert proposal.status == "proposed"
    assert len(proposal.graph.concepts) == 2
    saved = json.loads((tmp_path / "p.json").read_text())
    assert set(saved["namespaces"]) == {"STUDY"}


def test_propose_ontology_is_deterministic(tmp_path):
    a = pl.propose_ontology(TOPIC, "s", e2e_gateway(),
                            review_path=str(tmp_path / "a.json"))
    b = pl.propose_ontology(TOPIC, "s", e2e_gateway(),
                            review_path=str(tmp_path / "b.json"))
    assert a.document == b.document
    assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()


def test_unparseable_proposal_saves_raw(tmp_path):
    gw = mock_gateway(default_response="not json at all")
    with pytest.raises(UnparseableProposal):
        pl.propose_ontology(TOPIC, "s", gw, review_path=str(tmp_path / "p.json"))
    assert (tmp_path / "p.json.raw").read_text() == "not json at all"
    assert not (tmp_path / "p.json").exists()


def test_schema_breaking_proposal_rejected(tmp_path):
    bad = json.dumps({"namespaces": {"NS": [
        {"name": "lowercase", "kind": "entity", "parent": "Entity"}]}})
    with pytest.raises(UnparseableProposal):
        pl.propose_ontology(TOPIC, "s", mock_gateway(default_response=bad))


def test_review_gate_paths(tmp_path):
    document = {"namespaces": {"NS": [
        {"name": "Person", "kind": "entity", "parent": "Entity"}]}}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(document))

    approved = pl.review_gate(str(path), approve=True)
    assert approved.status == "approved"

    with pytest.raises(ValueError):
        pl.review_gate(str(path))

    edited_doc = {"namespaces": {"NS": [
        {"name": "Person", "kind": "entity", "parent": "Entity",
         "attributes": [{"name": "age", "type": "number"}]}]}}
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(edited_doc))
    result = pl.review_gate(str(path), edited_path=str(edited))
    assert result.status == "edited"
    assert result.document == edited_doc

    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"namespaces": {"NS": [
        {"name": "person", "kind": "entity", "parent": "Entity"}]}}))
    with pytest.raises(SchemaViolation):
        pl.review_gate(str(path), edited_path=str(broken))


TWO_NAMESPACES = {"namespaces": {
    "A": [{"name": "Person", "kind": "entity", "parent": "Entity",
           "description": "A person."}],
    "B": [{"name": "Machine", "kind": "entity", "parent": "Entity",
           "description": "A machine."}],
}}


@pytest.fixture
def builds(monkeypatch):
    """The documents graph_from_document builds a graph from, in call order."""
    documents: list[dict] = []
    build = onto.graph_from_document
    monkeypatch.setattr(onto, "graph_from_document",
                        lambda document: documents.append(document) or build(document))
    return documents


def propose_two_namespaces(path):
    return pl.propose_ontology(TOPIC, "s", mock_gateway(default_response=json.dumps(
        TWO_NAMESPACES)), review_path=str(path))


def test_organize_builds_its_proposed_graph_once(tmp_path, builds):
    proposal = approved_proposal(e2e_gateway(), tmp_path)
    graph, _, _ = pl.run_organization(organize_task(tmp_path), proposal, e2e_gateway())
    assert builds == [json.loads((tmp_path / "proposal.json").read_text())]
    assert list(graph.concepts) == ["STUDY.Person", "STUDY.Machine"]


def test_review_gate_reuses_a_proposal_once(tmp_path, builds):
    path = tmp_path / "p.json"
    propose_two_namespaces(path)
    first = pl.review_gate(str(path), approve=True)
    second = pl.review_gate(str(path), approve=True)
    assert len(builds) == 2  # propose's check, then the second gate's parse
    assert first.document == second.document == TWO_NAMESPACES
    assert list(first.graph.concepts) == list(second.graph.concepts) == ["A.Person", "B.Machine"]


def test_review_gate_applies_an_edit_that_keeps_the_length(tmp_path):
    path = tmp_path / "p.json"
    propose_two_namespaces(path)
    text = path.read_text()
    path.write_text(text.replace("A person.", "A porson."))
    assert len(path.read_text()) == len(text)
    approved = pl.review_gate(str(path), approve=True)
    assert approved.graph.concepts["A.Person"].description == "A porson."
    assert approved.document["namespaces"]["A"][0]["description"] == "A porson."


def test_review_gate_reads_swapped_namespaces_as_an_edit(tmp_path):
    path = tmp_path / "p.json"
    proposed = propose_two_namespaces(path)
    swapped = {"namespaces": {"B": TWO_NAMESPACES["namespaces"]["B"],
                              "A": TWO_NAMESPACES["namespaces"]["A"]}}
    path.write_text(json.dumps(swapped, indent=2) + "\n")
    approved = pl.review_gate(str(path), approve=True)
    assert approved.document == proposed.document  # dict equality ignores the order
    assert list(approved.document["namespaces"]) == ["B", "A"]
    assert list(approved.graph.concepts) == ["B.Machine", "A.Person"]


def test_review_gate_rejects_an_edit_that_breaks_the_schema(tmp_path):
    path = tmp_path / "p.json"
    propose_two_namespaces(path)
    path.write_text(path.read_text().replace('"Machine"', '"machine"'))
    with pytest.raises(SchemaViolation, match="UpperCamelCase"):
        pl.review_gate(str(path), approve=True)


def test_review_gate_parses_an_older_file_after_a_rejected_proposal(tmp_path, builds):
    path = tmp_path / "p.json"
    propose_two_namespaces(path)
    with pytest.raises(UnparseableProposal):
        pl.propose_ontology(TOPIC, "s", mock_gateway(default_response="not json"),
                            review_path=str(path))
    del builds[:]
    approved = pl.review_gate(str(path), approve=True)
    assert builds == [TWO_NAMESPACES]
    assert list(approved.graph.concepts) == ["A.Person", "B.Machine"]


def test_the_approved_graph_is_not_the_proposed_one(tmp_path):
    path = tmp_path / "p.json"
    proposed = propose_two_namespaces(path)
    approved = pl.review_gate(str(path), approve=True)
    onto.insert_concept(approved.graph, onto.Concept("Robot", "B", "entity", "Machine"))
    approved.graph.add_equivalence("A.Person", "B.Machine")
    assert list(proposed.graph.concepts) == ["A.Person", "B.Machine"]
    assert proposed.graph.equivalences == {}
    assert onto.graph_to_document(proposed.graph) == onto.graph_to_document(
        onto.graph_from_document(TWO_NAMESPACES))


def test_concurrent_gates_never_share_a_graph(tmp_path):
    """Threads propose the same text to their own files, then gate them: a
    kept graph goes to one gate at most, so no two proposals share one."""
    threads, proposed, approved = 16, [], []
    barrier = threading.Barrier(threads)

    def organize(n: int) -> None:
        barrier.wait(timeout=10)
        proposed.append(propose_two_namespaces(tmp_path / f"p{n}.json"))
        approved.append(pl.review_gate(str(tmp_path / f"p{n}.json"), approve=True))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=organize, args=(n,)) for n in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    graphs = [id(p.graph) for p in proposed + approved]
    assert len(approved) == threads and len(set(graphs)) == 2 * threads
    assert all(list(a.graph.concepts) == ["A.Person", "B.Machine"] for a in approved)


# -- corpus utilities ----------------------------------------------------------------


def test_split_passages_paragraph_aligned():
    text = "one two three.\n\nfour five.\n\nsix."
    assert pl.split_passages(text, max_words=400) == [text]
    passages = pl.split_passages(text, max_words=4)
    assert passages == ["one two three.", "four five.\n\nsix."]


def test_split_passages_hard_splits_monster_paragraph():
    words = " ".join(f"w{i}" for i in range(900))
    passages = pl.split_passages(words, max_words=400)
    assert [len(p.split()) for p in passages] == [400, 400, 100]


def test_split_passages_empty_text():
    assert pl.split_passages("   \n\n  ") == []


def test_html_to_text_strips_tags_and_scripts():
    raw = ("<html><head><script>var x = 1;</script></head><body>"
           "<h1>Title</h1><p>First para.</p><p>Second para.</p></body></html>")
    text = pl.html_to_text(raw)
    assert "var x" not in text
    assert "Title" in text and "First para." in text
    assert "\n\n" in text


def test_read_corpus_reads_known_formats_and_skips_others(tmp_path):
    (tmp_path / "a.txt").write_text("plain")
    (tmp_path / "b.html").write_text("<p>web</p>")
    (tmp_path / "c.pdf").write_bytes(b"%PDF-fake")
    docs, skipped = pl.read_corpus(str(tmp_path))
    assert [d for d, _ in docs] == ["a.txt", "b.html"]
    assert dict(docs)["b.html"] == "web"
    assert skipped == ["c.pdf"]


def test_read_corpus_missing_dir():
    with pytest.raises(IoFailure, match="/nonexistent/corpus"):
        pl.read_corpus("/nonexistent/corpus")


# -- organization ---------------------------------------------------------------------


def test_run_organization_builds_merged_store(tmp_path):
    gw = e2e_gateway()
    task = organize_task(tmp_path)
    proposal = approved_proposal(gw, tmp_path)
    graph, store, manifest = pl.run_organization(
        task, proposal, gw, run_dir=str(tmp_path / "run"))

    assert manifest["documents"] == 2
    assert manifest["passages"] == 2
    assert manifest["errors"] == []
    assert manifest["stored_objects"] == 3

    babbage = store.query_by_name("Charles Babbage")[0]
    assert babbage.scalar("birth_year") == 1791
    assert len(babbage.provenance) == 2  # seen in both documents

    machine = store.query_by_name("Analytical Engine")[0]
    designer = machine.scalar("designer")
    assert isinstance(designer, ks.Ref) and designer.id == babbage.id

    assert (tmp_path / "kb.jsonl").exists()
    assert (tmp_path / "kb.jsonl.ontology.json").exists()
    assert json.loads((tmp_path / "run" / "manifest.json").read_text()) == manifest


def test_run_organization_requires_approval(tmp_path):
    gw = e2e_gateway()
    proposal = pl.propose_ontology(TOPIC, "s", gw,
                                   review_path=str(tmp_path / "p.json"))
    with pytest.raises(ValueError):
        pl.run_organization(organize_task(tmp_path), proposal, gw)


def test_run_organization_second_sweep_changes_nothing(tmp_path):
    gw = e2e_gateway()
    task = organize_task(tmp_path)
    proposal = approved_proposal(gw, tmp_path)
    graph, store, _ = pl.run_organization(task, proposal, gw)
    snapshot = {k: v for k, v in store.objects.items()}

    gw2 = e2e_gateway()  # fresh response queues, same script
    graph2, store2, manifest2 = pl.run_organization(
        task, proposal, gw2, base_graph=graph, store=store)
    assert store2 is store
    assert store.objects == snapshot
    assert manifest2["stored_objects"] == 3


def test_run_organization_is_deterministic(tmp_path):
    task = organize_task(tmp_path)
    gw1 = e2e_gateway()
    proposal = approved_proposal(gw1, tmp_path)
    _, store1, m1 = pl.run_organization(task, proposal, gw1)
    _, store2, m2 = pl.run_organization(task, proposal, e2e_gateway())
    assert store1.objects == store2.objects
    assert m1 == m2


def test_run_organization_document_failure_hits_ledger(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "only.txt").write_text("An unremarkable sentence.")
    document = {"namespaces": {"NS": [
        {"name": "Person", "kind": "entity", "parent": "Entity"}]}}
    proposal = pl.ProposedOntology(document, status="approved")
    gw = mock_gateway(default_response="no import lines here")
    task = pl.ResearchTask("t", "organize", corpus_path=str(corpus))
    graph, store, manifest = pl.run_organization(task, proposal, gw)
    assert len(store.objects) == 0
    assert len(manifest["errors"]) == 1
    assert "Import" in manifest["errors"][0]["error"]


def test_run_organization_empty_corpus(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    document = {"namespaces": {"NS": [
        {"name": "Person", "kind": "entity", "parent": "Entity"}]}}
    proposal = pl.ProposedOntology(document, status="approved")
    task = pl.ResearchTask("t", "organize", corpus_path=str(corpus))
    _, store, manifest = pl.run_organization(task, proposal, mock_gateway())
    assert manifest["documents"] == 0
    assert len(store.objects) == 0


def test_run_organization_files_do_not_depend_on_workers(tmp_path):
    proposal = approved_proposal(e2e_gateway(), tmp_path)
    outputs = []
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        out.mkdir()
        task = pl.ResearchTask(TOPIC, "organize", corpus_path=str(FIXTURES / "corpus"),
                               kb_path=str(out / "kb.jsonl"))
        pl.run_organization(task, proposal, e2e_gateway(), run_dir=str(out / "run"),
                            limits=Limits(workers=workers))
        outputs.append([(out / name).read_bytes() for name in (
            "kb.jsonl", "kb.jsonl.ontology.json", "run/manifest.json")])
    assert outputs[0] == outputs[1]


def test_run_organization_unwritable_kb_location_fails_before_model_calls(tmp_path):
    proposal = approved_proposal(e2e_gateway(), tmp_path)
    (tmp_path / "file").write_text("not a directory")
    task = pl.ResearchTask(TOPIC, "organize", corpus_path=str(FIXTURES / "corpus"),
                           kb_path=str(tmp_path / "file" / "kb.jsonl"))
    gateway = e2e_gateway()
    with pytest.raises(IoFailure, match="KB directory"):
        pl.run_organization(task, proposal, gateway)
    assert gateway.chat_backend.calls == []


class _PassageBackend(ChatBackend):
    """Answers extraction prompts from the passage's number. Earlier passages
    answer later, so overlapped calls finish out of corpus order; passage 4's
    reply fails to parse (a ledger line; an outage would stop the run) and
    passage 7 imports nothing."""

    def complete(self, messages, config):
        prompt = messages[-1].content
        n = int(re.search(r"Person (\d+) was born", prompt).group(1))
        time.sleep((12 - n) * 0.002)
        if n == 4:
            raise ParseFailure("passage 4 unreachable")
        if n == 7:
            return "nothing to import"
        if "Please import" in prompt:
            return "From NS Import Person"
        return f'```python\nresults = [Person(name="Person {n}", birth_year={1800 + n})]\n```'


def test_run_organization_ledger_order_does_not_depend_on_workers(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for n in range(1, 13):
        (corpus / f"d{n:02d}.txt").write_text(f"Person {n} was born in {1800 + n}.")
    document = {"namespaces": {"NS": [
        {"name": "Person", "kind": "entity", "parent": "Entity",
         "attributes": [{"name": "birth_year", "type": "number"}]}]}}
    proposal = pl.ProposedOntology(document, status="approved")
    manifests = []
    for workers in (1, 8):
        task = pl.ResearchTask("t", "organize", corpus_path=str(corpus),
                               kb_path=str(tmp_path / f"kb{workers}.jsonl"))
        gateway = LlmGateway(_PassageBackend(), MockEmbeddingBackend(), Transcript(None))
        _, store, manifest = pl.run_organization(task, proposal, gateway, limits=Limits(workers=workers))
        manifests.append(manifest)
    assert manifests[0] == manifests[1]
    assert [e["document"] for e in manifests[0]["errors"]] == ["d04.txt", "d07.txt"]
    assert "passage 4 unreachable" in manifests[1]["errors"][0]["error"]
    assert manifests[1]["stored_objects"] == 10
    assert (tmp_path / "kb1.jsonl").read_bytes() == (tmp_path / "kb8.jsonl").read_bytes()



def test_run_organization_writes_each_parse_issue_to_the_ledger(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "d1.txt").write_text("Ann was born in 1990; Bob is old.")
    document = {"namespaces": {"NS": [
        {"name": "Person", "kind": "entity", "parent": "Entity",
         "attributes": [{"name": "age", "type": "number"}]}]}}
    proposal = pl.ProposedOntology(document, status="approved")
    gw = mock_gateway({"rules": [
        {"match": "Please import", "responses": ["From NS Import Person"]},
        {"match": "Please instantiate", "responses": [
            'results = [Person(name="Ann", age=33), Person(name="Bob", age="old")]']},
    ]})
    task = pl.ResearchTask("t", "organize", corpus_path=str(corpus),
                           kb_path=str(tmp_path / "kb.jsonl"))
    _, store, manifest = pl.run_organization(task, proposal, gw)
    assert [o.display_name for o in store.objects.values()] == ["Ann"]
    assert manifest["errors"] == [{
        "document": "d1.txt", "passage": 0, "namespace": "NS",
        "error": "bad_value: NS.Person.age expects a number, got 'old'"}]

class _OutageBackend(ChatBackend):
    """A chat endpoint that is down: every call fails as the HTTP backend's
    retry loop reports it."""

    def complete(self, messages, config):
        raise BackendUnavailable("chat endpoint failed after 3 attempts: connection refused")


def outage_gateway():
    return LlmGateway(_OutageBackend(), MockEmbeddingBackend(), Transcript(None))


@pytest.mark.parametrize("workers", [1, 8])
def test_run_organization_during_an_outage_raises_and_keeps_the_kb(tmp_path, workers):
    gw = e2e_gateway()
    task = organize_task(tmp_path)
    proposal = approved_proposal(gw, tmp_path)
    pl.run_organization(task, proposal, gw)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert before["kb.jsonl"] and before["kb.jsonl.ontology.json"]
    with pytest.raises(BackendUnavailable, match="connection refused"):
        pl.run_organization(task, proposal, outage_gateway(), limits=Limits(workers=workers))
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_ordered_map_keeps_item_order():
    def slow_square(n):
        time.sleep((5 - n) * 0.005)  # later items finish first
        return n * n, threading.current_thread()

    pooled = pl.ordered_map(slow_square, list(range(5)), workers=8)
    assert [v for v, _ in pooled] == [0, 1, 4, 9, 16]
    assert any(t is not threading.current_thread() for _, t in pooled)
    serial = pl.ordered_map(slow_square, list(range(5)), workers=1)
    assert [v for v, _ in serial] == [0, 1, 4, 9, 16]
    assert all(t is threading.current_thread() for _, t in serial)


def test_ordered_map_raises_the_first_error_in_item_order():
    def fail_on_odd(n):
        time.sleep((5 - n) * 0.005)
        if n % 2:
            raise ValueError(f"item {n}")
        return n

    with pytest.raises(ValueError, match="item 1"):
        pl.ordered_map(fail_on_odd, list(range(5)), workers=4)

    started, finished = threading.Event(), []

    def fail_first(n):  # item 1 is still running when item 0 fails
        if n == 0:
            started.wait(5)
            raise ValueError("item 0")
        started.set()
        time.sleep(0.05)
        finished.append(n)

    before = threading.enumerate()
    with pytest.raises(ValueError, match="item 0"):
        pl.ordered_map(fail_first, [0, 1], workers=2)
    assert threading.enumerate() == before
    assert finished == [1]


def test_merge_proposal_aligns_root_parented_concepts(tmp_path):
    base_doc = {"namespaces": {"A": [
        {"name": "Creature", "kind": "entity", "parent": "Entity",
         "description": "A living creature."}]}}
    base = onto.graph_from_document(base_doc)
    incoming = {"namespaces": {"B": [
        {"name": "Animal", "kind": "entity", "parent": "Entity",
         "description": "A living creature."}]}}
    gw = mock_gateway({"rules": [
        {"match": "state its relation", "responses": ["Creature: parent_of_query"]}]})
    graph, notes = pl._merge_proposal_into_graph(base, onto.graph_from_document(incoming), gw)
    assert graph.parents["B.Animal"] == "A.Creature"
    assert any("aligned under A.Creature" in n for n in notes)


def test_merge_proposal_keeps_an_aligned_equivalence():
    base = onto.graph_from_document({"namespaces": {"A": [
        {"name": "Creature", "kind": "entity", "parent": "Entity",
         "description": "A living creature."}]}})
    incoming = {"namespaces": {"B": [
        {"name": "Animal", "kind": "entity", "parent": "Entity",
         "description": "A living creature."}]}}
    gw = mock_gateway({"rules": [
        {"match": "state its relation", "responses": ["Creature: equivalent"]}]})
    graph, notes = pl._merge_proposal_into_graph(base, onto.graph_from_document(incoming), gw)
    assert graph.parents["B.Animal"] == "Entity"
    assert graph.equivalences == {"A.Creature": {"B.Animal"}, "B.Animal": {"A.Creature"}}
    assert notes == ["B.Animal aligned as equivalent to A.Creature"]


def test_merge_proposal_ignores_a_verdict_on_a_candidate_of_the_other_kind():
    base = onto.graph_from_document({"namespaces": {"A": [
        {"name": "Creature", "kind": "entity", "parent": "Entity",
         "description": "A living creature."},
        {"name": "Gathering", "kind": "event", "parent": "Event",
         "description": "People come together."}]}})
    incoming = {"namespaces": {"B": [
        {"name": "Meeting", "kind": "event", "parent": "Event",
         "description": "People convene."}]}}
    gw = mock_gateway({"rules": [
        {"match": "state its relation", "responses": ["Creature: parent_of_query"]}]})
    graph, notes = pl._merge_proposal_into_graph(base, onto.graph_from_document(incoming), gw)
    assert graph.parents["B.Meeting"] == "Event"
    assert notes == []


def test_merge_proposal_raises_during_an_outage():
    base = onto.graph_from_document({"namespaces": {"A": [
        {"name": "Creature", "kind": "entity", "parent": "Entity",
         "description": "A living creature."}]}})
    incoming = {"namespaces": {"B": [
        {"name": "Animal", "kind": "entity", "parent": "Entity",
         "description": "A living creature."}]}}
    fresh = onto.graph_from_document(incoming)
    with pytest.raises(BackendUnavailable, match="connection refused"):
        pl._merge_proposal_into_graph(base, fresh, outage_gateway())


def test_merge_proposal_keeps_its_equivalences(tmp_path):
    base = onto.graph_from_document({"namespaces": {"A": [
        {"name": "Creature", "kind": "entity", "parent": "Entity"}]}})
    incoming = {"namespaces": {"A": [
        {"name": "Creature", "kind": "entity", "parent": "Entity"}], "B": [
        {"name": "Animal", "kind": "entity", "parent": "Entity",
         "equivalents": ["A.Creature"]}]}}
    graph, notes = pl._merge_proposal_into_graph(base, onto.graph_from_document(incoming), None)
    assert graph.equivalences == {"A.Creature": {"B.Animal"}, "B.Animal": {"A.Creature"}}
    assert notes == ["A.Creature already present; kept existing definition"]
    assert base.equivalences == {} and "B.Animal" not in base.concepts
    onto.save_ontology(graph, str(tmp_path / "ontology.json"))
    saved = json.loads((tmp_path / "ontology.json").read_text())["namespaces"]
    assert saved["A"][0]["equivalents"] == ["B.Animal"]
    assert saved["B"][0]["equivalents"] == ["A.Creature"]


def test_merge_proposal_notes_an_equivalence_it_cannot_keep():
    base = onto.graph_from_document({"namespaces": {"A": [
        {"name": "Gathering", "kind": "event", "parent": "Event"}]}})
    incoming = {"namespaces": {"A": [
        {"name": "Gathering", "kind": "entity", "parent": "Entity",
         "equivalents": ["B.Crowd"]}], "B": [
        {"name": "Crowd", "kind": "entity", "parent": "Entity"}]}}
    graph, notes = pl._merge_proposal_into_graph(base, onto.graph_from_document(incoming), None)
    assert graph.equivalences == {}
    assert notes[-1].startswith("A.Gathering ~ B.Crowd skipped: ")
    assert "different kinds" in notes[-1]


# -- research -------------------------------------------------------------------------


def organized(tmp_path):
    gw = e2e_gateway()
    task = organize_task(tmp_path)
    proposal = approved_proposal(gw, tmp_path)
    graph, store, _ = pl.run_organization(task, proposal, gw)
    return graph, store


def research_task(tmp_path):
    return pl.ResearchTask(TOPIC, "research", kb_path=str(tmp_path / "kb.jsonl"),
                           output_path=str(tmp_path / "run"))


def test_run_research_full_scripted_run(tmp_path):
    graph, store = organized(tmp_path)
    gw = e2e_gateway()
    backend = FixtureSearchBackend(str(FIXTURES / "webcorpus"))
    run_dir = tmp_path / "run"
    doc = pl.run_research(research_task(tmp_path), graph, store, gw,
                          search_backend=backend, run_dir=str(run_dir),
                          generated_at="2026-01-01T00:00:00Z")

    assert [s.title for s in doc.sections] == ["Background", "Computed profile"]
    assert doc.sections[0].body == (
        "Ada Lovelace worked with Charles Babbage on the Analytical Engine [1].")
    assert doc.sections[1].body == (
        "The records give a mean birth year of 1803.0 (see the attached table).")
    assert len(doc.sections[1].artifacts) == 1
    assert doc.sources == [("Lovelace and Babbage", "https://w/ada"),
                           ("Analytical engine", "https://w/engine")]

    report = (run_dir / "report.md").read_text()
    assert report.startswith(f"# {TOPIC}\n")
    assert "## Background" in report and "## Computed profile" in report
    assert "[birth_years.csv](artifacts/s2_birth_years.csv)" in report
    assert "## Sources" in report
    assert "- [Lovelace and Babbage](https://w/ada)" in report
    assert (run_dir / "artifacts" / "s2_birth_years.csv").exists()
    assert (run_dir / "plan.txt").exists()

    trace = json.loads((run_dir / "sections" / "2" / "trace.json").read_text())
    assert trace["final_status"] == "passed"
    assert len(trace["iterations"]) == 2
    assert trace["iterations"][0]["verdict"] == "fail"

    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["sections"] == ["Background", "Computed profile"]
    assert manifest["artifact_count"] == 1
    assert manifest["source_count"] == 2


def test_run_research_is_byte_stable_across_runs(tmp_path):
    graph, store = organized(tmp_path)
    backend = FixtureSearchBackend(str(FIXTURES / "webcorpus"))
    reports = []
    for name in ("r1", "r2"):
        pl.run_research(research_task(tmp_path), graph, store, e2e_gateway(),
                        search_backend=backend, run_dir=str(tmp_path / name),
                        generated_at="2026-01-01T00:00:00Z")
        reports.append((tmp_path / name / "report.md").read_bytes())
    assert reports[0] == reports[1]


def test_run_research_output_does_not_depend_on_workers(tmp_path):
    graph, store = organized(tmp_path)
    backend = FixtureSearchBackend(str(FIXTURES / "webcorpus"))
    outputs = []
    for workers in (1, 8):
        run_dir = tmp_path / f"w{workers}"
        pl.run_research(research_task(tmp_path), graph, store, e2e_gateway(),
                        search_backend=backend, run_dir=str(run_dir),
                        generated_at="2026-01-01T00:00:00Z", limits=Limits(workers=workers))
        results = sorted((run_dir / "sections").glob("*/result.json"))
        outputs.append([(run_dir / "report.md").read_text()] + [
            p.read_text().replace(str(run_dir), "<run>") for p in results])
    assert len(outputs[0]) == 3  # the report and two sections
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("workers", [1, 8])
def test_every_model_call_goes_through_gateway_chat(tmp_path, workers):
    transcript = tmp_path / "t.jsonl"
    backend = MockChatBackend.from_script(json.loads((FIXTURES / "e2e_mock.json").read_text()))
    gw = LlmGateway(backend, MockEmbeddingBackend(), Transcript(str(transcript)))
    limits = Limits(workers=workers)
    graph, store, _ = pl.run_organization(organize_task(tmp_path),
                                          approved_proposal(gw, tmp_path), gw, limits=limits)
    pl.run_research(research_task(tmp_path), graph, store, gw,
                    search_backend=FixtureSearchBackend(str(FIXTURES / "webcorpus")),
                    run_dir=str(tmp_path / "run"), generated_at="2026-01-01T00:00:00Z",
                    limits=limits)
    rows = [json.loads(line) for line in transcript.read_text().splitlines()]
    requests = [row for row in rows if row["kind"] == "request"]
    assert len(requests) == len(backend.calls) > 5
    assert all(row["tag"] for row in requests)
    assert sorted(row["messages"][0]["content"] for row in requests) == sorted(backend.calls)


def test_run_research_reuses_cached_sections(tmp_path):
    graph, store = organized(tmp_path)
    backend = FixtureSearchBackend(str(FIXTURES / "webcorpus"))
    run_dir = str(tmp_path / "run")
    pl.run_research(research_task(tmp_path), graph, store, e2e_gateway(),
                    search_backend=backend, run_dir=run_dir,
                    generated_at="2026-01-01T00:00:00Z")
    first = (Path(run_dir) / "report.md").read_text()

    gw = e2e_gateway()
    pl.run_research(research_task(tmp_path), graph, store, gw,
                    search_backend=backend, run_dir=run_dir,
                    generated_at="2026-01-01T00:00:00Z")
    assert (Path(run_dir) / "report.md").read_text() == first
    calls = gw.chat_backend.calls
    assert not any("Write a Python script" in c for c in calls)
    assert not any("Summarize the following source" in c for c in calls)


def test_run_research_plan_failure_aborts(tmp_path):
    graph, store = organized(tmp_path)
    gw = mock_gateway({"rules": [
        {"match": "You are planning a research report",
         "responses": ["# S\n<begin_web_search>q"]}]})
    with pytest.raises(UnbalancedTags):
        pl.run_research(research_task(tmp_path), graph, store, gw,
                        run_dir=str(tmp_path / "run"))


def test_run_research_exhausted_cycle_leaves_caveat(tmp_path):
    graph, store = organized(tmp_path)
    gw = mock_gateway({"rules": [
        {"match": "You are planning a research report", "responses": [
            "# Numbers\n<begin_data_analysis>mean birth year of every person"
            "<end_data_analysis>"]},
        {"match": "List the topic entities", "responses": ["Ada Lovelace"]},
        {"match": "Write a Python script",
         "responses": ["```python\nprint(len(search_results))\n```"]},
        {"match": "Decide whether the analysis results satisfy",
         "responses": ["FAIL not the mean"]},
    ]})
    doc = pl.run_research(research_task(tmp_path), graph, store, gw,
                          run_dir=str(tmp_path / "run"))
    body = doc.sections[0].body
    assert "did not complete" in body
    assert "background material only" in body


def test_run_research_rerun_without_section_results_keeps_artifacts(tmp_path):
    graph, store = organized(tmp_path)
    backend = FixtureSearchBackend(str(FIXTURES / "webcorpus"))
    run_dir = tmp_path / "run"

    def research():
        return pl.run_research(research_task(tmp_path), graph, store, e2e_gateway(),
                               search_backend=backend, run_dir=str(run_dir),
                               generated_at="2026-01-01T00:00:00Z")

    research()
    first = (run_dir / "report.md").read_text()
    for result in run_dir.glob("sections/*/result.json"):
        result.unlink()
    doc = research()
    assert len(doc.sections[1].artifacts) == 1
    assert (run_dir / "report.md").read_text() == first
    assert "artifacts/s2_birth_years.csv" in first
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["artifact_count"] == 1

def test_run_research_keeps_each_requests_artifacts_apart(tmp_path):
    # two analysis requests in one section both write counts.csv
    graph, store = organized(tmp_path)
    # the two requests overlap, so each has its own codegen rule
    scripts = [{"match": f"Query: {query}", "responses": [
        f"```python\nopen('counts.csv', 'w').write('{n}')\nprint(len(search_results))\n```"]}
        for query, n in (("count every person", "first"), ("list every person", "second"))]
    gw = mock_gateway({"rules": [
        {"match": "You are planning a research report", "responses": [
            "# Numbers\n<begin_data_analysis>count every person<end_data_analysis>\n"
            "<begin_data_analysis>list every person<end_data_analysis>"]},
        {"match": "List the topic entities", "responses": ["Ada Lovelace"]},
        {"match": "Decide whether the analysis results satisfy", "responses": ["PASS"]},
        *scripts,
    ]})
    run_dir = tmp_path / "run"
    doc = pl.run_research(research_task(tmp_path), graph, store, gw, run_dir=str(run_dir))
    artifacts = doc.sections[0].artifacts
    assert [Path(a).read_text() for a in artifacts] == ["first", "second"]
    section = run_dir / "sections" / "1"
    assert [Path(a).relative_to(section).parts[0] for a in artifacts] == ["work", "work_1"]
    copied = run_dir / "artifacts"
    assert (copied / "s1_counts.csv").read_text() == "first"
    assert (copied / "s1_1_counts.csv").read_text() == "second"


def test_run_research_reports_only_the_passing_iterations_files(tmp_path):
    # the first script's chart.csv is rejected, the second's passes
    graph, store = organized(tmp_path)
    gw = mock_gateway({"rules": [
        {"match": "You are planning a research report", "responses": [
            "# Numbers\n<begin_data_analysis>count every person<end_data_analysis>"]},
        {"match": "List the topic entities", "responses": ["Ada Lovelace"]},
        {"match": "Write a Python script", "responses": [
            f"```python\nopen('chart.csv', 'w').write('{text}')\nprint(len(search_results))\n```"
            for text in ("rejected", "passed")]},
        {"match": "Decide whether the analysis results satisfy",
         "responses": ["FAIL: the count is wrong", "PASS"]},
    ]})
    run_dir = tmp_path / "run"
    doc = pl.run_research(research_task(tmp_path), graph, store, gw, run_dir=str(run_dir))
    work = run_dir / "sections" / "1" / "work"
    assert doc.sections[0].artifacts == [str(work / "iter2" / "chart.csv")]
    copied = run_dir / "artifacts"
    assert [p.name for p in copied.iterdir()] == ["s1_chart.csv"]
    assert (copied / "s1_chart.csv").read_text() == "passed"
    trace = json.loads((run_dir / "sections" / "1" / "trace.json").read_text())
    assert trace["artifacts"] == [str(work / "iter2" / "chart.csv")]
    assert [it["execution"]["produced_files"] for it in trace["iterations"]] == \
        [[["chart.csv", "table"]]] * 2


def test_run_research_without_search_backend_notes_the_gap(tmp_path):
    graph, store = organized(tmp_path)
    gw = mock_gateway({"rules": [
        {"match": "You are planning a research report", "responses": [
            "# Only web\n<begin_web_search>anything<end_web_search>"]},
    ]})
    doc = pl.run_research(research_task(tmp_path), graph, store, gw,
                          run_dir=str(tmp_path / "run"))
    assert "No search backend" in doc.sections[0].body


def test_run_research_output_does_not_depend_on_call_order(tmp_path):
    # the first request job and the first revise are overtaken by later ones
    graph, store = organized(tmp_path)
    backend = FixtureSearchBackend(str(FIXTURES / "webcorpus"))
    held = HoldFirst(e2e_gateway().chat_backend, {
        "requests": ("Summarize the following source", "Write a Python script"),
        "revises": ("Polish the section",)})
    outputs = []
    for workers, gateway in ((1, e2e_gateway()),
                             (8, LlmGateway(held, MockEmbeddingBackend(), Transcript(None)))):
        run_dir = tmp_path / f"w{workers}"
        pl.run_research(research_task(tmp_path), graph, store, gateway,
                        search_backend=backend, run_dir=str(run_dir),
                        generated_at="2026-01-01T00:00:00Z", limits=Limits(workers=workers))
        results = sorted((run_dir / "sections").glob("*/result.json"))
        outputs.append([(run_dir / "report.md").read_bytes()] + [
            p.read_bytes().replace(bytes(run_dir), b"<run>") for p in results])
    assert held.reordered == {"requests", "revises"}
    assert len(outputs[0]) == 3
    assert outputs[0] == outputs[1]


def test_run_research_overlaps_requests_and_revises_within_workers(tmp_path):
    graph, store = organized(tmp_path)
    plan = "".join(f"# S{n}\n<begin_web_search>Ada Lovelace {n}<end_web_search>\n"
                   f"<begin_web_search>analytical engine {n}<end_web_search>\n"
                   for n in range(1, 5))
    chat = InFlight(MockChatBackend.from_script({"rules": [
        {"match": "You are planning a research report", "responses": [plan]},
        {"match": "Decide whether the draft sufficiently", "responses": ["PASS"]},
        {"match": "Polish the section", "responses": ["polished"]},
    ], "default_response": "text"}))
    gateway = LlmGateway(chat, MockEmbeddingBackend(), Transcript(None))
    doc = pl.run_research(research_task(tmp_path), graph, store, gateway,
                          search_backend=FixtureSearchBackend(str(FIXTURES / "webcorpus")),
                          run_dir=str(tmp_path / "run"), limits=Limits(workers=3))
    assert [s.body for s in doc.sections] == ["polished"] * 4
    revises = [n for prompt, _, _, n in chat.spans if "Polish the section" in prompt]
    requests = [n for prompt, _, _, n in chat.spans
                if "Polish the section" not in prompt and "planning a research" not in prompt]
    # per section: one hit and two hits summarized, each request drafted and checked
    assert len(revises) == 4 and len(requests) == 4 * (3 + 4)
    assert max(n for *_, n in chat.spans) <= 3
    assert max(requests) >= 2 and max(revises) >= 2


def test_run_research_overlaps_a_sections_analysis_and_web_requests(tmp_path):
    graph, store = organized(tmp_path)
    chat = InFlight(MockChatBackend.from_script({"rules": [
        {"match": "You are planning a research report", "responses": [
            "# Both\n<begin_data_analysis>mean birth year of every person<end_data_analysis>\n"
            "<begin_web_search>Who collaborated on the Analytical Engine?<end_web_search>"]},
        {"match": "List the topic entities", "responses": ["Ada Lovelace"]},
        {"match": "Write a Python script", "responses": ["```python\nprint(1)\n```"]},
        {"match": "Decide whether the analysis results satisfy", "responses": ["PASS"]},
        {"match": "Decide whether the draft sufficiently", "responses": ["PASS"]},
    ], "default_response": "text"}))
    gateway = LlmGateway(chat, MockEmbeddingBackend(), Transcript(None))
    pl.run_research(research_task(tmp_path), graph, store, gateway,
                    search_backend=FixtureSearchBackend(str(FIXTURES / "webcorpus")),
                    run_dir=str(tmp_path / "run"), limits=Limits(workers=8))
    analysis_marks = ("List the topic entities", "Write a Python script",
                      "Decide whether the analysis results")
    web_marks = ("Summarize the following source", "Write the answer to the research",
                 "Decide whether the draft")

    def extent(marks):
        spans = [(s, e) for p, s, e, _ in chat.spans if any(m in p for m in marks)]
        return min(s for s, _ in spans), max(e for _, e in spans)

    (a_start, a_end), (w_start, w_end) = extent(analysis_marks), extent(web_marks)
    assert a_start < w_end and w_start < a_end


class _NumberedHits:
    """`limit` hits per query, each with its own URL under the query."""

    def search(self, query, limit=5):
        slug = query.replace(" ", "-")
        return [SearchHit(f"{query} {i}", f"https://w/{slug}/{i}", f"page {i} on {query}")
                for i in range(limit)]


def test_run_research_caps_calls_in_flight_and_overlaps_a_rounds_summaries(tmp_path):
    graph, store = organized(tmp_path)
    plan = "".join(f"# S{n}\n<begin_web_search>topic {n}<end_web_search>\n" for n in range(1, 5))
    chat = InFlight(MockChatBackend.from_script({"rules": [
        {"match": "You are planning a research report", "responses": [plan]},
        {"match": "Decide whether the draft sufficiently", "responses": ["PASS"]},
    ], "default_response": "text"}))
    gateway = LlmGateway(chat, MockEmbeddingBackend(), Transcript(None))
    pl.run_research(research_task(tmp_path), graph, store, gateway, search_backend=_NumberedHits(),
                    run_dir=str(tmp_path / "run"), limits=Limits(workers=3))
    summaries: dict[str, list[tuple[float, float]]] = {}
    for prompt, start, end, _ in chat.spans:
        if "Summarize the following source" in prompt:
            request = re.search(r"https://w/([^/]+)/", prompt).group(1)
            summaries.setdefault(request, []).append((start, end))
    assert sorted(len(spans) for spans in summaries.values()) == [3] * 4
    assert max(n for *_, n in chat.spans) <= 3

    def most_at_once(spans):
        return max(sum(s < end and start < e for s, e in spans) for start, end in spans)

    assert max(most_at_once(spans) for spans in summaries.values()) >= 2


def test_run_research_caps_analysis_cycles_in_flight(tmp_path, monkeypatch):
    graph, store = organized(tmp_path)
    plan = "".join(f"# S{n}\n<begin_data_analysis>birth year of person {n}<end_data_analysis>\n"
                   for n in range(1, 6))
    chat = InFlight(MockChatBackend.from_script({"rules": [
        {"match": "You are planning a research report", "responses": [plan]},
        {"match": "List the topic entities", "responses": ["Ada Lovelace"]},
        {"match": "Write a Python script", "responses": [
            "```python\nprint(len(search_results))\n```"]},
        {"match": "Decide whether the analysis results satisfy", "responses": ["PASS"]},
    ], "default_response": "text"}))
    cycle, lock = rs.run_computation_cycle, threading.Lock()
    running, peak = [0], [0]

    def counted(*args, **kwargs):
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        try:
            return cycle(*args, **kwargs)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(rs, "run_computation_cycle", counted)
    gateway = LlmGateway(chat, MockEmbeddingBackend(), Transcript(None))
    run_dir = tmp_path / "run"
    pl.run_research(research_task(tmp_path), graph, store, gateway,
                    run_dir=str(run_dir), limits=Limits(workers=2))
    traces = [json.loads(p.read_text()) for p in run_dir.glob("sections/*/trace.json")]
    assert [t["final_status"] for t in traces] == ["passed"] * 5
    assert peak[0] == 2


def test_run_research_at_one_worker_starts_no_thread(tmp_path, monkeypatch):
    graph, store = organized(tmp_path)
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: (started.append(thread.name), start(thread))[1])
    transcript = tmp_path / "transcript.jsonl"
    gateway = LlmGateway(e2e_gateway().chat_backend, MockEmbeddingBackend(),
                         Transcript(str(transcript)))
    pl.run_research(research_task(tmp_path), graph, store, gateway,
                    search_backend=FixtureSearchBackend(str(FIXTURES / "webcorpus")),
                    run_dir=str(tmp_path / "run"), limits=Limits(workers=1))
    assert started == []
    rows = [json.loads(line) for line in transcript.read_text().splitlines()]
    assert [row["tag"] for row in rows if row["kind"] == "request"] == [
        "plan", "summarize", "summarize", "draft", "sufficiency",
        "topic-ner", "codegen", "codegen", "evaluate", "merge", "revise", "revise"]


def _lookups_built(graph, store) -> bool:
    """The graph's concept-search index and the store's name and
    inbound-reference indexes exist."""
    return rs._concept_index in graph._views and {"_names", "_inbound"} <= store._views.keys()


class _PlanWaitsFor(ChatBackend):
    """Holds the plan reply until ready() holds or wait_s has passed, and
    records whether ready() held when the reply returned."""

    def __init__(self, inner, ready, wait_s: float = 5.0):
        self.inner, self.ready, self.wait_s = inner, ready, wait_s
        self.ready_at_reply: bool | None = None

    def complete(self, messages, config):
        if "You are planning a research report" in prompt_of(messages):
            deadline = time.monotonic() + self.wait_s
            while not self.ready() and time.monotonic() < deadline:
                time.sleep(0.005)
            self.ready_at_reply = self.ready()
        return self.inner.complete(messages, config)


def test_run_research_builds_the_analysis_lookups_while_the_plan_call_is_out(tmp_path):
    graph, store = organized(tmp_path)
    assert not _lookups_built(graph, store)
    chat = _PlanWaitsFor(e2e_gateway().chat_backend, lambda: _lookups_built(graph, store))
    run_dir = tmp_path / "run"
    pl.run_research(research_task(tmp_path), graph, store,
                    LlmGateway(chat, MockEmbeddingBackend(), Transcript(None)),
                    search_backend=FixtureSearchBackend(str(FIXTURES / "webcorpus")),
                    run_dir=str(run_dir), limits=Limits(workers=8))
    assert chat.ready_at_reply is True
    assert (run_dir / "report.md").exists()


@pytest.mark.parametrize("workers", [1, 8])
def test_run_research_sends_the_plan_call_first(tmp_path, workers):
    graph, store = organized(tmp_path)
    script = json.loads((FIXTURES / "e2e_mock.json").read_text())
    plan_reply, = [rule["responses"][0] for rule in script["rules"]
                   if rule["match"] == "You are planning a research report"]
    gateway = e2e_gateway()
    run_dir = tmp_path / "run"
    pl.run_research(research_task(tmp_path), graph, store, gateway,
                    search_backend=FixtureSearchBackend(str(FIXTURES / "webcorpus")),
                    run_dir=str(run_dir), limits=Limits(workers=workers))
    assert "You are planning a research report" in gateway.chat_backend.calls[0]
    assert (run_dir / "plan.txt").read_text() == plan_reply


def test_run_research_plan_outage_leaves_no_thread_and_writes_no_file(tmp_path, monkeypatch):
    graph, store = organized(tmp_path)
    add = rs.InvertedIndex.add

    def slow_add(self, doc_id, text):  # a build still running when the plan call fails
        time.sleep(0.01)
        add(self, doc_id, text)

    monkeypatch.setattr(rs.InvertedIndex, "add", slow_add)
    run_dir = tmp_path / "run"
    before = threading.enumerate()
    with pytest.raises(BackendUnavailable):
        pl.run_research(research_task(tmp_path), graph, store, outage_gateway(),
                        run_dir=str(run_dir), limits=Limits(workers=8))
    assert threading.enumerate() == before
    assert list(run_dir.rglob("*")) == []


def test_run_research_at_one_worker_builds_the_lookups_right_after_the_plan_call(
        tmp_path, monkeypatch):
    graph, store = organized(tmp_path)
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: (started.append(thread.name), start(thread))[1])
    web_only = mock_gateway({"rules": [
        {"match": "You are planning a research report", "responses": [
            "# Only web\n<begin_web_search>analytical engine<end_web_search>"]}]})
    chat = _PlanWaitsFor(web_only.chat_backend, lambda: _lookups_built(graph, store), wait_s=0)
    pl.run_research(research_task(tmp_path), graph, store,
                    LlmGateway(chat, MockEmbeddingBackend(), Transcript(None)),
                    search_backend=FixtureSearchBackend(str(FIXTURES / "webcorpus")),
                    run_dir=str(tmp_path / "run"), limits=Limits(workers=1))
    assert chat.ready_at_reply is False
    assert _lookups_built(graph, store)
    assert started == []


@pytest.mark.parametrize("workers", [1, 8])
def test_run_research_lookup_build_error_propagates_and_writes_no_file(
        tmp_path, monkeypatch, workers):
    graph, store = organized(tmp_path)

    def broken_build(graph, store):
        raise RuntimeError("lookup build failed")

    monkeypatch.setattr(rs, "build_lookups", broken_build)
    gateway = e2e_gateway()
    run_dir = tmp_path / "run"
    with pytest.raises(RuntimeError, match="lookup build failed"):
        pl.run_research(research_task(tmp_path), graph, store, gateway,
                        run_dir=str(run_dir), limits=Limits(workers=workers))
    assert len(gateway.chat_backend.calls) == 1  # the plan call, which succeeded
    assert list(run_dir.rglob("*")) == []


def test_run_research_reruns_only_uncached_sections(tmp_path):
    graph, store = organized(tmp_path)
    backend = FixtureSearchBackend(str(FIXTURES / "webcorpus"))
    run_dir = tmp_path / "run"

    def research(gateway):
        pl.run_research(research_task(tmp_path), graph, store, gateway,
                        search_backend=backend, run_dir=str(run_dir),
                        generated_at="2026-01-01T00:00:00Z")
        return (run_dir / "report.md").read_bytes()

    first = research(e2e_gateway())
    (run_dir / "sections" / "2" / "result.json").unlink()
    gateway = e2e_gateway()
    assert research(gateway) == first
    calls = gateway.chat_backend.calls
    # section 1 (web only, served by its result.json): no request and no merge call
    assert not any("Who collaborated on the Analytical Engine?" in c for c in calls)
    assert not any("Merge the computed findings" in c and "Background" in c for c in calls)
    # section 2 ran again
    assert any("mean birth year of every person on record" in c for c in calls)
    assert (run_dir / "sections" / "2" / "result.json").exists()


class _Marked(ChatBackend):
    """Appends "plan" to a shared event list for each plan call."""

    def __init__(self, inner, events: list):
        self.inner, self.events = inner, events

    def complete(self, messages, config):
        if "You are planning a research report" in prompt_of(messages):
            self.events.append("plan")
        return self.inner.complete(messages, config)


@pytest.fixture
def sandbox_events(monkeypatch):
    """A sandbox server not yet running, whose process launches ("launch") and
    scripts ("script") land in the list this yields."""
    events: list[str] = []
    server = rs._SandboxServer()
    monkeypatch.setattr(rs, "_SANDBOX", server)
    popen, execute = rs.subprocess.Popen, rs.execute_script

    def launch(*args, **kwargs):
        events.append("launch")
        return popen(*args, **kwargs)

    def script(*args, **kwargs):
        events.append("script")
        return execute(*args, **kwargs)

    monkeypatch.setattr(rs.subprocess, "Popen", launch)
    monkeypatch.setattr(rs, "execute_script", script)
    yield events
    server.close()


@pytest.mark.parametrize("workers", [1, 8])
def test_run_research_starts_the_sandbox_after_the_plan_call(tmp_path, sandbox_events, workers):
    graph, store = organized(tmp_path)
    gateway = LlmGateway(_Marked(e2e_gateway().chat_backend, sandbox_events),
                         MockEmbeddingBackend(), Transcript(None))
    pl.run_research(research_task(tmp_path), graph, store, gateway,
                    search_backend=FixtureSearchBackend(str(FIXTURES / "webcorpus")),
                    run_dir=str(tmp_path / "run"), limits=Limits(workers=workers))
    assert sandbox_events[:3] == ["plan", "launch", "script"]
    assert sandbox_events.count("launch") == 1


def test_run_research_starts_no_sandbox_for_web_requests(tmp_path, sandbox_events):
    graph, store = organized(tmp_path)
    gw = mock_gateway({"rules": [
        {"match": "You are planning a research report", "responses": [
            "# Only web\n<begin_web_search>anything<end_web_search>"]},
    ]})
    pl.run_research(research_task(tmp_path), graph, store, gw, run_dir=str(tmp_path / "run"))
    assert sandbox_events == []


def test_run_research_starts_no_sandbox_when_the_plan_fails(tmp_path, sandbox_events):
    graph, store = organized(tmp_path)
    gw = mock_gateway({"rules": [
        {"match": "You are planning a research report",
         "responses": ["# S\n<begin_data_analysis>q"]}]})
    with pytest.raises(UnbalancedTags):
        pl.run_research(research_task(tmp_path), graph, store, gw,
                        run_dir=str(tmp_path / "run"))
    assert sandbox_events == []


def test_run_research_starts_no_sandbox_for_a_cached_rerun(tmp_path, sandbox_events):
    graph, store = organized(tmp_path)
    backend = FixtureSearchBackend(str(FIXTURES / "webcorpus"))
    run_dir = str(tmp_path / "run")
    for _ in range(2):
        pl.run_research(research_task(tmp_path), graph, store, e2e_gateway(),
                        search_backend=backend, run_dir=run_dir)
        rs._SANDBOX.close()  # so a start on the rerun would launch a process again
    assert sandbox_events.count("launch") == 1


class _WebDown(ChatBackend):
    def __init__(self, inner):
        self.inner = inner

    def complete(self, messages, config):
        if "Summarize the following source" in prompt_of(messages):
            raise BackendUnavailable("chat endpoint unreachable")
        return self.inner.complete(messages, config)


@pytest.mark.parametrize("workers", [1, 8])
def test_run_research_request_error_propagates_and_writes_no_section(tmp_path, workers):
    graph, store = organized(tmp_path)
    gateway = LlmGateway(_WebDown(e2e_gateway().chat_backend),
                         MockEmbeddingBackend(), Transcript(None))
    run_dir = tmp_path / "run"
    with pytest.raises(BackendUnavailable, match="unreachable"):
        pl.run_research(research_task(tmp_path), graph, store, gateway,
                        search_backend=FixtureSearchBackend(str(FIXTURES / "webcorpus")),
                        run_dir=str(run_dir), limits=Limits(workers=workers))
    assert not list(run_dir.glob("sections/*/result.json"))
    assert not (run_dir / "report.md").exists()


# -- report assembly -------------------------------------------------------------------


def test_assemble_report_copies_artifacts_and_dedups_sources(tmp_path):
    chart = tmp_path / "plot.png"
    chart.write_bytes(b"\x89PNG fake")
    doc = pl.ReportDocument(
        title="T",
        sections=[pl.Section("A", "Body A", [str(chart)]),
                  pl.Section("B", "Body B", [])],
        sources=[("S1", "https://u/1"), ("S2", "https://u/2")],
        generated_at="2026-01-01T00:00:00Z")
    path = pl.assemble_report(doc, str(tmp_path / "out"))
    text = Path(path).read_text()
    assert "![plot.png](artifacts/s1_plot.png)" in text
    assert (tmp_path / "out" / "artifacts" / "s1_plot.png").read_bytes() == b"\x89PNG fake"
    assert text.index("- [S1](https://u/1)") < text.index("- [S2](https://u/2)")


def test_assemble_report_missing_artifact(tmp_path):
    doc = pl.ReportDocument("T", [pl.Section("A", "b", ["/nope/file.png"])])
    with pytest.raises(DanglingArtifact):
        pl.assemble_report(doc, str(tmp_path / "out"))


def test_assemble_report_requires_sections(tmp_path):
    with pytest.raises(ValueError):
        pl.assemble_report(pl.ReportDocument("T"), str(tmp_path))


def test_assemble_report_without_sources_says_none(tmp_path):
    doc = pl.ReportDocument("T", [pl.Section("A", "body", [])])
    path = pl.assemble_report(doc, str(tmp_path / "out"))
    assert "- (none)" in Path(path).read_text()


# -- config ------------------------------------------------------------------------------


def test_load_config_from_env(tmp_path, monkeypatch):
    config = {"limits": {"max_iterations": 5, "wall_seconds": 10}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    monkeypatch.setenv(pl.ENV_CONFIG, str(path))
    loaded = pl.load_config()
    assert loaded == {"limits": Limits(max_iterations=5, wall_seconds=10)}
    cfg = loaded["limits"]
    assert cfg.max_iterations == 5 and cfg.wall_seconds == 10


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"llms": {}}))
    with pytest.raises(SchemaViolation):
        pl.load_config(str(path))
    path.write_text(json.dumps({"limits": {"walls": 1}}))
    with pytest.raises(SchemaViolation):
        pl.load_config(str(path))


def test_load_config_rejects_the_defaults_key(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"defaults": {}}))
    with pytest.raises(SchemaViolation, match=r"unknown config keys: \['defaults'\]"):
        pl.load_config(str(path))


def test_load_config_keeps_checked_endpoint_sections(tmp_path):
    config = {"llm": {"endpoint": "http://localhost:1", "api_key": "k", "model": "m"},
              "embed": {"model": "e"}, "search": {"endpoint": "http://localhost:2"}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert pl.load_config(str(path)) == {**config, "limits": Limits()}


def test_limits_workers_is_a_known_key_and_must_be_positive():
    config = {"limits": {"workers": 3, "max_iterations": 2}}
    assert Limits.from_config(config).max_iterations == 2
    assert Limits.from_config(config).workers == 3
    assert Limits.from_config({}).workers == Limits.workers
    for bad in (0, -2, 1.5, True, "4"):
        with pytest.raises(SchemaViolation):
            Limits.from_config({"limits": {"workers": bad}})


def test_load_config_missing_env_means_defaults(monkeypatch):
    monkeypatch.delenv(pl.ENV_CONFIG, raising=False)
    assert pl.load_config() == {"limits": Limits()}
    cfg = Limits.from_config({})
    assert cfg.max_iterations == 3


@pytest.mark.parametrize("key, bad", [
    ("max_iterations", "2"), ("max_iterations", 0), ("max_iterations", 2.0),
    ("hops", -1), ("hops", True), ("wall_seconds", "30"), ("wall_seconds", 0),
    ("wall_seconds", -1.5), ("wall_seconds", float("nan")), ("wall_seconds", False),
    ("output_bytes", "x"), ("search_limit", "5"), ("max_rounds", 0),
    ("search_hits", "3"), ("workers", 1.5),
])
def test_every_limit_is_checked_for_type_and_range(key, bad):
    config = {"limits": {key: bad}}
    with pytest.raises(SchemaViolation, match=f"limits.{key}"):
        Limits.from_config(config)


def test_limits_accept_their_smallest_values():
    config = {"limits": {"max_iterations": 1, "hops": 0, "wall_seconds": 0.5,
                         "output_bytes": 1, "search_limit": 1, "max_rounds": 1,
                         "search_hits": 1, "workers": 1}}
    cfg = Limits.from_config(config)
    assert (cfg.max_iterations, cfg.hops, cfg.wall_seconds) == (1, 0, 0.5)
    assert cfg.workers == 1
    assert Limits.from_config({"limits": {"wall_seconds": 7}}).wall_seconds == 7


def test_readme_limits_table_lists_every_limit_with_its_default_and_minimum():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| (.+?) \| (.+?) \|$", readme, re.MULTILINE)
    table = {key: (kind, default) for key, kind, default in rows}
    expected = {f.name: ("number (integer or float) > 0" if f.metadata["minimum"] is None
                         else f"integer >= {f.metadata['minimum']}", str(f.default))
                for f in dataclasses.fields(Limits)}
    assert table == expected


class _ScopedFinder(ast.NodeVisitor):
    """Flags each node `hit` accepts with its enclosing class and function."""

    def __init__(self):
        self.scope: list[str] = []
        self.found: list[tuple[str, int]] = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def hit(self, node: ast.AST) -> bool:
        raise NotImplementedError

    def generic_visit(self, node: ast.AST):
        if self.hit(node):
            self.found.append((".".join(self.scope), node.lineno))
        super().generic_visit(node)


class _RawLimitsFinder(_ScopedFinder):
    """Flags each `.get("limits", ...)` call."""

    def hit(self, node: ast.AST) -> bool:
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and bool(node.args)
                and isinstance(node.args[0], ast.Constant) and node.args[0].value == "limits")


def _flagged_in_src(finder_class, allowed: tuple[str, str]) -> list[str]:
    """Each `module:line in scope` of kdr's sources that a `finder_class`
    flags, except in the one (module, scope) allowed."""
    flagged = []
    for path in sorted(Path(pl.__file__).parent.glob("*.py")):
        finder = finder_class()
        finder.visit(ast.parse(path.read_text(encoding="utf-8")))
        flagged += [f"{path.name}:{line} in {scope or '<module>'}"
                    for scope, line in finder.found if (path.name, scope) != allowed]
    return flagged


def test_no_module_but_the_limits_record_reads_the_raw_limits_section():
    assert _flagged_in_src(_RawLimitsFinder, ("reasoning.py", "Limits.from_config")) == []


def test_raw_limits_finder_flags_each_get_of_the_section():
    source = '''
def f(config, limits):
    config.get("limits", {})
    config.get("limits")
    config["limits"]
    config.get("llm", {})
    limits.get("workers", 8)
'''
    finder = _RawLimitsFinder()
    finder.visit(ast.parse(source))
    assert finder.found == [("f", 3), ("f", 4)]


class _ThreadStartFinder(_ScopedFinder):
    """Flags each `threading.Thread`, each import of `Thread` from threading,
    and each `ThreadPoolExecutor`."""

    def hit(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr == "ThreadPoolExecutor" or (
                node.attr == "Thread" and isinstance(node.value, ast.Name)
                and node.value.id == "threading")
        if isinstance(node, ast.Name):
            return node.id == "ThreadPoolExecutor"
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            return "ThreadPoolExecutor" in names or (node.module == "threading" and "Thread" in names)
        return False


def test_no_module_but_ordered_map_starts_threads():
    assert _flagged_in_src(_ThreadStartFinder, ("reasoning.py", "ordered_map")) == []


def test_thread_start_finder_flags_each_way_to_name_a_thread():
    source = '''
import threading
from threading import Thread, Lock
from concurrent.futures import ThreadPoolExecutor
import concurrent.futures
def f():
    threading.Thread(target=f).start()
    ThreadPoolExecutor(2)
    concurrent.futures.ThreadPoolExecutor(2)
    threading.Lock()
    threading.BoundedSemaphore(2)
'''
    finder = _ThreadStartFinder()
    finder.visit(ast.parse(source))
    assert finder.found == [("", 3), ("", 4), ("f", 7), ("f", 8), ("f", 9)]


def test_run_research_unwritable_run_dir_fails_before_model_calls(tmp_path):
    graph, store = organized(tmp_path)
    (tmp_path / "file").write_text("not a directory")
    gateway = e2e_gateway()
    with pytest.raises(IoFailure, match="run directory"):
        pl.run_research(research_task(tmp_path), graph, store, gateway,
                        run_dir=str(tmp_path / "file" / "run"))
    assert gateway.chat_backend.calls == []


def test_run_organization_unwritable_run_dir_fails_before_model_calls(tmp_path):
    proposal = approved_proposal(e2e_gateway(), tmp_path)
    (tmp_path / "file").write_text("not a directory")
    gateway = e2e_gateway()
    with pytest.raises(IoFailure, match="run directory"):
        pl.run_organization(organize_task(tmp_path), proposal, gateway,
                            run_dir=str(tmp_path / "file" / "run"))
    assert gateway.chat_backend.calls == []
    assert not (tmp_path / "kb.jsonl").exists()


def test_proposal_with_a_non_string_type_is_unparseable(tmp_path):
    bad = json.dumps({"namespaces": {"NS": [
        {"name": "Person", "kind": "entity", "parent": "Entity",
         "attributes": [{"name": "born", "type": 5}]}]}})
    with pytest.raises(UnparseableProposal, match="'type' must be a string"):
        pl.propose_ontology(TOPIC, "s", mock_gateway(default_response=bad),
                            review_path=str(tmp_path / "p.json"))
    assert json.loads((tmp_path / "p.json.raw").read_text()) == json.loads(bad)
    assert not (tmp_path / "p.json").exists()
