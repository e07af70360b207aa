"""Organization and research orchestration over the scripted fixture corpus."""

from __future__ import annotations

import json
import re
import threading
import time
from pathlib import Path

import pytest

from kdr import knowledge_store as ks
from kdr import ontology as onto
from kdr import pipeline as pl
from kdr.errors import (
    BackendUnavailable,
    DanglingArtifact,
    IoFailure,
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
from kdr.websearch import FixtureSearchBackend

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
    with pytest.raises(ValueError):
        pl.ResearchTask("", "organize", corpus_path="x")
    with pytest.raises(ValueError):
        pl.ResearchTask("t", "summarize")
    with pytest.raises(ValueError):
        pl.ResearchTask("t", "organize")
    with pytest.raises(ValueError):
        pl.ResearchTask("t", "research")


# -- proposal and review gate ------------------------------------------------------


def test_propose_ontology_writes_review_file(tmp_path):
    gw = e2e_gateway()
    proposal = pl.propose_ontology(TOPIC, "sample", gw,
                                   review_path=str(tmp_path / "p.json"))
    assert proposal.status == "proposed"
    assert proposal.concept_count == 2
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
    with pytest.raises(FileNotFoundError):
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
                            workers=workers)
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
    call fails and passage 7 imports nothing."""

    def complete(self, messages, config):
        prompt = messages[-1].content
        n = int(re.search(r"Person (\d+) was born", prompt).group(1))
        time.sleep((12 - n) * 0.002)
        if n == 4:
            raise BackendUnavailable("passage 4 unreachable")
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
        _, store, manifest = pl.run_organization(task, proposal, gateway, workers=workers)
        manifests.append(manifest)
    assert manifests[0] == manifests[1]
    assert [e["document"] for e in manifests[0]["errors"]] == ["d04.txt", "d07.txt"]
    assert "passage 4 unreachable" in manifests[1]["errors"][0]["error"]
    assert manifests[1]["stored_objects"] == 10
    assert (tmp_path / "kb1.jsonl").read_bytes() == (tmp_path / "kb8.jsonl").read_bytes()


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
    graph, notes = pl._merge_proposal_into_graph(base, incoming, gw)
    assert graph.parents["B.Animal"] == "A.Creature"
    assert any("aligned under A.Creature" in n for n in notes)


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
                        generated_at="2026-01-01T00:00:00Z", workers=workers)
        results = sorted((run_dir / "sections").glob("*/result.json"))
        outputs.append([(run_dir / "report.md").read_text()] + [
            p.read_text().replace(str(run_dir), "<run>") for p in results])
    assert len(outputs[0]) == 3  # the report and two sections
    assert outputs[0] == outputs[1]


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


def test_run_research_keeps_each_requests_artifacts_apart(tmp_path):
    # two analysis requests in one section both write counts.csv
    graph, store = organized(tmp_path)
    scripts = [f"```python\nopen('counts.csv', 'w').write('{n}')\n"
               f"print(len(search_results))\n```" for n in ("first", "second")]
    gw = mock_gateway({"rules": [
        {"match": "You are planning a research report", "responses": [
            "# Numbers\n<begin_data_analysis>count every person<end_data_analysis>\n"
            "<begin_data_analysis>list every person<end_data_analysis>"]},
        {"match": "List the topic entities", "responses": ["Ada Lovelace"]},
        {"match": "Write a Python script", "responses": scripts},
        {"match": "Decide whether the analysis results satisfy", "responses": ["PASS"]},
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


def test_run_research_without_search_backend_notes_the_gap(tmp_path):
    graph, store = organized(tmp_path)
    gw = mock_gateway({"rules": [
        {"match": "You are planning a research report", "responses": [
            "# Only web\n<begin_web_search>anything<end_web_search>"]},
    ]})
    doc = pl.run_research(research_task(tmp_path), graph, store, gw,
                          run_dir=str(tmp_path / "run"))
    assert "No search backend" in doc.sections[0].body


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
    assert loaded == config
    cfg = pl.cycle_config_from(loaded)
    assert cfg.max_iterations == 5 and cfg.wall_seconds == 10


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"llms": {}}))
    with pytest.raises(SchemaViolation):
        pl.load_config(str(path))
    path.write_text(json.dumps({"limits": {"walls": 1}}))
    with pytest.raises(SchemaViolation):
        pl.cycle_config_from(pl.load_config(str(path)))


def test_limits_workers_is_a_known_key_and_must_be_positive():
    config = {"limits": {"workers": 3, "max_iterations": 2}}
    assert pl.cycle_config_from(config).max_iterations == 2
    assert pl.workers_from(config) == 3
    assert pl.workers_from({}) == pl.DEFAULT_WORKERS
    for bad in (0, -2, 1.5, True, "4"):
        with pytest.raises(SchemaViolation):
            pl.workers_from({"limits": {"workers": bad}})


def test_load_config_missing_env_means_defaults(monkeypatch):
    monkeypatch.delenv(pl.ENV_CONFIG, raising=False)
    assert pl.load_config() == {}
    cfg = pl.cycle_config_from({})
    assert cfg.max_iterations == 3
