"""Exit codes and JSON output of the command-line surface."""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kdr import cli
from kdr import errors
from kdr import knowledge_store as ks
from kdr import ontology as onto
from kdr.llm_gateway import ChatBackend, LlmGateway, MockEmbeddingBackend, Transcript

FIXTURES = Path(__file__).parent / "fixtures"
E2E_MOCK = str(FIXTURES / "e2e_mock.json")


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def organize(capsys, tmp_path):
    kb = str(tmp_path / "kb.jsonl")
    rc, out, err = run(capsys, "organize", "--topic", "Early computing",
                       "--corpus", str(FIXTURES / "corpus"), "--kb", kb,
                       "--auto-approve", "--mock", E2E_MOCK)
    assert rc == 0, err
    return kb, json.loads(out)


# -- parser basics -------------------------------------------------------------------


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0


def test_missing_command_is_user_error(capsys):
    rc, _, err = run(capsys)
    assert rc == 1


def test_unknown_flag_is_user_error(capsys):
    rc, _, err = run(capsys, "kb", "stats", "--kb", "x", "--bogus")
    assert rc == 1
    assert "bogus" in err



def test_importing_the_cli_leaves_numpy_unloaded():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, kdr.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"

# -- organize ------------------------------------------------------------------------


def test_organize_auto_approve_builds_kb(capsys, tmp_path):
    kb, manifest = organize(capsys, tmp_path)
    assert manifest["documents"] == 2
    assert manifest["stored_objects"] == 3
    assert Path(kb).exists()
    assert Path(f"{kb}.ontology.json").exists()
    assert Path(f"{kb}.proposal.json").exists()


def test_organize_auto_approve_parses_its_proposal_once(capsys, tmp_path, monkeypatch):
    documents = []
    parse = onto.graph_from_document
    monkeypatch.setattr(onto, "graph_from_document",
                        lambda document: documents.append(document) or parse(document))
    kb, _ = organize(capsys, tmp_path)
    assert documents == [json.loads(Path(f"{kb}.proposal.json").read_text())]


def test_organize_during_an_outage_exits_two_and_keeps_the_kb(capsys, tmp_path, monkeypatch):
    kb, _ = organize(capsys, tmp_path)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}

    class Down(ChatBackend):
        def complete(self, messages, config):
            raise errors.BackendUnavailable("chat endpoint failed after 3 attempts")

    monkeypatch.setattr(cli, "_gateway", lambda args, config: LlmGateway(
        Down(), MockEmbeddingBackend(), Transcript(None)))
    rc, out, err = run(capsys, "organize", "--topic", "Early computing",
                       "--corpus", str(FIXTURES / "corpus"), "--kb", kb,
                       "--ontology", f"{kb}.ontology.json")
    assert (rc, out, err) == (2, "", "error: chat endpoint failed after 3 attempts\n")
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_organize_missing_corpus_dir(capsys, tmp_path):
    rc, _, err = run(capsys, "organize", "--topic", "t",
                     "--corpus", str(tmp_path / "nope"),
                     "--kb", str(tmp_path / "kb.jsonl"),
                     "--auto-approve", "--mock", E2E_MOCK)
    assert rc == 1
    assert "error" in err


def test_organize_invalid_edited_ontology(capsys, tmp_path):
    bad = tmp_path / "edited.json"
    bad.write_text(json.dumps({"namespaces": {"NS": [
        {"name": "person", "kind": "entity", "parent": "Entity"}]}}))
    rc, _, err = run(capsys, "organize", "--topic", "t",
                     "--corpus", str(FIXTURES / "corpus"),
                     "--kb", str(tmp_path / "kb.jsonl"),
                     "--ontology", str(bad), "--mock", E2E_MOCK)
    assert rc == 1
    assert "UpperCamelCase" in err


def test_organize_with_ontology_creates_the_kb_directory(capsys, tmp_path):
    kb, _ = organize(capsys, tmp_path)
    missing = tmp_path / "missing" / "kb.jsonl"
    rc, out, err = run(capsys, "organize", "--topic", "Early computing",
                       "--corpus", str(FIXTURES / "corpus"), "--kb", str(missing),
                       "--ontology", f"{kb}.proposal.json", "--mock", E2E_MOCK)
    assert rc == 0, err
    assert json.loads(out)["stored_objects"] == 3
    assert missing.exists()


def test_organize_without_approval_stops_for_review(capsys, tmp_path):
    kb = str(tmp_path / "kb.jsonl")
    rc, _, err = run(capsys, "organize", "--topic", "t",
                     "--corpus", str(FIXTURES / "corpus"), "--kb", kb,
                     "--mock", E2E_MOCK)
    assert rc == 1
    assert Path(f"{kb}.proposal.json").exists()
    assert "--auto-approve" in err
    assert not Path(kb).exists()


class Tty:
    def isatty(self) -> bool:
        return True


def organize_at_the_prompt(capsys, tmp_path, monkeypatch, edit) -> dict:
    """`kdr organize` in a terminal, where `edit` changes the review file
    before the user answers yes; the KB's saved ontology, as a document."""
    kb = tmp_path / "kb.jsonl"

    def answer(prompt: str) -> str:
        edit(Path(f"{kb}.proposal.json"))
        return "y"

    monkeypatch.setattr(sys, "stdin", Tty())
    monkeypatch.setattr("builtins.input", answer)
    rc, _, err = run(capsys, "organize", "--topic", "Early computing",
                     "--corpus", str(FIXTURES / "corpus"), "--kb", str(kb), "--mock", E2E_MOCK)
    assert rc == 0, err
    return json.loads(Path(f"{kb}.ontology.json").read_text())


def test_organize_at_the_prompt_applies_the_edited_review_file(capsys, tmp_path, monkeypatch):
    def edit(review: Path) -> None:
        review.write_text(review.read_text().replace("A person in", "A scholar in"))

    saved = organize_at_the_prompt(capsys, tmp_path, monkeypatch, edit)
    assert saved["namespaces"]["STUDY"][0]["description"] == "A scholar in the study corpus."


def test_organize_at_the_prompt_builds_an_unedited_schema_once(capsys, tmp_path, monkeypatch):
    documents = []
    build = onto.graph_from_document
    monkeypatch.setattr(onto, "graph_from_document",
                        lambda document: documents.append(document) or build(document))
    saved = organize_at_the_prompt(capsys, tmp_path, monkeypatch, lambda review: None)
    assert len(documents) == 1
    assert saved["namespaces"]["STUDY"][0]["description"] == "A person in the study corpus."


# -- research ------------------------------------------------------------------------


def test_research_produces_report(capsys, tmp_path):
    kb, _ = organize(capsys, tmp_path)
    out_dir = str(tmp_path / "run")
    rc, out, err = run(capsys, "research", "--task", "Early computing",
                       "--kb", kb, "--out", out_dir,
                       "--web-corpus", str(FIXTURES / "webcorpus"),
                       "--mock", E2E_MOCK)
    assert rc == 0, err
    result = json.loads(out)
    assert result["sections"] == ["Background", "Computed profile"]
    report = Path(result["report"]).read_text()
    assert "## Background" in report
    assert "mean birth year of 1803.0" in report


def test_research_bad_kb_file(capsys, tmp_path):
    graph = onto.graph_from_document({"namespaces": {"NS": [
        {"name": "Person", "kind": "entity", "parent": "Entity"}]}})
    kb = tmp_path / "kb.jsonl"
    kb.write_text("not a json line\n")
    onto.save_ontology(graph, f"{kb}.ontology.json")
    rc, _, err = run(capsys, "research", "--task", "t", "--kb", str(kb),
                     "--out", str(tmp_path / "run"), "--mock", E2E_MOCK)
    assert rc == 1
    assert "line 1" in err


def test_research_missing_kb_path(capsys, tmp_path):
    rc, _, err = run(capsys, "research", "--task", "t",
                     "--kb", str(tmp_path / "absent.jsonl"),
                     "--out", str(tmp_path / "run"), "--mock", E2E_MOCK)
    assert rc == 1


def test_research_plan_failure_is_runtime_error(capsys, tmp_path):
    kb, _ = organize(capsys, tmp_path)
    mock = tmp_path / "badplan.json"
    mock.write_text(json.dumps({"rules": [
        {"match": "You are planning a research report",
         "responses": ["# S\n<begin_web_search>q"]}]}))
    rc, _, err = run(capsys, "research", "--task", "t", "--kb", kb,
                     "--out", str(tmp_path / "run"), "--mock", str(mock))
    assert rc == 2
    assert "error" in err


def test_research_empty_kb_keeps_caveated_sections(capsys, tmp_path):
    graph = onto.graph_from_document({"namespaces": {"STUDY": [
        {"name": "Person", "kind": "entity", "parent": "Entity",
         "description": "A person.",
         "attributes": [{"name": "birth_year", "type": "number"}]}]}})
    kb = str(tmp_path / "kb.jsonl")
    ks.save(ks.KnowledgeStore(graph), kb)
    onto.save_ontology(graph, f"{kb}.ontology.json")
    mock = tmp_path / "mock.json"
    mock.write_text(json.dumps({"rules": [
        {"match": "You are planning a research report", "responses": [
            "# Numbers\n<begin_data_analysis>mean birth year of every person"
            "<end_data_analysis>\n\n# Reading\n<begin_web_search>Lovelace"
            "<end_web_search>"]},
        {"match": "List the topic entities", "responses": ["Ada Lovelace"]},
        {"match": "Summarize the following source", "responses": ["A summary."]},
        {"match": "Write the answer to the research question",
         "responses": ["Drafted from sources alone."]},
        {"match": "Decide whether the draft sufficiently answers",
         "responses": ["PASS done"]},
        {"match": "Polish the section", "responses": []},
    ], "default_response": ""}))
    rc, out, err = run(capsys, "research", "--task", "People", "--kb", kb,
                       "--out", str(tmp_path / "run"),
                       "--web-corpus", str(FIXTURES / "webcorpus"),
                       "--mock", str(mock))
    assert rc == 0, err
    report = Path(json.loads(out)["report"]).read_text()
    assert "did not complete" in report
    assert "Drafted from sources alone." in report


# -- align ---------------------------------------------------------------------------


def animal_ontology(tmp_path):
    graph = onto.graph_from_document({"namespaces": {"TAX": [
        {"name": "Animal", "kind": "entity", "parent": "Entity",
         "description": "A living creature."},
        {"name": "Mammal", "kind": "entity", "parent": "Animal",
         "description": "A warm-blooded animal."}]}})
    path = tmp_path / "taxonomy.json"
    onto.save_ontology(graph, str(path))
    return str(path)


def test_align_places_concept(capsys, tmp_path):
    ontology = animal_ontology(tmp_path)
    mock = tmp_path / "mock.json"
    mock.write_text(json.dumps({"rules": [
        {"match": "class Wolf", "responses": ["Mammal: parent_of_query"]}]}))
    saved = str(tmp_path / "expanded.json")
    rc, out, err = run(capsys, "align", "--ontology", ontology,
                       "--name", "Wolf", "--description", "A wild canid.",
                       "--save", saved, "--mock", str(mock))
    assert rc == 0, err
    result = json.loads(out)
    assert result["parent"] == "TAX.Mammal"
    expanded = onto.load_ontology(saved)
    assert "NEW.Wolf" in expanded.concepts


def test_align_save_creates_a_missing_directory(capsys, tmp_path):
    ontology = animal_ontology(tmp_path)
    mock = tmp_path / "mock.json"
    mock.write_text(json.dumps({"rules": [
        {"match": "class Wolf", "responses": ["Mammal: parent_of_query"]}]}))
    saved = tmp_path / "missing" / "x.json"
    rc, _, err = run(capsys, "align", "--ontology", ontology,
                     "--name", "Wolf", "--description", "A wild canid.",
                     "--save", str(saved), "--mock", str(mock))
    assert rc == 0, err
    assert "NEW.Wolf" in onto.load_ontology(str(saved)).concepts


def test_align_equivalent_verdict_saves_the_equivalence(capsys, tmp_path):
    ontology = animal_ontology(tmp_path)
    mock = tmp_path / "mock.json"
    mock.write_text(json.dumps({"rules": [
        {"match": "class Wolf", "responses": ["Mammal: equivalent"]}]}))
    saved = str(tmp_path / "expanded.json")
    rc, out, err = run(capsys, "align", "--ontology", ontology,
                       "--name", "Wolf", "--description", "A wild canid.",
                       "--save", saved, "--mock", str(mock))
    assert rc == 0, err
    assert json.loads(out) == {"concept": "NEW.Wolf", "parent": "TAX.Animal",
                               "equivalent_to": "TAX.Mammal", "note": ""}
    expanded = onto.load_ontology(saved)
    assert expanded.parents["NEW.Wolf"] == "TAX.Animal"
    assert expanded.equivalences == {"NEW.Wolf": {"TAX.Mammal"}, "TAX.Mammal": {"NEW.Wolf"}}


def test_align_into_an_empty_ontology_goes_under_the_kind_root(capsys, tmp_path):
    ontology = str(tmp_path / "empty.json")
    onto.save_ontology(onto.empty_graph(), ontology)
    saved = str(tmp_path / "expanded.json")
    rc, out, err = run(capsys, "align", "--ontology", ontology, "--name", "Wolf",
                       "--save", saved, "--mock", E2E_MOCK)
    assert rc == 0, err
    assert json.loads(out) == {"concept": "NEW.Wolf", "parent": "Entity", "equivalent_to": None,
                               "note": "empty ontology; attached under the kind root"}
    assert onto.load_ontology(saved).parents == {"NEW.Wolf": "Entity"}


def test_align_rejects_bad_name(capsys, tmp_path):
    ontology = animal_ontology(tmp_path)
    rc, _, err = run(capsys, "align", "--ontology", ontology,
                     "--name", "wolf", "--mock", E2E_MOCK)
    assert rc == 1
    assert "UpperCamelCase" in err


# -- extract -------------------------------------------------------------------------


def test_extract_prints_object_records(capsys, tmp_path):
    script = json.loads((FIXTURES / "e2e_mock.json").read_text())
    graph = onto.graph_from_document(json.loads(script["rules"][0]["responses"][0]))
    path = tmp_path / "schema.json"
    onto.save_ontology(graph, str(path))
    text = (FIXTURES / "corpus" / "doc1.txt").read_text()
    rc, out, err = run(capsys, "extract", "--ontology", str(path),
                       "--namespace", "STUDY", "--text", text,
                       "--mock", E2E_MOCK)
    assert rc == 0, err
    objects = json.loads(out)["objects"]
    assert len(objects) == 3
    names = {o["display_name"] for o in objects}
    assert names == {"Ada Lovelace", "Charles Babbage", "Analytical Engine"}


def test_extract_needs_exactly_one_text_source(capsys, tmp_path):
    graph = onto.graph_from_document({"namespaces": {"NS": [
        {"name": "Person", "kind": "entity", "parent": "Entity"}]}})
    path = tmp_path / "schema.json"
    onto.save_ontology(graph, str(path))
    rc, _, err = run(capsys, "extract", "--ontology", str(path),
                     "--namespace", "NS", "--mock", E2E_MOCK)
    assert rc == 1
    assert "--text or --file" in err


# -- eval ----------------------------------------------------------------------------


def test_eval_ie_prints_f1(capsys, tmp_path):
    pred = tmp_path / "pred.jsonl"
    gold = tmp_path / "gold.jsonl"
    pred.write_text(json.dumps({"id": 1, "annotations": [
        {"type": "person", "slots": {"name": "ada"}},
        {"type": "person", "slots": {"name": "charles"}}]}) + "\n")
    gold.write_text(json.dumps({"id": 1, "annotations": [
        {"type": "person", "slots": {"name": "ada"}},
        {"type": "machine", "slots": {"name": "engine"}}]}) + "\n")
    rc, out, err = run(capsys, "eval", "ie", "--pred", str(pred),
                       "--gold", str(gold), "--task", "ner")
    assert rc == 0, err
    result = json.loads(out)
    assert result["precision"] == 0.5
    assert result["recall"] == 0.5
    assert result["f1"] == 0.5


def test_eval_ie_malformed_jsonl_reports_line(capsys, tmp_path):
    pred = tmp_path / "pred.jsonl"
    gold = tmp_path / "gold.jsonl"
    pred.write_text('{"id": 1, "annotations": []}\n{broken\n')
    gold.write_text('{"id": 1, "annotations": []}\n')
    rc, _, err = run(capsys, "eval", "ie", "--pred", str(pred),
                     "--gold", str(gold), "--task", "ner")
    assert rc == 1
    assert "line 2" in err


def test_eval_taxonomy_perfect_mock(capsys, tmp_path):
    dataset = {
        "concepts": [
            {"name": "animal", "definition": "A living creature."},
            {"name": "mammal", "definition": "A warm-blooded animal."},
            {"name": "bird", "definition": "A feathered animal."},
            {"name": "dog", "definition": "A domestic canid."},
            {"name": "crow", "definition": "A black corvid."},
        ],
        "edges": [["mammal", "animal"], ["bird", "animal"],
                  ["dog", "mammal"], ["crow", "bird"]],
        "test_leaves": ["dog", "crow"],
    }
    data_path = tmp_path / "taxonomy.json"
    data_path.write_text(json.dumps(dataset))
    mock = tmp_path / "mock.json"
    mock.write_text(json.dumps({"rules": [
        {"match": "class Dog", "responses": ["Mammal: parent_of_query"]},
        {"match": "class Crow", "responses": ["Bird: parent_of_query"]}]}))
    rc, out, err = run(capsys, "eval", "taxonomy", "--dataset", str(data_path),
                       "--mock", str(mock))
    assert rc == 0, err
    result = json.loads(out)
    assert result["accuracy"] == 1.0
    assert result["mean_wu_palmer"] == 1.0


def test_eval_kbqa_cli(capsys, tmp_path):
    records = [
        {"id": "q1", "question": "Who directed Inception?",
         "topic_entity": "Inception",
         "triples": [["Inception", "director", "Christopher Nolan"]],
         "answers": ["Christopher Nolan"]},
    ]
    dataset = tmp_path / "qa.jsonl"
    dataset.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    code = ("```python\nprint('ANSWERS:')\n"
            "for o in search_results:\n"
            "    for fact in (o.facts or []):\n"
            "        key, _, value = fact.partition(': ')\n"
            "        if key == 'director':\n"
            "            print(value)\n```")
    mock = tmp_path / "mock.json"
    mock.write_text(json.dumps({"rules": [
        {"match": "Decide whether the analysis results satisfy",
         "responses": ["PASS printed"]},
        {"match": "Who directed Inception", "responses": [code]}]}))
    rc, out, err = run(capsys, "eval", "kbqa", "--dataset", str(dataset),
                       "--workdir", str(tmp_path / "w"), "--mock", str(mock))
    assert rc == 0, err
    assert json.loads(out)["hits_at_1"] == 1.0


def test_eval_report_with_two_judges(capsys, tmp_path):
    report = tmp_path / "report.md"
    report.write_text("# T\n\nBody.\n")
    scores = ["completeness: 8\nthoroughness: 8\nfactuality: 8\n"
              "coherence: 8\ninsight: 8",
              "completeness: 6\nthoroughness: 6\nfactuality: 6\n"
              "coherence: 6\ninsight: 6"]
    paths = []
    for i, text in enumerate(scores):
        mock = tmp_path / f"judge{i}.json"
        mock.write_text(json.dumps({"rules": [
            {"match": "Score the research report", "responses": [text]}]}))
        paths.append(str(mock))
    rc, out, err = run(capsys, "eval", "report", "--report", str(report),
                       "--mock", paths[0], "--mock", paths[1])
    assert rc == 0, err
    result = json.loads(out)
    assert result["completeness"] == 7.0
    assert result["insight"] == 7.0


# -- kb ------------------------------------------------------------------------------


def colliding_kb(tmp_path):
    graph = onto.graph_from_document({"namespaces": {"STUDY": [
        {"name": "Person", "kind": "entity", "parent": "Entity"},
        {"name": "Machine", "kind": "entity", "parent": "Entity"}]}})
    store = ks.KnowledgeStore(graph)
    store.ingest(ks.make_object(graph, "STUDY.Person", "Engine X"))
    store.ingest(ks.make_object(graph, "STUDY.Machine", "Engine X"))
    store.ingest(ks.make_object(graph, "STUDY.Person", "Ada Lovelace"))
    kb = str(tmp_path / "kb.jsonl")
    ks.save(store, kb)
    onto.save_ontology(graph, f"{kb}.ontology.json")
    return kb


def test_kb_stats(capsys, tmp_path):
    kb = colliding_kb(tmp_path)
    rc, out, err = run(capsys, "kb", "stats", "--kb", kb)
    assert rc == 0, err
    result = json.loads(out)
    assert result["objects"] == 3
    assert result["concepts"] == {"STUDY.Machine": 1, "STUDY.Person": 2}


def test_kb_query(capsys, tmp_path):
    kb = colliding_kb(tmp_path)
    rc, out, err = run(capsys, "kb", "query", "--kb", kb, "--name", "ada lovelace")
    assert rc == 0, err
    matches = json.loads(out)["matches"]
    assert len(matches) == 1
    assert matches[0]["display_name"] == "Ada Lovelace"


def test_kb_merge_check_lists_collisions(capsys, tmp_path):
    kb = colliding_kb(tmp_path)
    rc, out, err = run(capsys, "kb", "merge-check", "--kb", kb)
    assert rc == 0, err
    collisions = json.loads(out)["collisions"]
    assert len(collisions) == 1
    assert collisions[0]["name"] == "engine x"
    assert {o["concept"] for o in collisions[0]["objects"]} == {
        "STUDY.Person", "STUDY.Machine"}


def test_kb_stats_bad_path(capsys, tmp_path):
    rc, _, err = run(capsys, "kb", "stats", "--kb", str(tmp_path / "none.jsonl"))
    assert rc == 1


def test_pretty_flag_indents(capsys, tmp_path):
    kb = colliding_kb(tmp_path)
    rc, out, _ = run(capsys, "kb", "stats", "--kb", kb, "--pretty")
    assert rc == 0
    assert out.startswith("{\n")


def test_bad_config_is_user_error(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"llms": {}}))
    kb = colliding_kb(tmp_path)
    rc, _, err = run(capsys, "research", "--task", "t", "--kb", kb,
                     "--out", str(tmp_path / "run"), "--mock", E2E_MOCK,
                     "--config", str(config))
    assert rc == 1
    assert "config" in err


def test_defaults_config_key_is_user_error_before_any_model_call(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"defaults": {}}))
    transcript = tmp_path / "calls.jsonl"
    rc, _, err = run(capsys, "organize", "--topic", "Early computing",
                     "--corpus", str(FIXTURES / "corpus"),
                     "--kb", str(tmp_path / "kb.jsonl"), "--auto-approve",
                     "--mock", E2E_MOCK, "--config", str(config),
                     "--transcript", str(transcript))
    assert rc == 1
    assert err == "error: unknown config keys: ['defaults']\n"
    assert not transcript.exists() or transcript.read_text() == ""


@pytest.mark.parametrize("section, message", [
    ({"llm": "x"}, "llm must be a JSON object, got str"),
    ({"embed": []}, "embed must be a JSON object, got list"),
    ({"llm": {"endpiont": "http://localhost:1"}}, "unknown llm keys: ['endpiont']"),
    ({"search": {"endpoint": "http://localhost:1", "model": "m"}},
     "unknown search keys: ['model']"),
    ({"search": {"endpoint": 5}}, "search.endpoint must be a string, got 5"),
    ({"embed": {"api_key": None}}, "embed.api_key must be a string, got None"),
])
def test_bad_config_section_is_user_error_before_any_model_call(capsys, tmp_path,
                                                                section, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(section))
    transcript = tmp_path / "calls.jsonl"
    rc, _, err = run(capsys, "extract", "--ontology", animal_ontology(tmp_path),
                     "--namespace", "TAX", "--text", "A wolf.", "--mock", E2E_MOCK,
                     "--config", str(config), "--transcript", str(transcript))
    assert rc == 1
    assert err == f"error: {message}\n"
    assert not transcript.exists() or transcript.read_text() == ""


def test_organize_transcript_pairs_each_model_call(capsys, tmp_path):
    transcript = tmp_path / "t.jsonl"
    rc, out, err = run(capsys, "organize", "--topic", "Early computing",
                       "--corpus", str(FIXTURES / "corpus"),
                       "--kb", str(tmp_path / "kb.jsonl"), "--auto-approve",
                       "--mock", E2E_MOCK, "--transcript", str(transcript))
    assert rc == 0, err
    rows = [json.loads(line) for line in transcript.read_text().splitlines()]
    by_seq: dict[int, list[str]] = {}
    for row in rows:
        by_seq.setdefault(row["seq"], []).append(row["kind"])
    # one proposal, then importing and instantiation for each of two passages
    assert len(by_seq) == 1 + 2 * 2
    assert all(sorted(kinds) == ["request", "response"] for kinds in by_seq.values())
    tags = [r["tag"] for r in rows if r["kind"] == "request"]
    assert sorted(tags) == ["importing", "importing", "instantiation", "instantiation",
                            "propose"]


def test_workers_below_one_is_user_error(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"limits": {"workers": 0}}))
    rc, _, err = run(capsys, "organize", "--topic", "Early computing",
                     "--corpus", str(FIXTURES / "corpus"),
                     "--kb", str(tmp_path / "kb.jsonl"), "--auto-approve",
                     "--mock", E2E_MOCK, "--config", str(config))
    assert rc == 1
    assert "workers" in err


def test_eval_taxonomy_bad_workers_is_user_error(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"limits": {"workers": "many"}}))
    rc, _, err = run(capsys, "eval", "taxonomy",
                     "--dataset", str(FIXTURES / "taxonomy_20.json"),
                     "--mock", E2E_MOCK, "--config", str(config))
    assert rc == 1
    assert "workers" in err


@pytest.mark.parametrize("limits", [
    {"wall_seconds": "30"}, {"max_iterations": "2"}, {"search_limit": "5"},
    {"output_bytes": "x"}, {"hops": -1}, {"max_rounds": "3"}, {"search_hits": 0},
])
def test_research_bad_limit_is_user_error_before_any_model_call(capsys, tmp_path, limits):
    kb, _ = organize(capsys, tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"limits": limits}))
    transcript = tmp_path / "calls.jsonl"
    rc, _, err = run(capsys, "research", "--task", "Early computing", "--kb", kb,
                     "--out", str(tmp_path / "run"), "--mock", E2E_MOCK,
                     "--config", str(config), "--transcript", str(transcript))
    assert rc == 1
    assert err.count("error:") == 1 and f"limits.{next(iter(limits))}" in err
    assert not transcript.exists() or transcript.read_text() == ""


@pytest.mark.parametrize("command", ["extract", "align", "eval report"])
def test_every_command_checks_limits_before_any_model_call(capsys, tmp_path, command):
    ontology = animal_ontology(tmp_path)
    report = tmp_path / "report.md"
    report.write_text("# T\n\nBody.\n")
    argv = {"extract": ["extract", "--ontology", ontology, "--namespace", "TAX",
                        "--text", "A wolf."],
            "align": ["align", "--ontology", ontology, "--name", "Wolf"],
            "eval report": ["eval", "report", "--report", str(report)]}[command]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"limits": {"workers": 0}}))
    transcript = tmp_path / "calls.jsonl"
    rc, _, err = run(capsys, *argv, "--mock", E2E_MOCK, "--config", str(config),
                     "--transcript", str(transcript))
    assert rc == 1
    assert err == "error: limits.workers must be an integer >= 1, got 0\n"
    assert not transcript.exists() or transcript.read_text() == ""

def test_no_backend_configured_is_runtime_error(capsys, tmp_path, monkeypatch):
    for var in ("KDR_LLM_ENDPOINT", "KDR_LLM_API_KEY", "KDR_LLM_MODEL"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.delenv("KDR_CONFIG", raising=False)
    kb = colliding_kb(tmp_path)
    rc, _, err = run(capsys, "research", "--task", "t", "--kb", kb,
                     "--out", str(tmp_path / "run"))
    assert rc == 2
    assert "KDR_LLM_ENDPOINT" in err


# -- exit codes ----------------------------------------------------------------------

# The error classes that exit 1; every other KdrError exits 2. UserError is
# the base the user errors derive from.
USER_ERROR_NAMES = {
    "UserError", "AmbiguousName", "CorruptRecord", "CycleDetected",
    "DuplicateAttribute", "DuplicateName", "EmptyImport", "GoldParentMissing",
    "IoFailure", "KeyMismatch", "KindMismatch", "SchemaViolation", "ShapeMismatch",
    "TypeMismatch", "UnknownConcept", "UnknownGoldType", "UnknownId", "UnknownParent",
}

ERROR_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                 if issubclass(cls, errors.KdrError)]


def _instance(cls):
    try:
        return cls("boom")
    except TypeError:  # classes that carry a position or line number
        return cls("boom", 1)


def exit_code_of(capsys, monkeypatch, exc: Exception):
    def raising(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_kb_stats", raising)
    return run(capsys, "kb", "stats", "--kb", "x")


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_class_keeps_its_exit_code(capsys, monkeypatch, cls):
    rc, _, err = exit_code_of(capsys, monkeypatch, _instance(cls))
    assert rc == (1 if cls.__name__ in USER_ERROR_NAMES else 2)
    assert err.startswith("error: ") and err.count("\n") == 1


def test_new_user_error_subclass_exits_one(capsys, monkeypatch):
    from kdr.errors import UserError

    class BadInput(UserError):
        pass

    rc, _, err = exit_code_of(capsys, monkeypatch, BadInput("bad input"))
    assert rc == 1
    assert err == "error: bad input\n"


def test_research_missing_web_corpus_is_user_error(capsys, tmp_path):
    kb = colliding_kb(tmp_path)
    rc, _, err = run(capsys, "research", "--task", "t", "--kb", kb,
                     "--out", str(tmp_path / "run"), "--mock", E2E_MOCK,
                     "--web-corpus", str(tmp_path / "nonexistent"))
    assert rc == 1
    assert "nonexistent" in err



@pytest.mark.parametrize("case", ["empty topic", "missing corpus", "missing web corpus",
                                  "text and file", "transcript directory"])
def test_operator_mistakes_exit_one_with_one_error_line(capsys, tmp_path, case):
    script = json.loads((FIXTURES / "e2e_mock.json").read_text())
    ontology = str(tmp_path / "schema.json")
    onto.save_ontology(onto.graph_from_document(json.loads(script["rules"][0]["responses"][0])),
                       ontology)
    kb = tmp_path / "new" / "kb.jsonl"
    organize = ["organize", "--kb", str(kb), "--ontology", ontology]
    corpus = ["--corpus", str(FIXTURES / "corpus")]
    argv, named = {
        "empty topic": (organize + corpus + ["--topic", ""], "topic"),
        "missing corpus": (organize + ["--topic", "t", "--corpus", str(tmp_path / "nope")],
                           "nope"),
        "missing web corpus": (["research", "--task", "t", "--kb", colliding_kb(tmp_path),
                                "--out", str(tmp_path / "run"),
                                "--web-corpus", str(tmp_path / "nope")], "nope"),
        "text and file": (["extract", "--ontology", ontology, "--namespace", "STUDY",
                           "--text", "Ada.", "--file", ontology], "--text or --file"),
        "transcript directory": (organize + corpus + ["--topic", "t", "--transcript",
                                                      str(tmp_path / "nope" / "t.jsonl")],
                                 "nope"),
    }[case]
    rc, out, err = run(capsys, *argv, "--mock", E2E_MOCK)
    assert (rc, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err
    assert not kb.exists()

@pytest.mark.parametrize("script", [
    {"rules": [5]},
    {"rules": [{"match": "([", "regex": True, "responses": ["x"]}]},
    {"rules": [{"match": "Score the research report", "responses": "PASS"}]},
], ids=["rule-not-object", "bad-regex", "responses-not-list"])
def test_malformed_mock_script_is_user_error(capsys, tmp_path, script):
    mock = tmp_path / "mock.json"
    mock.write_text(json.dumps(script))
    report = tmp_path / "report.md"
    report.write_text("# Report\n")
    rc, _, err = run(capsys, "eval", "report", "--report", str(report),
                     "--mock", str(mock))
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1


# -- reading inputs --------------------------------------------------------------------


def one_error_line(err: str) -> bool:
    return err.startswith("error: ") and err.count("error:") == 1 and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--ontology", "--mock", "--config"])
def test_malformed_json_input_names_the_file_and_line(capsys, tmp_path, flag):
    bad = tmp_path / "bad.json"
    bad.write_text('{"namespaces": {},\n}\n')
    flags = {"--ontology": ["--ontology", str(bad), "--mock", E2E_MOCK],
             "--mock": ["--mock", str(bad)],
             "--config": ["--config", str(bad), "--mock", E2E_MOCK]}[flag]
    rc, _, err = run(capsys, "organize", "--topic", "t", "--corpus", str(FIXTURES / "corpus"),
                     "--kb", str(tmp_path / "kb.jsonl"), *flags)
    assert rc == 1
    assert one_error_line(err) and f"{bad}: line 2" in err


def test_eval_kbqa_non_object_row_is_user_error(capsys, tmp_path):
    dataset = tmp_path / "qa.jsonl"
    dataset.write_text("5\n")
    rc, _, err = run(capsys, "eval", "kbqa", "--dataset", str(dataset), "--mock", E2E_MOCK)
    assert rc == 1
    assert one_error_line(err) and "QA record 0 must be a JSON object" in err


def test_web_corpus_non_object_file_is_user_error(capsys, tmp_path):
    kb = colliding_kb(tmp_path)
    web = tmp_path / "web"
    web.mkdir()
    (web / "page.json").write_text("5")
    rc, _, err = run(capsys, "research", "--task", "t", "--kb", kb,
                     "--out", str(tmp_path / "run"), "--mock", E2E_MOCK,
                     "--web-corpus", str(web))
    assert rc == 1
    assert one_error_line(err) and str(web / "page.json") in err


@pytest.mark.parametrize("row", ['[1, 2]', '{"id": 2, "annotations": [5]}'],
                         ids=["record", "annotation"])
def test_eval_ie_non_object_row_is_user_error(capsys, tmp_path, row):
    pred = tmp_path / "pred.jsonl"
    gold = tmp_path / "gold.jsonl"
    pred.write_text('{"id": 1, "annotations": []}\n' + row + '\n')
    gold.write_text('{"id": 1, "annotations": []}\n')
    rc, _, err = run(capsys, "eval", "ie", "--pred", str(pred),
                     "--gold", str(gold), "--task", "ner")
    assert rc == 1
    assert one_error_line(err) and "IE record" in err


def test_corpus_file_that_is_not_utf8_names_the_file(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "latin.txt").write_bytes("caf\xe9 notes\n".encode("latin-1"))
    rc, _, err = run(capsys, "organize", "--topic", "t", "--corpus", str(corpus),
                     "--kb", str(tmp_path / "kb.jsonl"), "--auto-approve", "--mock", E2E_MOCK)
    assert rc == 1
    assert one_error_line(err) and f"cannot read {corpus / 'latin.txt'}" in err


def test_align_without_an_embedding_backend_is_runtime_error(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("KDR_EMBED_ENDPOINT", raising=False)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"llm": {"endpoint": "http://127.0.0.1:9/v1"}}))
    rc, _, err = run(capsys, "align", "--ontology", animal_ontology(tmp_path),
                     "--name", "Wolf", "--config", str(config))
    assert rc == 2
    assert err == "error: no embedding backend configured\n"


@pytest.mark.parametrize("k", ["0", "-1", "two"])
def test_align_k_must_be_a_positive_integer(capsys, tmp_path, k):
    rc, _, err = run(capsys, "align", "--ontology", animal_ontology(tmp_path),
                     "--name", "Wolf", "--mock", E2E_MOCK, "--k", k)
    assert rc == 1
    assert "--k" in err and "integer >= 1" in err


@pytest.mark.parametrize("k", ["0", "-1"])
def test_eval_taxonomy_k_must_be_a_positive_integer(capsys, tmp_path, k):
    rc, _, err = run(capsys, "eval", "taxonomy", "--dataset", str(tmp_path / "absent.json"),
                     "--mock", E2E_MOCK, "--k", k)
    assert rc == 1
    assert "--k" in err and "integer >= 1" in err


def _with_field(where: str, key: str, value) -> dict:
    concept = {"name": "Person", "kind": "entity", "parent": "Entity",
               "attributes": [{"name": "born", "type": "date"}]}
    (concept["attributes"][0] if where == "attribute" else concept)[key] = value
    return {"namespaces": {"STUDY": [concept]}}


@pytest.mark.parametrize("where,key,value", [
    ("attribute", "type", 5),
    ("attribute", "name", ["born"]),
    ("attribute", "doc", 3),
    ("concept", "name", 5),
    ("concept", "kind", 1),
    ("concept", "parent", 7),
    ("concept", "equivalents", [3]),
    ("concept", "equivalents", "STUDY.Other"),
    ("concept", "examples", "abc"),
    ("concept", "description", ["x"]),
    ("concept", "attributes", "born"),
])
def test_ontology_field_of_the_wrong_type_is_user_error(capsys, tmp_path, where, key, value):
    kb = colliding_kb(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_with_field(where, key, value)))
    rc, _, err = run(capsys, "kb", "stats", "--kb", kb, "--ontology", str(bad))
    assert rc == 1
    assert one_error_line(err) and f"{key!r} must be" in err and "STUDY." in err
