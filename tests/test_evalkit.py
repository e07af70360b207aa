"""Taxonomy, F1, QA, and report-judging harnesses."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdr import evalkit as ek
from kdr import ontology as onto
from kdr.errors import GoldParentMissing, SchemaViolation, ShapeMismatch, UnknownParent
from kdr.llm_gateway import mock_gateway
from kdr.reasoning import Limits

FIXTURES = Path(__file__).parent / "fixtures"


def taxonomy_fixture():
    return json.loads((FIXTURES / "taxonomy_20.json").read_text())


# -- taxonomy -----------------------------------------------------------------


def gold_aligner(dataset):
    gold = {ek.taxonomy_concept_name(child):
            f"{ek.TAXONOMY_NAMESPACE}.{ek.taxonomy_concept_name(parent)}"
            for child, parent in dataset["edges"]}

    def aligner(query, graph):
        return gold[query.name]

    return aligner


def test_taxonomy_perfect_aligner_scores_one():
    dataset = taxonomy_fixture()
    result = ek.eval_taxonomy(dataset, gold_aligner(dataset))
    assert result.accuracy == 1.0
    assert result.mean_wu_palmer == 1.0
    assert len(result.per_query) == 20


def test_taxonomy_sibling_prediction_scores_hand_wup():
    dataset = {
        "concepts": [{"name": n, "definition": ""}
                     for n in ("animal", "mammal", "bird", "dog")],
        "edges": [["mammal", "animal"], ["bird", "animal"], ["dog", "mammal"]],
        "test_leaves": ["dog"],
    }
    result = ek.eval_taxonomy(dataset, lambda q, g: "tax.Bird")
    assert result.accuracy == 0.0
    # depth(Bird) = depth(Mammal) = 3, LCA Animal at depth 2
    assert result.mean_wu_palmer == pytest.approx(2 * 2 / 6)


def test_taxonomy_zero_test_leaves_rejected():
    dataset = taxonomy_fixture()
    dataset["test_leaves"] = []
    with pytest.raises(SchemaViolation):
        ek.eval_taxonomy(dataset, lambda q, g: "tax.Animal")


def test_taxonomy_missing_gold_parent():
    dataset = {
        "concepts": [{"name": "animal"}, {"name": "dog"}],
        "edges": [],
        "test_leaves": ["dog"],
    }
    with pytest.raises(GoldParentMissing):
        ek.eval_taxonomy(dataset, lambda q, g: "tax.Animal")


def test_taxonomy_gold_parent_held_out_is_unusable():
    dataset = {
        "concepts": [{"name": "animal"}, {"name": "mammal"}, {"name": "dog"}],
        "edges": [["mammal", "animal"], ["dog", "mammal"]],
        "test_leaves": ["mammal", "dog"],
    }
    with pytest.raises(GoldParentMissing):
        ek.eval_taxonomy(dataset, lambda q, g: "tax.Animal")


def test_taxonomy_dataset_validation():
    with pytest.raises(SchemaViolation):
        ek.load_taxonomy_dataset({"concepts": [], "edges": [], "leaves": []})
    with pytest.raises(SchemaViolation):
        ek.load_taxonomy_dataset({"concepts": [{"definition": "x"}],
                                  "edges": [], "test_leaves": []})
    with pytest.raises(SchemaViolation):
        ek.load_taxonomy_dataset({"concepts": [], "edges": [["a"]],
                                  "test_leaves": []})


def test_taxonomy_training_graph_excludes_held_out_leaves():
    graph, gold = ek.build_taxonomy_graph(taxonomy_fixture())
    assert "tax.Dog" not in graph.concepts
    assert "tax.Mammal" in graph.concepts
    assert gold["dog"] == "tax.Mammal"


def test_taxonomy_term_under_an_unknown_parent_term_is_named():
    dataset = {
        "concepts": [{"name": n} for n in ("animal", "dog", "sea bass")],
        "edges": [["dog", "animal"], ["sea bass", "fish"]],
        "test_leaves": ["dog"],
    }
    with pytest.raises(UnknownParent, match=r"tax\.SeaBass has unknown parent 'tax\.Fish'"):
        ek.build_taxonomy_graph(dataset)


def test_taxonomy_parent_term_named_like_a_root_stays_a_term():
    dataset = {
        "concepts": [{"name": n} for n in ("object", "entity", "thing", "held")],
        "edges": [["entity", "object"], ["thing", "entity"], ["held", "thing"]],
        "test_leaves": ["held"],
    }
    graph, _ = ek.build_taxonomy_graph(dataset)
    assert graph.parents == {"tax.Object": "Entity", "tax.Entity": "tax.Object",
                             "tax.Thing": "tax.Entity"}


def test_taxonomy_top_term_named_like_a_root_sits_under_the_root():
    dataset = {
        "concepts": [{"name": n} for n in ("entity", "thing", "held")],
        "edges": [["thing", "entity"], ["held", "thing"]],
        "test_leaves": ["held"],
    }
    graph, gold = ek.build_taxonomy_graph(dataset)
    assert graph.parents == {"tax.Entity": "Entity", "tax.Thing": "tax.Entity"}
    assert gold == {"held": "tax.Thing"}


def per_leaf_mock(dataset):
    """One relation-classify rule per held-out leaf: its gold parent as parent,
    Animal as parent, or its gold parent as an equivalent, in turn."""
    parent_of = dict(dataset["edges"])
    rules = []
    for i, leaf in enumerate(dataset["test_leaves"]):
        gold = ek.taxonomy_concept_name(parent_of[leaf])
        reply = [f"{gold}: parent_of_query", "Animal: parent_of_query",
                 f"{gold}: equivalent"][i % 3]
        rules.append({"match": f"New concept:\nclass {ek.taxonomy_concept_name(leaf)}(",
                      "responses": [reply]})
    return mock_gateway({"rules": rules})


def test_taxonomy_training_graph_order_is_pinned():
    dataset = {
        "concepts": [{"name": n, "definition": f"{n}."} for n in
                     ("sea bass", "fish", "animal", "perch", "shark", "held")],
        "edges": [["sea bass", "fish"], ["fish", "animal"], ["perch", "fish"],
                  ["shark", "animal"], ["held", "fish"]],
        "test_leaves": ["held"],
    }
    graph, gold = ek.build_taxonomy_graph(dataset)
    assert list(graph.parents.items()) == [
        ("tax.Animal", "Entity"), ("tax.Shark", "tax.Animal"), ("tax.Fish", "tax.Animal"),
        ("tax.Perch", "tax.Fish"), ("tax.SeaBass", "tax.Fish")]
    assert list(graph.concepts) == list(graph.parents)
    assert graph.concepts["tax.SeaBass"].description == "sea bass."
    assert gold == {"held": "tax.Fish"}


def test_taxonomy_result_does_not_depend_on_workers():
    from kdr.alignment import make_llm_aligner

    dataset = taxonomy_fixture()
    results = [ek.eval_taxonomy(dataset, make_llm_aligner(per_leaf_mock(dataset), k=5),
                                limits=Limits(workers=workers)) for workers in (1, 8)]
    assert results[0] == results[1]
    assert 0.0 < results[0].accuracy < 1.0
    assert [row[1] for row in results[0].per_query[:3]] == [
        "tax.Mammal", "tax.Animal", "tax.Animal"]


def test_taxonomy_aligner_error_propagates():
    def aligner(query, graph):
        if query.name == "Owl":
            raise SchemaViolation("owl cannot be placed")
        return "tax.Animal"

    with pytest.raises(SchemaViolation, match="owl"):
        ek.eval_taxonomy(taxonomy_fixture(), aligner, limits=Limits(workers=8))


# -- information extraction F1 ----------------------------------------------------


def test_f1_worked_half_case():
    pred = [("PER", "Ada"), ("LOC", "Paris")]
    gold = [("PER", "Ada"), ("ORG", "MIT")]
    r = ek.eval_ie_f1(pred, gold, "ner")
    assert (r.precision, r.recall, r.f1) == (0.5, 0.5, 0.5)
    assert (r.tp, r.fp, r.fn) == (1, 1, 1)


def test_f1_perfect_and_empty_cases():
    rows = [("PER", "Ada")]
    assert ek.eval_ie_f1(rows, rows, "ner").f1 == 1.0
    r = ek.eval_ie_f1([], rows, "ner")
    assert (r.precision, r.recall, r.f1) == (0.0, 0.0, 0.0)
    assert ek.eval_ie_f1([], [], "ner").f1 == 0.0


def test_f1_normalization_casefold_and_whitespace():
    r = ek.eval_ie_f1([("per", "  ada   lovelace ")],
                      [("PER", "Ada Lovelace")], "ner")
    assert r.f1 == 1.0


def test_f1_multiset_counts_duplicates():
    r = ek.eval_ie_f1([("PER", "Ada"), ("PER", "Ada")], [("PER", "Ada")], "ner")
    assert (r.tp, r.fp, r.fn) == (1, 1, 0)


def test_f1_shape_checks():
    with pytest.raises(ShapeMismatch):
        ek.eval_ie_f1([("a", "b")], [], "re")
    with pytest.raises(ShapeMismatch):
        ek.eval_ie_f1([], [("a", "b", "c")], "ner")
    with pytest.raises(ShapeMismatch):
        ek.eval_ie_f1([], [], "srl")


def test_f1_relation_and_event_shapes():
    assert ek.eval_ie_f1([("Ada", "wrote", "Notes")],
                         [("Ada", "wrote", "Notes")], "re").f1 == 1.0
    assert ek.eval_ie_f1([("Attack", "bombed")], [("Attack", "bombed")], "ed").f1 == 1.0
    assert ek.eval_ie_f1([("Attack", "agent", "army")],
                         [("Attack", "agent", "army")], "eae").f1 == 1.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["PER", "ORG"]),
                          st.text("ab", min_size=1, max_size=4)), max_size=6),
       st.lists(st.tuples(st.sampled_from(["PER", "ORG"]),
                          st.text("ab", min_size=1, max_size=4)), max_size=6),
       st.randoms())
def test_f1_invariant_under_permutation(pred, gold, rng):
    base = ek.eval_ie_f1(pred, gold, "ner")
    shuffled_pred, shuffled_gold = list(pred), list(gold)
    rng.shuffle(shuffled_pred)
    rng.shuffle(shuffled_gold)
    assert ek.eval_ie_f1(shuffled_pred, shuffled_gold, "ner") == base
    if pred:
        assert ek.eval_ie_f1(pred, pred, "ner").f1 == 1.0


def test_annotations_to_tuples_all_tasks():
    record = {"id": 1, "text": "t", "annotations": [
        {"type": "Person", "slots": {"name": "Ada"}}]}
    assert ek.annotations_to_tuples(record, "ner") == [("Person", "Ada")]
    record = {"annotations": [{"type": "wrote", "slots": {"head": "Ada", "tail": "Notes"}}]}
    assert ek.annotations_to_tuples(record, "re") == [("Ada", "wrote", "Notes")]
    record = {"annotations": [{"type": "Publish", "slots": {"trigger": "published"}}]}
    assert ek.annotations_to_tuples(record, "ed") == [("Publish", "published")]
    record = {"annotations": [
        {"type": "Publish", "slots": {"trigger": "published", "author": "Ada"}}]}
    assert ek.annotations_to_tuples(record, "eae") == [("Publish", "author", "Ada")]


def test_annotations_missing_slot_is_shape_mismatch():
    record = {"annotations": [{"type": "Person", "slots": {}}]}
    with pytest.raises(ShapeMismatch):
        ek.annotations_to_tuples(record, "ner")


def test_eval_ie_files_pairs_records_by_id():
    gold = [
        {"id": "a", "annotations": [{"type": "PER", "slots": {"name": "Ada"}}]},
        {"id": "b", "annotations": [{"type": "PER", "slots": {"name": "Babbage"}}]},
    ]
    pred = [
        {"id": "a", "annotations": [{"type": "PER", "slots": {"name": "Ada"}}]},
    ]
    r = ek.eval_ie_files(pred, gold, "ner")
    assert (r.tp, r.fp, r.fn) == (1, 0, 1)
    assert r.precision == 1.0 and r.recall == 0.5


# -- question answering -------------------------------------------------------------


DIRECTOR_CODE = (
    "```python\n"
    "print('ANSWERS:')\n"
    "for o in search_results:\n"
    "    for fact in (o.facts or []):\n"
    "        key, _, value = fact.partition(': ')\n"
    "        if key == 'director':\n"
    "            print(value)\n"
    "```"
)

YEAR_CODE = DIRECTOR_CODE.replace("'director'", "'year'")


def kbqa_records():
    triples = [["Inception", "director", "Christopher Nolan"],
               ["Inception", "year", "2010"]]
    return [
        {"id": "q1", "question": "Who directed Inception?",
         "topic_entity": "Inception", "triples": triples,
         "answers": ["Christopher Nolan"]},
        {"id": "q2", "question": "When was Inception released?",
         "topic_entity": "Inception", "triples": triples,
         "answers": ["2010"]},
    ]


def kbqa_gateway(q2_code=DIRECTOR_CODE):
    # evaluation rule first: codegen prompts embed the question text too
    return mock_gateway({"rules": [
        {"match": "Decide whether the analysis results satisfy",
         "responses": ["PASS printed"]},
        {"match": "Who directed Inception", "responses": [DIRECTOR_CODE]},
        {"match": "When was Inception released", "responses": [q2_code]},
    ]})


def test_kbqa_correct_and_wrong_scripted_answers(tmp_path):
    # q2's script extracts the director instead of the year: one hit of two
    result = ek.eval_kbqa(kbqa_records(), kbqa_gateway(), workdir=str(tmp_path))
    assert result.hits_at_1 == 0.5
    by_id = {qid: hit for qid, _, _, hit in result.per_question}
    assert by_id == {"q1": True, "q2": False}


def test_kbqa_both_correct(tmp_path):
    result = ek.eval_kbqa(kbqa_records(), kbqa_gateway(q2_code=YEAR_CODE),
                          workdir=str(tmp_path))
    assert result.hits_at_1 == 1.0


def test_kbqa_hit_is_containment_and_normalized(tmp_path):
    records = kbqa_records()[:1]
    records[0]["answers"] = ["  christopher   NOLAN "]
    gw = mock_gateway({"rules": [
        {"match": "Decide whether the analysis results satisfy",
         "responses": ["PASS ok"]},
        {"match": "Who directed Inception", "responses": [
            "```python\nprint('ANSWERS:')\nprint('Christopher Nolan')\n"
            "print('Emma Thomas')\nsearch_results\n```"]},
    ]})
    result = ek.eval_kbqa(records, gw, workdir=str(tmp_path))
    assert result.hits_at_1 == 1.0


def test_kbqa_missing_topic_entity_is_a_miss(tmp_path):
    records = kbqa_records()[:1]
    records[0]["topic_entity"] = "Tenet"
    result = ek.eval_kbqa(records, kbqa_gateway(), workdir=str(tmp_path))
    assert result.hits_at_1 == 0.0
    assert result.per_question[0][1] == []


def test_kbqa_execution_failure_is_a_miss(tmp_path):
    records = kbqa_records()[:1]
    gw = mock_gateway({"rules": [
        {"match": "Decide whether the analysis results satisfy",
         "responses": ["FAIL broken"]},
        {"match": "Who directed Inception",
         "responses": ["```python\nsearch_results\nraise ValueError('no')\n```"]},
    ]})
    result = ek.eval_kbqa(records, gw, limits=Limits(max_iterations=2),
                          workdir=str(tmp_path))
    assert result.hits_at_1 == 0.0


def test_kbqa_empty_dataset_rejected():
    with pytest.raises(SchemaViolation):
        ek.eval_kbqa([], mock_gateway())


def test_kbqa_record_shape_checked():
    with pytest.raises(SchemaViolation):
        ek.eval_kbqa([{"id": "q", "question": "?"}], mock_gateway())


def test_parse_answer_lines():
    assert ek.parse_answer_lines("noise\nANSWERS:\n a \n\nb\n") == ["a", "b"]
    assert ek.parse_answer_lines("no sentinel here") == []
    assert ek.parse_answer_lines("ANSWERS: inline") == []


def test_store_from_triples_merges_subjects():
    graph = ek.kbqa_graph()
    store = ek.store_from_triples(
        [["A", "p", "x"], ["A", "q", "y"], ["B", "p", "z"]], graph)
    a = store.query_by_name("A")[0]
    assert a.live("facts") == ["p: x", "q: y"]
    assert len(store.objects) == 2


# -- report judging ----------------------------------------------------------------


def judge(scores: str):
    return mock_gateway({"rules": [
        {"match": "Score the research report", "responses": [scores]}]})


FULL_8 = "completeness: 8\nthoroughness: 8\nfactuality: 8\ncoherence: 8\ninsight: 8"
FULL_6 = FULL_8.replace("8", "6")


def test_judges_are_averaged():
    score = ek.judge_report("report body", [judge(FULL_8), judge(FULL_6)])
    assert score.insight == 7.0
    assert score.as_dict() == {a: 7.0 for a in ek.ASPECTS}
    assert score.dropped == []


def test_unparseable_judge_aspects_are_dropped():
    score = ek.judge_report("r", [judge(FULL_8), judge("nonsense")])
    assert score.completeness == 8.0
    assert len(score.dropped) == 5


def test_partial_judge_response():
    score = ek.judge_report("r", [judge("- insight: 9\ncoherence = 7\njunk")])
    assert score.insight == 9.0 and score.coherence == 7.0
    assert score.completeness == 0.0
    assert any("completeness" in d for d in score.dropped)


def test_judging_is_deterministic():
    a = ek.judge_report("same report", [judge(FULL_8)])
    b = ek.judge_report("same report", [judge(FULL_8)])
    assert a == b


def test_judging_requires_a_backend():
    with pytest.raises(SchemaViolation):
        ek.judge_report("r", [])


@pytest.mark.parametrize("answers", ["Nolan", 5, None])
def test_kbqa_answers_must_be_a_list(tmp_path, answers):
    records = kbqa_records()
    records[1]["answers"] = answers
    with pytest.raises(SchemaViolation, match="QA record 1"):
        ek.eval_kbqa(records, kbqa_gateway(), workdir=str(tmp_path))


@pytest.mark.parametrize("key, value", [("question", 5), ("topic_entity", None),
                                        ("topic_entity", ["Inception"])])
def test_kbqa_question_and_topic_entity_must_be_strings(tmp_path, key, value):
    records = kbqa_records()
    records[1][key] = value
    gw = kbqa_gateway()
    with pytest.raises(SchemaViolation, match=f"QA record 1: '{key}'"):
        ek.eval_kbqa(records, gw, workdir=str(tmp_path))
    assert not gw.chat_backend.calls  # checked before any question runs


@pytest.mark.parametrize("qid", ["/../../../escaped", "a/b", "q\0"])
def test_kbqa_id_must_not_name_a_path(tmp_path, qid):
    records = kbqa_records()
    records[1]["id"] = qid
    gw = kbqa_gateway()
    with pytest.raises(SchemaViolation, match="QA record 1: 'id'"):
        ek.eval_kbqa(records, gw, workdir=str(tmp_path / "a" / "b"))
    assert not gw.chat_backend.calls  # checked before any question runs
    assert list(tmp_path.rglob("*")) == []


def test_kbqa_rejected_dataset_makes_no_temporary_workdir(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with pytest.raises(SchemaViolation, match="QA record 0"):
        ek.eval_kbqa([{"id": "q", "question": "?"}], mock_gateway())
    assert list(tmp_path.iterdir()) == []
