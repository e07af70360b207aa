"""Alignment: embedding retrieval, relation verdicts, attachment rules."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdr import alignment as al
from kdr import ontology
from kdr.errors import BackendUnavailable, CycleDetected, DuplicateName
from kdr.llm_gateway import (
    LlmGateway,
    MockChatBackend,
    MockEmbeddingBackend,
    Transcript,
    mock_gateway,
)
from kdr.ontology import AttributeSpec, Concept, empty_graph, insert_concept

from graph_checks import validate_graph


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Reference cosine of two vectors; retrieval tests rank against it."""
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    if denom == 0.0:
        return 0.0
    return float(np.dot(a, b) / denom)


def base_graph():
    g = empty_graph()
    insert_concept(g, Concept("Person", "tax", "entity", "Entity", "A human being."))
    insert_concept(g, Concept("Author", "tax", "entity", "Person", "A person who writes."))
    insert_concept(g, Concept("Building", "tax", "entity", "Entity", "A constructed structure."))
    return g


def test_embed_ontology_keys_and_determinism():
    g = base_graph()
    backend = MockEmbeddingBackend(dim=16)
    a = al.embed_ontology(g, backend)
    b = al.embed_ontology(g, backend)
    assert set(a) == {"tax.Person", "tax.Author", "tax.Building"}
    for key in a:
        assert np.allclose(a[key], b[key])


def test_embed_empty_description_warns(caplog):
    g = empty_graph()
    insert_concept(g, Concept("Blank", "tax", "entity", "Entity"))
    with caplog.at_level("WARNING"):
        vectors = al.embed_ontology(g, MockEmbeddingBackend(dim=8))
    assert "Blank" in caplog.text
    assert len(vectors) == 1


def test_retrieve_candidates_identity_and_orthogonal():
    query = Concept("Q", "tax", "entity", "Entity", "whatever")
    qv = np.array([1.0, 0.0])
    index = {
        "tax.Same": np.array([1.0, 0.0]),
        "tax.Orth": np.array([0.0, 1.0]),
    }
    cands = al.retrieve_candidates(query, index, k=5, query_vector=qv)
    assert cands.candidates[0] == ("tax.Same", pytest.approx(1.0))
    assert cands.candidates[1][0] == "tax.Orth"
    assert cands.candidates[1][1] == pytest.approx(0.0)


def test_retrieve_excludes_query_and_breaks_ties_lexicographically():
    query = Concept("Q", "tax", "entity", "Entity")
    qv = np.array([1.0, 0.0])
    vec = np.array([1.0, 0.0])
    index = {"tax.Q": vec, "tax.B": vec, "tax.A": vec}
    cands = al.retrieve_candidates(query, index, k=10, query_vector=qv)
    assert [name for name, _ in cands.candidates] == ["tax.A", "tax.B"]


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=20),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_retrieve_matches_brute_force(n, k, seed):
    rng = np.random.default_rng(seed)
    dim = 8
    index = {f"ns.C{i:03d}": rng.standard_normal(dim) for i in range(n)}
    qv = rng.standard_normal(dim)
    query = Concept("Query", "ns", "entity", "Entity")
    got = al.retrieve_candidates(query, index, k=k, query_vector=qv)

    def cos(a, b):
        return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))

    brute = sorted(((name, cos(qv, v)) for name, v in index.items()),
                   key=lambda p: (-p[1], p[0]))[:k]
    assert [n for n, _ in got.candidates] == [n for n, _ in brute]
    for (_, a), (_, b) in zip(got.candidates, brute):
        assert a == pytest.approx(b, abs=1e-12)


def test_classify_relations_parses_and_defaults():
    g = base_graph()
    query = Concept("Novelist", "tax", "entity", "Entity", "Writes novels.")
    cands = al.CandidateSet("tax.Novelist", [
        ("tax.Person", 0.9), ("tax.Author", 0.8), ("tax.Building", 0.1),
    ])
    gw = mock_gateway({"rules": [{
        "match": "state its relation",
        "responses": ["Person: parent_of_query\nAuthor: EQUIVALENT\nnonsense line"],
    }]})
    verdicts = al.classify_relations(query, cands, g, gw)
    assert [(v.candidate, v.relation) for v in verdicts] == [
        ("tax.Person", "parent_of_query"),
        ("tax.Author", "equivalent"),
        ("tax.Building", "unrelated"),
    ]
    assert verdicts[2].rationale.startswith("no parseable verdict")
    assert verdicts[0].score == 0.9
    # prompt carried class code for query and all candidates
    prompt = gw.chat_backend.calls[0]
    assert "class Novelist(Entity):" in prompt
    assert "class Person(Entity):" in prompt
    assert "class Building(Entity):" in prompt


def test_classify_relations_garbage_defaults_all_unrelated():
    g = base_graph()
    query = Concept("Novelist", "tax", "entity", "Entity")
    cands = al.CandidateSet("tax.Novelist", [("tax.Person", 0.9)])
    gw = mock_gateway(default_response="I cannot help with that.")
    verdicts = al.classify_relations(query, cands, g, gw)
    assert [v.relation for v in verdicts] == ["unrelated"]


def place_and_attach(query, verdicts, g):
    """place_concept's placement, attached to a copy of the graph."""
    parent, equivalent_to, note = al.place_concept(query, verdicts, g)
    grown = g.copy()
    ontology.attach(grown, query, parent, equivalent_to)
    return parent, equivalent_to, note, grown


def test_expand_attaches_under_parent_verdict():
    g = base_graph()
    query = Concept("Novelist", "tax", "entity", "Entity", "Writes novels.")
    verdicts = [al.RelationVerdict("tax.Person", "parent_of_query", score=0.9)]
    parent, _, _, grown = place_and_attach(query, verdicts, g)
    assert parent == "tax.Person"
    assert grown.parents["tax.Novelist"] == "tax.Person"
    assert "tax.Novelist" not in g.concepts


def test_expand_equivalent_wins_and_copies_parent():
    g = base_graph()
    query = Concept("Writer", "tax", "entity", "Entity", "Writes.")
    verdicts = [
        al.RelationVerdict("tax.Person", "parent_of_query", score=0.95),
        al.RelationVerdict("tax.Author", "equivalent", score=0.8),
    ]
    parent, equivalent_to, _, grown = place_and_attach(query, verdicts, g)
    assert equivalent_to == "tax.Author"
    assert parent == "tax.Person"  # Author's parent
    assert grown.equivalences["tax.Writer"] == {"tax.Author"}
    assert grown.canonical_concept("tax.Writer") == "tax.Author"


def test_expand_falls_back_to_kind_root():
    g = base_graph()
    query = Concept("Meeting", "tax", "event", "Event", "People convene.")
    parent, _, note, grown = place_and_attach(query, [], g)
    assert parent == "Event"
    assert grown.parents["tax.Meeting"] == "Event"
    assert "kind root" in note


def test_expand_ignores_verdicts_on_candidates_of_the_other_kind():
    g = base_graph()
    insert_concept(g, Concept("Gathering", "tax", "event", "Event", "People come together."))
    query = Concept("Meeting", "tax", "event", "Event", "People convene.")
    person = al.RelationVerdict("tax.Person", "parent_of_query", score=0.9)
    author = al.RelationVerdict("tax.Author", "equivalent", score=0.8)
    gathering = al.RelationVerdict("tax.Gathering", "parent_of_query", score=0.5)
    parent, equivalent_to, note, grown = place_and_attach(query, [person, author, gathering], g)
    assert (parent, equivalent_to) == ("tax.Gathering", None)
    assert grown.parents["tax.Meeting"] == "tax.Gathering"
    assert note == "ignored the verdicts on tax.Author, tax.Person, of another kind"
    parent, equivalent_to, note, _ = place_and_attach(query, [person, author], g)
    assert (parent, equivalent_to) == ("Event", None)
    assert note == ("ignored the verdicts on tax.Author, tax.Person, of another kind; "
                    "no informative verdicts; attached under the kind root")


def test_expand_picks_highest_cosine_among_parents():
    g = base_graph()
    query = Concept("Novelist", "tax", "entity", "Entity")
    verdicts = [
        al.RelationVerdict("tax.Building", "parent_of_query", score=0.2),
        al.RelationVerdict("tax.Person", "parent_of_query", score=0.7),
    ]
    parent, _, _, _ = place_and_attach(query, verdicts, g)
    assert parent == "tax.Person"


@given(st.lists(st.tuples(st.sampled_from(["tax.Person", "tax.Author", "tax.Building"]),
                          st.sampled_from(al.RELATIONS),
                          st.floats(-1, 1, allow_nan=False)),
                max_size=6))
@settings(max_examples=60, deadline=None)
def test_expand_preserves_forest_under_adversarial_verdicts(raw):
    g = base_graph()
    query = Concept("Fuzz", "tax", "entity", "Entity")
    verdicts = [al.RelationVerdict(c, r, score=s) for c, r, s in raw]
    _, _, _, grown = place_and_attach(query, verdicts, g)
    validate_graph(grown)
    assert "tax.Fuzz" in grown.concepts


def test_align_concept_full_pass_with_scripted_parent():
    g = base_graph()
    gw = mock_gateway({"rules": [{
        "match": "state its relation",
        "responses": ["Person: parent_of_query"],
    }]})
    query = Concept("Novelist", "tax", "entity", "Entity", "Writes novels.")
    parent, _, _ = al.make_llm_placer(gw, k=3)(query, g)
    assert parent == "tax.Person"


def test_align_concept_empty_graph_goes_to_root():
    gw = mock_gateway(default_response="unused")
    query = Concept("First", "tax", "entity", "Entity")
    g = empty_graph()
    parent, equivalent_to, _ = al.make_llm_placer(gw)(query, g)
    assert parent == "Entity"
    ontology.attach(g, query, parent, equivalent_to)
    assert g.parents["tax.First"] == "Entity"


def test_placer_refuses_a_query_named_like_its_kind_root():
    gw = mock_gateway(default_response="unused")
    query = Concept("Entity", "tax", "entity", "Entity", "Anything at all.")
    with pytest.raises(CycleDetected, match="Entity cannot be its own parent"):
        al.make_llm_placer(gw, k=2)(query, base_graph())


def test_make_llm_aligner_returns_parent_name():
    g = base_graph()
    gw = mock_gateway({"rules": [{
        "match": "state its relation",
        "responses": ["Person: parent_of_query", "Person: parent_of_query"],
    }]})
    aligner = al.make_llm_aligner(gw, k=2)
    assert aligner(Concept("Poet", "tax", "entity", "Entity", "Writes poems."), g) == "tax.Person"


@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=1, max_value=60),
       st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_retrieve_matches_cosine_ranking_on_duplicated_vectors(n, k, distinct, seed):
    rng = np.random.default_rng(seed)
    pool = [rng.standard_normal(16) for _ in range(distinct)] + [np.zeros(16)]
    index = {f"ns.C{i:04d}": pool[rng.integers(len(pool))] for i in range(n)}
    qv = pool[rng.integers(len(pool))]
    query = Concept("C0000", "ns", "entity", "Entity")  # its own row is skipped
    got = al.retrieve_candidates(query, index, k=k, query_vector=qv)
    brute = sorted(((name, cosine(qv, v)) for name, v in index.items()
                    if name != "ns.C0000"), key=lambda p: (-p[1], p[0]))[:k]
    assert [name for name, _ in got.candidates] == [name for name, _ in brute]
    for (_, a), (_, b) in zip(got.candidates, brute):
        assert abs(a - b) <= 1e-12


class CountingEmbedder(MockEmbeddingBackend):
    def __init__(self):
        super().__init__(dim=16)
        self.texts = []

    def embed(self, texts):
        self.texts.extend(texts)
        return super().embed(texts)


def counting_gateway(response="Person: parent_of_query"):
    return LlmGateway(MockChatBackend(default_response=response), CountingEmbedder(),
                      Transcript(None))


def test_aligner_embeds_only_the_concept_a_grown_graph_adds():
    gw = counting_gateway()
    aligner = al.make_llm_aligner(gw, k=2)
    g = base_graph()
    poet = Concept("Poet", "tax", "entity", "Entity", "Writes poems.")
    assert aligner(poet, g) == "tax.Person"
    assert len(gw.embedder.texts) == 3 + 1  # the ontology, then the query
    grown = g.copy()
    insert_concept(grown, Concept("Singer", "tax", "entity", "Person", "Sings."))
    gw.embedder.texts.clear()
    assert aligner(poet, grown) == "tax.Person"
    assert gw.embedder.texts == [al.embedding_text("Singer", "Sings."),
                                 al.embedding_text("Poet", "Writes poems.")]


def test_aligner_sees_a_concept_inserted_in_place():
    gw = counting_gateway()
    aligner = al.make_llm_aligner(gw, k=5)
    g = base_graph()
    poet = Concept("Poet", "tax", "entity", "Entity", "Writes poems.")
    aligner(poet, g)
    assert "class Singer" not in gw.chat_backend.calls[-1]
    insert_concept(g, Concept("Singer", "tax", "entity", "Person", "Sings."))
    gw.embedder.texts.clear()
    aligner(poet, g)
    assert "class Singer(Person)" in gw.chat_backend.calls[-1]
    assert gw.embedder.texts == [al.embedding_text("Singer", "Sings."),
                                 al.embedding_text("Poet", "Writes poems.")]


def test_aligner_gives_each_graph_its_own_candidates():
    gw = counting_gateway()
    aligner = al.make_llm_aligner(gw, k=1)
    query = Concept("Poet", "tax", "entity", "Entity", "Writes poems.")
    for i in range(50):  # a freed graph's id is soon handed to a new one
        graph = empty_graph()
        insert_concept(graph, Concept(f"Thing{i}", "tax", "entity", "Entity",
                                      f"Thing number {i}."))
        aligner(query, graph)
        assert f"class Thing{i}(Entity)" in gw.chat_backend.calls[-1]
        del graph
    other = base_graph()
    aligner(query, other)
    assert "class Thing" not in gw.chat_backend.calls[-1]


def test_aligner_takes_the_equivalents_parent_without_growing_the_graph():
    g = base_graph()
    script = {"rules": [{"match": "state its relation",
                         "responses": ["Author: equivalent\nPerson: parent_of_query"]}]}
    query = Concept("Writer", "tax", "entity", "Entity", "Writes.")
    aligner = al.make_llm_aligner(mock_gateway(script), k=3)
    assert aligner(query, g) == "tax.Person"
    assert "tax.Writer" not in g.concepts


def test_aligner_keeps_expand_errors():
    g = base_graph()
    gw = mock_gateway(default_response="Person: parent_of_query")
    aligner = al.make_llm_aligner(gw, k=3)
    with pytest.raises(DuplicateName):
        aligner(Concept("Author", "tax", "entity", "Entity", "A person who writes."), g)
    # a verdict on a candidate of the other kind is ignored, not a KindMismatch
    assert aligner(Concept("Meeting", "tax", "event", "Event", "People convene."), g) == "Event"


def test_align_without_an_embedding_backend_raises_before_any_model_call():
    gw = LlmGateway(MockChatBackend(default_response="Person: parent_of_query"))
    query = Concept("Poet", "tax", "entity", "Entity", "Writes poems.")
    with pytest.raises(BackendUnavailable, match="no embedding backend configured"):
        al.make_llm_placer(gw)(query, base_graph())
    with pytest.raises(BackendUnavailable, match="no embedding backend configured"):
        al.make_llm_aligner(gw)(query, base_graph())
    assert gw.chat_backend.calls == []


def test_aligner_embeds_appear_in_the_transcript(tmp_path):
    path = tmp_path / "calls.jsonl"
    gw = mock_gateway(default_response="Person: parent_of_query", transcript_path=str(path))
    al.make_llm_aligner(gw, k=2)(Concept("Poet", "tax", "entity", "Entity", "Writes."),
                                 base_graph())
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(row["kind"], row.get("count")) for row in rows if row["kind"] == "embed"] == [
        ("embed", 3), ("embed", 1)]
