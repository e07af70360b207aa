"""Store behavior: merge laws, queries, subgraph walks, code rendering, persistence."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdr import knowledge_store as ks
from kdr import ontology
from kdr.errors import CorruptRecord, KeyMismatch, TypeMismatch, UnknownId, UnrenderableValue
from kdr.ontology import AttributeSpec, Concept, add_concept, empty_graph
from kdr.textindex import InvertedIndex, tokenize


def research_graph():
    g = empty_graph()
    g = add_concept(g, Concept(
        "Person", "NER", "entity", "Entity", "A human.",
        attributes=[
            AttributeSpec("affiliation", "text"),
            AttributeSpec("residence", "text"),
            AttributeSpec("papers", "List[text]"),
            AttributeSpec("advisor", "Person"),
            AttributeSpec("age", "number"),
        ],
    ))
    g = add_concept(g, Concept(
        "Org", "NER", "entity", "Entity", "An organization.",
        attributes=[AttributeSpec("members", "List[Person]")],
    ))
    return g


@pytest.fixture
def graph():
    return research_graph()


@pytest.fixture
def store(graph):
    return ks.KnowledgeStore(graph)


def person(graph, name, ts=1.0, source="s1", **slots):
    return ks.make_object(graph, "NER.Person", name, slots, [(source, ts)])


def test_ids_are_stable_under_name_normalization(graph):
    a = ks.object_id(graph, "NER.Person", "Geoffrey Hinton")
    b = ks.object_id(graph, "NER.Person", "  geoffrey   HINTON. ")
    assert a == b
    assert a != ks.object_id(graph, "NER.Org", "Geoffrey Hinton")


def test_ingest_inserts_then_merges_disjoint_lists(graph, store):
    store.ingest(person(graph, "Geoffrey Hinton", ts=1.0, papers=["A"]))
    store.ingest(person(graph, "geoffrey hinton", ts=2.0, source="s2", papers=["B"]))
    assert len(store) == 1
    obj = next(iter(store.objects.values()))
    assert obj.live("papers") == ["A", "B"]
    assert obj.provenance == [("s1", 1.0), ("s2", 2.0)]
    assert obj.updated_at == 2.0


def test_list_union_preserves_first_seen_order(graph):
    a = person(graph, "P", ts=1.0, papers=["1", "2"])
    b = person(graph, "P", ts=2.0, papers=["2", "3"])
    merged = ks.merge_objects(a, b, graph)
    assert merged.live("papers") == ["1", "2", "3"]
    reverse = ks.merge_objects(b, a, graph)
    assert set(reverse.live("papers")) == {"1", "2", "3"}


def test_scalar_latest_timestamp_wins_and_history_keeps_loser(graph, store):
    store.ingest(person(graph, "P", ts=1.0, residence="Toronto"))
    obj = store.ingest(person(graph, "P", ts=2.0, source="s2", residence="London"))
    assert obj.scalar("residence") == "London"
    assert obj.history == [("residence", "Toronto", 2.0)]


def test_scalar_equal_timestamps_later_ingestion_wins(graph, store):
    store.ingest(person(graph, "P", ts=5.0, residence="Toronto"))
    obj = store.ingest(person(graph, "P", ts=5.0, source="s2", residence="London"))
    assert obj.scalar("residence") == "London"


def test_older_incoming_scalar_does_not_replace(graph, store):
    store.ingest(person(graph, "P", ts=9.0, residence="London"))
    obj = store.ingest(person(graph, "P", ts=1.0, source="s0", residence="Toronto"))
    assert obj.scalar("residence") == "London"
    assert obj.history == []


def test_merge_is_idempotent(graph):
    a = person(graph, "P", ts=3.0, residence="X", papers=["p"])
    merged = ks.merge_objects(a, a, graph)
    assert merged.slots == a.slots
    assert merged.provenance == a.provenance
    assert merged.history == []


def test_merge_rejects_key_mismatch(graph):
    with pytest.raises(KeyMismatch):
        ks.merge_objects(person(graph, "A"), person(graph, "B"), graph)


def test_type_checks(graph):
    with pytest.raises(TypeMismatch):
        ks.make_object(graph, "NER.Person", "P", {"age": "forty"}, [("s", 1.0)])
    with pytest.raises(TypeMismatch):
        ks.make_object(graph, "NER.Person", "P", {"residence": 3}, [("s", 1.0)])
    with pytest.raises(TypeMismatch):
        ks.make_object(graph, "NER.Person", "P", {"nope": "x"}, [("s", 1.0)])
    with pytest.raises(TypeMismatch):
        ks.make_object(graph, "NER.Person", "P", {"residence": ["a", "b"]}, [("s", 1.0)])


def test_query_by_name_exact_is_case_insensitive(graph, store):
    store.ingest(person(graph, "Geoffrey Hinton"))
    assert store.query_by_name("geoffrey hinton")[0].display_name == "Geoffrey Hinton"
    assert store.query_by_name("nobody") == []


def test_query_by_name_fuzzy_ranks_by_token_overlap(graph, store):
    store.ingest(person(graph, "Geoffrey Hinton", affiliation="Toronto"))
    store.ingest(person(graph, "Geoffrey Irving"))
    store.ingest(person(graph, "Ada Lovelace"))
    hits = store.query_by_name("Geoffrey Hinton", fuzzy=True)
    assert [o.display_name for o in hits] == ["Geoffrey Hinton", "Geoffrey Irving"]


def test_fulltext_search_matches_brute_force_tfidf(graph, store):
    texts = {
        "alpha": "deep learning pioneers",
        "bravo": "learning to rank documents",
        "carol": "deep sea biology",
        "дader": "quantum computing advances",
        "echo": "deep deep learning",
    }
    for name, blob in texts.items():
        store.ingest(person(graph, name, affiliation=blob))

    query = "deep learning"
    ids = {name: ks.object_id(graph, "NER.Person", name) for name in texts}
    docs = {ids[name]: tokenize(name + " " + blob) for name, blob in texts.items()}
    n = len(docs)
    expected = {}
    for doc_id, tokens in docs.items():
        score = 0.0
        for term in set(tokenize(query)):
            tf = tokens.count(term)
            if tf:
                df = sum(1 for t in docs.values() if term in t)
                score += tf * (1.0 + math.log(n / df))
        if score:
            expected[doc_id] = score
    want = sorted(expected.items(), key=lambda kv: (-kv[1], kv[0]))
    assert store.fulltext_search(query, limit=10) == want


def test_fulltext_no_token_match_is_empty(graph, store):
    store.ingest(person(graph, "Solo"))
    assert store.fulltext_search("zzz qqq") == []


def chain_store(graph):
    store = ks.KnowledgeStore(graph)
    a = person(graph, "A")
    b = person(graph, "B")
    c = person(graph, "C")
    a.slots["advisor"] = [ks.SlotValue(ks.Ref(b.id))]
    b.slots["advisor"] = [ks.SlotValue(ks.Ref(c.id))]
    store.ingest_all([a, b, c])
    return store, a, b, c


def test_subgraph_hops(graph):
    store, a, b, c = chain_store(graph)
    assert [o.id for o in store.subgraph([a.id], hops=0)] == [a.id]
    assert [o.id for o in store.subgraph([a.id], hops=1)] == [a.id, b.id]
    assert {o.id for o in store.subgraph([a.id], hops=2)} == {a.id, b.id, c.id}
    # inbound edges count too
    assert {o.id for o in store.subgraph([c.id], hops=1)} == {c.id, b.id}
    with pytest.raises(UnknownId):
        store.subgraph(["missing"], hops=1)


def test_subgraph_diamond_closure(graph):
    store = ks.KnowledgeStore(graph)
    top = person(graph, "Top")
    left = person(graph, "Left")
    right = person(graph, "Right")
    bottom = person(graph, "Bottom")
    top.slots["advisor"] = [ks.SlotValue(ks.Ref(left.id))]
    left.slots["advisor"] = [ks.SlotValue(ks.Ref(bottom.id))]
    right.slots["advisor"] = [ks.SlotValue(ks.Ref(bottom.id))]
    store.ingest_all([top, left, right, bottom])
    ids = [o.display_name for o in store.subgraph([top.id], hops=2)]
    assert ids == ["Top", "Left", "Bottom"]
    assert {o.display_name for o in store.subgraph([top.id], hops=3)} == {
        "Top", "Left", "Right", "Bottom"
    }


def test_settle_resolves_display_name_references(graph, store):
    advisor = person(graph, "Mentor Prime")
    student = person(graph, "Student", advisor="Mentor Prime")
    store.ingest_all([student, advisor])
    assert store.settle() == 1
    value = store.get(student.id).scalar("advisor")
    assert value == ks.Ref(advisor.id)
    assert store.settle() == 0


def test_settle_tie_break_and_equivalence_only_match():
    g = research_graph()
    g = add_concept(g, Concept("Scientist", "NER", "entity", "Person", "A researcher."))
    g = add_concept(g, Concept("Agent", "NER", "entity", "Entity", "Acts for others."))
    g = add_concept(g, Concept("Human", "NER", "entity", "Entity", "A human being.",
                               equivalents=["Agent"]))
    g = add_concept(g, Concept("Lab", "NER", "entity", "Entity", "A laboratory.",
                               attributes=[AttributeSpec("head", "Human")]))
    store = ks.KnowledgeStore(g)
    # "Ada" exists as a Person and as a Scientist (a descendant of Person):
    # both qualify, and the smaller id wins
    as_person = person(g, "Ada")
    as_scientist = ks.make_object(g, "NER.Scientist", "ada", {}, [("s1", 1.0)])
    student = person(g, "Student", advisor="Ada")
    # "Bob" is stored under NER.Agent, the canonical label of the Agent/Human
    # class; Lab.head wants a Human, which only equivalence connects to Agent
    bob = ks.make_object(g, "NER.Human", "Bob", {}, [("s1", 1.0)])
    assert bob.concept == "NER.Agent"
    lab = ks.make_object(g, "NER.Lab", "Lab One", {"head": "Bob"}, [("s1", 1.0)])
    store.ingest_all([student, as_scientist, lab, as_person, bob])

    assert store.settle() == 2
    assert as_person.id != as_scientist.id
    assert store.get(student.id).scalar("advisor") == ks.Ref(min(as_person.id, as_scientist.id))
    assert store.get(lab.id).scalar("head") == ks.Ref(bob.id)


def test_render_declaration_minimal(graph):
    obj = ks.make_object(graph, "NER.Person", "Ada", {}, [("s", 1.0)])
    code = ks.render_declaration_code([obj], graph)
    assert code == 'o0 = Person(name="Ada")\nsearch_results = [o0]'


def test_render_declares_referee_before_referrer(graph):
    b = person(graph, "B")
    a = person(graph, "A")
    a.slots["advisor"] = [ks.SlotValue(ks.Ref(b.id))]
    code = ks.render_declaration_code([a, b], graph)
    lines = code.split("\n")
    assert lines[0] == 'o0 = Person(name="B")'
    assert lines[1] == 'o1 = Person(name="A", advisor=o0)'
    assert lines[2] == "search_results = [o1, o0]"


def test_render_external_ref_uses_display_name_or_fails(graph):
    a = person(graph, "A")
    a.slots["advisor"] = [ks.SlotValue(ks.Ref("deadbeef"))]
    with pytest.raises(UnrenderableValue):
        ks.render_declaration_code([a], graph)
    code = ks.render_declaration_code([a], graph, resolve_external=lambda _id: "Ext Name")
    assert 'advisor="Ext Name"' in code


def test_render_cycle_degrades_to_name_string(graph):
    a = person(graph, "A")
    b = person(graph, "B")
    a.slots["advisor"] = [ks.SlotValue(ks.Ref(b.id))]
    b.slots["advisor"] = [ks.SlotValue(ks.Ref(a.id))]
    code = ks.render_declaration_code([a, b], graph, resolve_external=lambda i: None)
    assert 'o0 = Person(name="A", advisor="B")' in code
    assert "o1 = Person(name=\"B\", advisor=o0)" in code


def test_render_list_attribute(graph):
    p = person(graph, "Ada", papers=["On X", "On Y"])
    code = ks.render_declaration_code([p], graph)
    assert 'papers=["On X", "On Y"]' in code


def test_save_load_round_trip(tmp_path, graph, store):
    store.ingest(person(graph, "Geoffrey Hinton", ts=1.0, papers=["A"], residence="Toronto"))
    store.ingest(person(graph, "Geoffrey Hinton", ts=2.0, source="s2", residence="London"))
    store.ingest(person(graph, "Ada Lovelace", age=36))
    path = tmp_path / "kb.jsonl"
    ks.save(store, str(path))
    loaded = ks.load(str(path), graph)
    assert loaded.objects == store.objects


def test_save_empty_store_is_empty_file(tmp_path, graph, store):
    path = tmp_path / "kb.jsonl"
    ks.save(store, str(path))
    assert path.read_text() == ""


def test_load_reports_corrupt_line_number(tmp_path, graph, store):
    store.ingest(person(graph, "Ada"))
    path = tmp_path / "kb.jsonl"
    ks.save(store, str(path))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"id": "x", "concept"\n')
    with pytest.raises(CorruptRecord) as err:
        ks.load(str(path), graph)
    assert "line 2" in str(err.value)


def test_index_rejects_duplicate_doc_id():
    index = InvertedIndex()
    index.add("a", "text")
    with pytest.raises(ValueError):
        index.add("a", "more")


def test_index_rejects_a_duplicate_after_many_inserts():
    index = InvertedIndex()
    for i in range(500):
        index.add(f"d{i}", f"word{i}")
    with pytest.raises(ValueError):
        index.add("d7", "again")
    assert len(index) == 500
    assert index.search("word7") == [("d7", 1.0 + math.log(500))]


@given(docs=st.lists(st.lists(st.sampled_from(["ada", "engine", "notes", "loom", "x1"]),
                              max_size=6), min_size=1, max_size=12),
       query=st.lists(st.sampled_from(["ada", "engine", "loom", "zz"]), max_size=4))
@settings(max_examples=60, deadline=None)
def test_index_ranking_matches_the_pinned_formula(docs, query):
    index = InvertedIndex()
    for i, words in enumerate(docs):
        index.add(f"d{i:02d}", " ".join(words))
    n = len(docs)
    expected = {}
    for token in set(query):
        holders = [i for i, words in enumerate(docs) if token in words]
        for i in holders:
            score = docs[i].count(token) * (1 + math.log(n / len(holders)))
            expected[f"d{i:02d}"] = expected.get(f"d{i:02d}", 0.0) + score
    ranked = index.search(" ".join(query))
    assert [doc for doc, _ in ranked] == sorted(expected, key=lambda d: (-round(expected[d], 9), d))
    assert all(math.isclose(score, expected[doc]) for doc, score in ranked)


# -- property tests ------------------------------------------------------------------

value_lists = st.lists(st.sampled_from(["u", "v", "w", "x", "y"]), max_size=4)


@given(first=value_lists, second=value_lists, ts=st.floats(1, 9))
@settings(max_examples=60, deadline=None)
def test_list_merge_is_set_union_regardless_of_direction(first, second, ts):
    graph = research_graph()
    a = ks.make_object(graph, "NER.Person", "P", {"papers": first}, [("s1", ts)])
    b = ks.make_object(graph, "NER.Person", "P", {"papers": second}, [("s2", ts + 1)])
    ab = ks.merge_objects(a, b, graph)
    ba = ks.merge_objects(b, a, graph)
    assert set(ab.live("papers")) == set(first) | set(second)
    assert set(ab.live("papers")) == set(ba.live("papers"))
    again = ks.merge_objects(ab, b, graph)
    assert again.live("papers") == ab.live("papers")
