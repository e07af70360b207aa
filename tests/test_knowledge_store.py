"""Store behavior: merge laws, queries, subgraph walks, code rendering, persistence."""

import copy
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdr import knowledge_store as ks
from kdr import textindex
from kdr.errors import CorruptRecord, KeyMismatch, TypeMismatch, UnknownId, UnrenderableValue
from kdr.ontology import AttributeSpec, Concept, empty_graph, insert_concept
from kdr.textindex import InvertedIndex, tokenize


def research_graph():
    g = empty_graph()
    insert_concept(g, Concept(
        "Person", "NER", "entity", "Entity", "A human.",
        attributes=[
            AttributeSpec("affiliation", "text"),
            AttributeSpec("residence", "text"),
            AttributeSpec("papers", "List[text]"),
            AttributeSpec("advisor", "Person"),
            AttributeSpec("age", "number"),
        ],
    ))
    insert_concept(g, Concept(
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


def test_make_object_checks_slots_as_validate_object_does(graph):
    with pytest.raises(TypeMismatch, match=r"NER.Person.age is scalar but holds 2 values"):
        person(graph, "Ada", age=[1, 2])
    with pytest.raises(TypeMismatch, match="NER.Person has no attribute 'shoe_size'"):
        person(graph, "Ada", shoe_size=[])
    assert person(graph, "Ada", papers=[], age=36).slots.keys() == {"age"}


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


def fulltext_search(store, query, limit=10):
    """Ranked search over the store's token index, the view fuzzy name lookups read."""
    return store._view(store._tokens).search(query, limit=limit)


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
    assert fulltext_search(store, query, limit=10) == want


def test_fulltext_no_token_match_is_empty(graph, store):
    store.ingest(person(graph, "Solo"))
    assert fulltext_search(store, "zzz qqq") == []


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
    insert_concept(g, Concept("Scientist", "NER", "entity", "Person", "A researcher."))
    insert_concept(g, Concept("Agent", "NER", "entity", "Entity", "Acts for others."))
    insert_concept(g, Concept("Human", "NER", "entity", "Entity", "A human being."))
    g.add_equivalence("Human", "Agent", "NER")
    insert_concept(g, Concept("Lab", "NER", "entity", "Entity", "A laboratory.",
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


def test_render_order_with_a_cycle_is_pinned(graph):
    # a and b cite each other, c cites a, d cites nothing: d goes first, then
    # the stalled sweep forces a, the first leftover, and b and c follow.
    a, b, c, d = (person(graph, n) for n in "ABCD")
    a.slots["advisor"] = [ks.SlotValue(ks.Ref(b.id))]
    b.slots["advisor"] = [ks.SlotValue(ks.Ref(a.id))]
    c.slots["advisor"] = [ks.SlotValue(ks.Ref(a.id))]
    code = ks.render_declaration_code([a, b, c, d], graph, resolve_external=lambda i: None)
    assert code.split("\n") == [
        'o0 = Person(name="D")',
        'o1 = Person(name="A", advisor="B")',
        'o2 = Person(name="B", advisor=o1)',
        'o3 = Person(name="C", advisor=o1)',
        "search_results = [o1, o2, o3, o0]",
    ]


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


def test_index_ranking_does_not_depend_on_the_string_hash_seed():
    # idf(x) == idf(y), so a (x x z z) and b (x y z z) tie; summed in another
    # token order, b's score can land an ulp away from a's and flip the tiebreak
    code = ("from kdr.textindex import InvertedIndex\n"
            "index = InvertedIndex()\n"
            "for doc in ['a x x z z', 'b x y z z', 'c y', 'd z', 'e w']:\n"
            "    index.add(doc[0], doc[2:])\n"
            "print([doc for doc, _ in index.search('x y z')])\n")
    src = str(Path(textindex.__file__).resolve().parent.parent)
    rankings = {subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)).stdout
        for seed in range(8)}
    assert rankings == {"['a', 'b', 'c', 'd']\n"}


def test_index_ranks_scores_equal_in_exact_arithmetic_by_id():
    # d04, d08 and d09 each score (1 + ln 10/7) + 2 (1 + ln 10/6); d09's float
    # sum (one loom counted twice) lands an ulp above the other two
    docs = ["ada", "ada", "ada loom", "engine loom", "ada engine loom", "engine",
            "ada engine", "engine loom", "ada engine loom", "ada loom loom"]
    index = InvertedIndex()
    for i, text in enumerate(docs):
        index.add(f"d{i:02d}", text)
    ranked = index.search("ada engine loom")
    assert [doc for doc, _ in ranked[:3]] == ["d04", "d08", "d09"]
    tied = 2 * (1 + math.log(10 / 6)) + 1 + math.log(10 / 7)
    assert all(math.isclose(score, tied) for _, score in ranked[:3])
    assert index.search("ada engine loom", limit=2) == ranked[:2]


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


@given(docs=st.lists(st.sampled_from(["ada", "ada engine", "engine", "loom ada", "x1"]),
                     min_size=1, max_size=30),
       query=st.sampled_from(["ada", "engine", "ada loom", "zz"]),
       limit=st.integers(0, 35))
@settings(max_examples=80, deadline=None)
def test_index_limit_equals_sorting_then_slicing(docs, query, limit):
    index = InvertedIndex()
    for i, text in enumerate(docs):
        index.add(f"d{i:02d}", text)
    full = index.search(query)
    assert index.search(query, limit=limit) == sorted(full, key=lambda kv: (-kv[1], kv[0]))[:limit]


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


# -- lookup views against brute force --------------------------------------------------
# The references below are the store's lookups as whole-store scans, built anew
# on every call; the store serves the same lookups from views it keeps between
# changes, so any view that outlives a change shows up as a mismatch.


def _text_of(obj):
    parts = [obj.display_name]
    for values in obj.slots.values():
        for sv in values:
            if isinstance(sv.value, str):
                parts.append(sv.value)
    return " ".join(parts)


def reference_exact(store, name):
    wanted = ks.normalize_name(name)
    matches = [o for o in store.objects.values() if ks.normalize_name(o.display_name) == wanted]
    return [o.id for o in sorted(matches, key=lambda o: (o.display_name, o.id))]


def reference_fuzzy(store, name):
    query_tokens = set(tokenize(name))
    scored = []
    for obj in store.objects.values():
        overlap = len(query_tokens & set(tokenize(_text_of(obj))))
        if overlap:
            scored.append((obj, overlap))
    scored.sort(key=lambda pair: (-pair[1], pair[0].display_name, pair[0].id))
    return [obj.id for obj, _ in scored]


def reference_fulltext(store, query, limit):
    index = InvertedIndex()
    for obj_id in sorted(store.objects):
        index.add(obj_id, _text_of(store.objects[obj_id]))
    return index.search(query, limit=limit)


def reference_subgraph(store, seed_ids, hops):
    inbound = {}
    for obj_id in sorted(store.objects):
        for attr in sorted(store.objects[obj_id].slots):
            for sv in store.objects[obj_id].slots[attr]:
                if isinstance(sv.value, ks.Ref):
                    inbound.setdefault(sv.value.id, []).append(obj_id)
    seen = dict.fromkeys(seed_ids)
    frontier = list(seed_ids)
    for _ in range(hops):
        next_frontier = []
        for obj_id in frontier:
            obj = store.objects[obj_id]
            neighbors = []
            for attr in sorted(obj.slots):
                for sv in obj.slots[attr]:
                    if isinstance(sv.value, ks.Ref) and sv.value.id in store.objects:
                        neighbors.append(sv.value.id)
            neighbors.extend(inbound.get(obj_id, []))
            for n in neighbors:
                if n not in seen:
                    seen[n] = None
                    next_frontier.append(n)
        if not next_frontier:
            break
        frontier = next_frontier
    return list(seen)


def reference_groups(store):
    by_name = {}
    for obj in store.objects.values():
        by_name.setdefault(ks.normalize_name(obj.display_name), []).append(obj.id)
    return {name: sorted(ids) for name, ids in by_name.items()}


def reference_settle(graph, objects):
    """Resolve ref-slot strings in place over a copy of the objects; returns the count."""
    by_name = {}
    for obj in objects.values():
        by_name.setdefault(ks.normalize_name(obj.display_name), []).append((obj.id, obj.concept))
    resolved = 0
    for obj in objects.values():
        targets = dict(graph.targets(obj.concept))  # fixed when the concept was inserted
        for attr, values in obj.slots.items():
            if attr not in targets:  # a scalar slot
                continue
            target = targets[attr]
            for sv in values:
                if not isinstance(sv.value, str):
                    continue
                hits = [i for i, q in by_name.get(ks.normalize_name(sv.value), ())
                        if q == target or graph.is_descendant(q, target)
                        or target in graph.equivalence_class(q)]
                if hits:
                    sv.value = ks.Ref(min(hits))
                    resolved += 1
    return resolved


def test_settle_matches_the_oracle_across_namespaces():
    # C.Author inherits A.Person's employer slot, whose type Org named A.Org at insert
    g = empty_graph()
    insert_concept(g, Concept("Org", "A", "entity", "Entity", "An organization."))
    insert_concept(g, Concept("Person", "A", "entity", "Entity", "A human.",
                              attributes=[AttributeSpec("employer", "Org")]))
    insert_concept(g, Concept("Org", "C", "entity", "Entity", "Another organization."))
    insert_concept(g, Concept("Author", "C", "entity", "Person", "A writer."))
    store = ks.KnowledgeStore(g)
    a_org, c_org, author, person = (
        ks.make_object(g, concept, name, slots, [("s", 1.0)]) for concept, name, slots in (
            ("A.Org", "Acme", {}), ("C.Org", "Acme", {}),
            ("C.Author", "Ann", {"employer": "Acme"}), ("A.Person", "Bo", {"employer": "acme"})))
    store.ingest_all([a_org, c_org, author, person])
    expected = {i: copy.deepcopy(o) for i, o in store.objects.items()}
    assert store.settle() == reference_settle(g, expected) == 2
    assert store.objects == expected
    assert store.objects[author.id].live("employer") == [ks.Ref(a_org.id)]


def views_graph():
    g = research_graph()
    insert_concept(g, Concept("Scientist", "NER", "entity", "Person", "A researcher."))
    insert_concept(g, Concept("Agent", "NER", "entity", "Entity", "Acts for others."))
    insert_concept(g, Concept("Human", "NER", "entity", "Entity", "A human being."))
    g.add_equivalence("Human", "Agent", "NER")
    insert_concept(g, Concept("Lab", "NER", "entity", "Entity", "A laboratory.",
                              attributes=[AttributeSpec("head", "Human")]))
    return g


BASE_NAMES = ["Ada Lovelace", "Charles Babbage", "Grace", "Mary Somerville", "Lab One"]

names = st.builds(
    lambda base, case, gap, left, right: left + getattr(base, case)().replace(" ", gap) + right,
    st.sampled_from(BASE_NAMES), st.sampled_from(["strip", "upper", "lower", "title"]),
    st.sampled_from([" ", "  ", "\t"]), st.sampled_from(["", " ", "(", "'"]),
    st.sampled_from(["", ".", "!", ")", ", "]),
)
queries = st.one_of(names, st.sampled_from(["lovelace grace", "Babbage!", "engine", "zzz",
                                            "analytical Engine", "Paris"]))
ingests = st.one_of(
    st.tuples(st.just("NER.Person"), names,
              st.fixed_dictionaries({}, optional={
                  "advisor": names, "affiliation": st.sampled_from(["Analytical Engine", "Paris"]),
                  "papers": st.lists(st.sampled_from(["engine notes", "grace"]), max_size=2)})),
    st.tuples(st.just("NER.Scientist"), names, st.fixed_dictionaries({}, optional={
        "advisor": names})),
    st.tuples(st.just("NER.Human"), names, st.just({})),
    st.tuples(st.just("NER.Lab"), names, st.fixed_dictionaries({}, optional={"head": names})),
    st.tuples(st.just("NER.Org"), names, st.fixed_dictionaries({}, optional={
        "members": st.lists(names, max_size=3)})),
)
operations = st.lists(st.one_of(
    st.tuples(st.just("ingest"), ingests),
    st.tuples(st.just("settle"), st.none()),
    st.tuples(st.just("exact"), queries),
    st.tuples(st.just("fuzzy"), queries),
    st.tuples(st.just("fulltext"), st.tuples(queries, st.integers(1, 4))),
    st.tuples(st.just("subgraph"), st.tuples(st.integers(0, 50), st.integers(0, 3))),
    st.tuples(st.just("groups"), st.none()),
), max_size=30)


@given(ops=operations)
@settings(max_examples=150, deadline=None)
def test_lookups_match_brute_force_across_ingest_and_settle(ops):
    graph = views_graph()
    store = ks.KnowledgeStore(graph)
    for step, (op, arg) in enumerate(ops):
        if op == "ingest":
            concept, name, slots = arg
            store.ingest(ks.make_object(graph, concept, name, slots, [(f"s{step}", step)]))
        elif op == "settle":
            expected = {i: copy.deepcopy(o) for i, o in store.objects.items()}
            count = reference_settle(graph, expected)
            assert store.settle() == count
            assert store.objects == expected
        elif op == "exact":
            assert [o.id for o in store.query_by_name(arg)] == reference_exact(store, arg)
        elif op == "fuzzy":
            assert [o.id for o in store.query_by_name(arg, fuzzy=True)] == reference_fuzzy(store, arg)
        elif op == "fulltext":
            query, limit = arg
            assert fulltext_search(store, query, limit) == reference_fulltext(store, query, limit)
        elif op == "subgraph" and store.objects:
            pick, hops = arg
            seed = sorted(store.objects)[pick % len(store.objects)]
            got = [o.id for o in store.subgraph([seed], hops=hops)]
            assert got == reference_subgraph(store, [seed], hops)
        elif op == "groups":
            assert {n: sorted(ids) for n, ids in store.ids_by_name().items()} == \
                reference_groups(store)


def test_concurrent_lookups_build_each_view_once(monkeypatch):
    graph = views_graph()

    def fill(store):
        people = [person(graph, f"Person {i}", affiliation=f"Lab {i % 7}",
                         advisor=f"Person {(i * 5) % 60}") for i in range(60)]
        store.ingest_all(people)
        store.settle()
        return store

    def lookups(store):
        out = []
        for i in range(0, 60, 6):
            out.append([o.id for o in store.query_by_name(f"person {i}")])
            out.append([o.id for o in store.query_by_name(f"lab {i % 7}", fuzzy=True)])
            seed = store.query_by_name(f"Person {i}")[0].id
            out.append([o.id for o in store.subgraph([seed], hops=2)])
        return out

    serial = lookups(fill(ks.KnowledgeStore(graph)))
    store = fill(ks.KnowledgeStore(graph))
    builds = []
    for name in ("_names", "_tokens", "_inbound"):
        original = getattr(ks.KnowledgeStore, name)

        def counted(self, _original=original):
            builds.append(_original.__name__)
            time.sleep(0.01)  # widen the window in which a second build could start
            return _original(self)

        counted.__name__ = original.__name__
        monkeypatch.setattr(ks.KnowledgeStore, name, counted)

    barrier = threading.Barrier(8)
    results = [None] * 8

    def worker(slot):
        barrier.wait(timeout=10)
        results[slot] = lookups(store)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(result == serial for result in results)
    assert sorted(builds) == ["_inbound", "_names", "_tokens"]


def test_load_rejects_a_row_its_ontology_does_not_allow(tmp_path, graph, store):
    store.ingest(person(graph, "Ada", age=36))
    path = tmp_path / "kb.jsonl"
    ks.save(store, str(path))
    row = ks.object_row(person(graph, "Charles"))
    row["slots"]["shoe_size"] = [{"value": 44, "provenance_index": 0}]
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row) + "\n")
    with pytest.raises(CorruptRecord, match="has no attribute 'shoe_size'") as err:
        ks.load(str(path), graph)
    assert err.value.line_number == 2 and str(path) in str(err.value)


def test_load_keeps_a_line_separator_inside_a_value(tmp_path, graph, store):
    store.ingest(person(graph, "Ada", papers=["Notes on the Engine"]))
    path = tmp_path / "kb.jsonl"
    ks.save(store, str(path))
    assert ks.load(str(path), graph).objects == store.objects


def _append_row(path, obj):
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(ks.object_row(obj)) + "\n")


def test_load_rejects_a_reference_to_an_id_the_file_lacks(tmp_path, graph, store):
    store.ingest(person(graph, "Ada", age=36))
    path = tmp_path / "kb.jsonl"
    ks.save(store, str(path))
    _append_row(path, person(graph, "Charles", advisor=ks.Ref("nope")))
    with pytest.raises(CorruptRecord, match="'nope'") as err:
        ks.load(str(path), graph)
    assert err.value.line_number == 2 and str(path) in str(err.value)


def test_load_accepts_a_reference_to_a_later_row(tmp_path, graph, store):
    ada = person(graph, "Ada")
    store.ingest(person(graph, "Charles", advisor=ks.Ref(ada.id)))
    store.ingest(ada)
    path = tmp_path / "kb.jsonl"
    ks.save(store, str(path))
    assert ks.load(str(path), graph).objects == store.objects


def test_load_rejects_a_repeated_id(tmp_path, graph, store):
    store.ingest(person(graph, "Ada", age=36))
    path = tmp_path / "kb.jsonl"
    ks.save(store, str(path))
    _append_row(path, person(graph, "Ada", age=40))
    with pytest.raises(CorruptRecord, match="repeated id") as err:
        ks.load(str(path), graph)
    assert err.value.line_number == 2 and str(path) in str(err.value)
