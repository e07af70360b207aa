"""Ontology graph: construction, rendering, hierarchy math, persistence."""

import ast
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kdr import ontology
from kdr.errors import (
    AmbiguousName,
    CycleDetected,
    DuplicateAttribute,
    DuplicateName,
    EmptyImport,
    KdrError,
    KindMismatch,
    ParseFailure,
    SchemaViolation,
    UnknownConcept,
    UnknownParent,
)
from kdr.ontology import AttributeSpec, Concept, empty_graph, insert_concept

from graph_checks import validate_graph


def build(*concepts):
    g = empty_graph()
    for c in concepts:
        insert_concept(g, c)
    return g


def person_graph():
    return build(
        Concept(
            name="Person",
            namespace="NER",
            kind="entity",
            parent="Entity",
            description="A human individual.",
            attributes=[AttributeSpec("affiliation", "text")],
        )
    )


def test_render_person_class_code():
    g = person_graph()
    assert ontology.render_class_code(g, "Person") == (
        "class Person(Entity):\n"
        '    """A human individual.\n'
        "    Examples:\n"
        '    """\n'
        "    def __init__(self, name: text, affiliation: text): ..."
    )


def test_render_includes_examples_and_inherited_attributes():
    g = build(
        Concept("Person", "NER", "entity", "Entity", "A human.", ["Alice", "Bob"],
                [AttributeSpec("affiliation", "text")]),
        Concept("Author", "NER", "entity", "Person", "Writes things.",
                attributes=[AttributeSpec("works", "List[text]")]),
    )
    code = ontology.render_class_code(g, "Author")
    assert code == (
        "class Author(Person):\n"
        '    """Writes things.\n'
        "    Examples:\n"
        '    """\n'
        "    def __init__(self, name: text, affiliation: text, works: List[text]): ..."
    )
    person = ontology.render_class_code(g, "Person")
    assert "    Examples:\n    Alice\n    Bob\n" in person


def test_event_constructor_starts_with_trigger():
    g = build(
        Concept("Attack", "ED", "event", "Event", "A violent act.",
                attributes=[AttributeSpec("place", "text")])
    )
    assert "def __init__(self, trigger: text, place: text): ..." in (
        ontology.render_class_code(g, "Attack")
    )


def test_parse_class_code_round_trip():
    g = build(
        Concept("Person", "NER", "entity", "Entity", "A human.", ["Alice"],
                [AttributeSpec("affiliation", "text"), AttributeSpec("age", "number")]),
    )
    code = ontology.render_class_code(g, "Person")
    parsed = ontology.parse_class_code(code)
    assert parsed["name"] == "Person"
    assert parsed["parent"] == "Entity"
    assert parsed["description"] == "A human."
    assert parsed["examples"] == ["Alice"]
    assert [(a.name, a.type) for a in parsed["attributes"]] == [
        ("name", "text"), ("affiliation", "text"), ("age", "number")
    ]
    rebuilt = ontology._render_class(
        parsed["name"], parsed["parent"], parsed["description"],
        parsed["examples"], parsed["attributes"],
    )
    assert rebuilt == code


@pytest.mark.parametrize("bad", [
    "class lower(Entity):",
    "class P(Entity):\n    missing docstring",
    'class P(Entity):\n    """d\n    Examples:\n    """\n    def __init__(self): pass',
])
def test_parse_class_code_rejects_malformed(bad):
    with pytest.raises(ParseFailure):
        ontology.parse_class_code(bad)


def test_description_newlines_collapse_to_spaces():
    c = Concept("P", "ns", "entity", "Entity", "line one\nline two\n")
    assert c.description == "line one line two"


def four_node_graph():
    return build(
        Concept("A", "ns", "entity", "Entity"),
        Concept("B", "ns", "entity", "A"),
        Concept("C", "ns", "entity", "A"),
    )


def test_depth_roots_are_one():
    g = four_node_graph()
    assert ontology.depth(g, "Entity") == 1
    assert ontology.depth(g, "A") == 2
    assert ontology.depth(g, "B") == 3


def test_lowest_common_ancestor():
    g = four_node_graph()
    assert ontology.lowest_common_ancestor(g, "B", "C") == "ns.A"
    assert ontology.lowest_common_ancestor(g, "B", "A") == "ns.A"
    assert ontology.lowest_common_ancestor(g, "B", "Entity") == "Entity"


def test_wu_palmer_hand_values():
    g = four_node_graph()
    assert ontology.wu_palmer(g, "B", "C") == pytest.approx(2 * 2 / (3 + 3))
    assert ontology.wu_palmer(g, "Entity", "B") == pytest.approx(0.5)
    assert ontology.wu_palmer(g, "B", "B") == 1.0


def test_wu_palmer_rejects_cross_kind():
    g = build(
        Concept("P", "ns", "entity", "Entity"),
        Concept("E", "ns", "event", "Event"),
    )
    with pytest.raises(KindMismatch):
        ontology.wu_palmer(g, "P", "E")


def test_duplicate_name_rejected():
    g = person_graph()
    with pytest.raises(DuplicateName):
        insert_concept(g, Concept("Person", "NER", "entity", "Entity"))


def test_same_name_other_namespace_is_fine_but_ambiguous_unqualified():
    g = build(
        Concept("Person", "NER", "entity", "Entity"),
        Concept("Person", "RE", "entity", "Entity"),
    )
    assert g.resolve("Person", namespace="RE") == "RE.Person"
    assert g.resolve("NER.Person") == "NER.Person"
    with pytest.raises(AmbiguousName):
        g.resolve("Person")


def test_unknown_parent_and_kind_mismatch():
    g = person_graph()
    with pytest.raises(UnknownParent):
        insert_concept(g, Concept("X", "NER", "entity", "Nope"))
    with pytest.raises(KindMismatch):
        insert_concept(g, Concept("X", "NER", "event", "Person"))
    with pytest.raises(KindMismatch):
        insert_concept(g, Concept("X", "NER", "entity", "Event"))


def test_self_parent_is_a_cycle():
    with pytest.raises(CycleDetected):
        insert_concept(empty_graph(), Concept("X", "ns", "entity", "X"))


def test_duplicate_attribute_rejected_locally_and_against_inherited():
    with pytest.raises(DuplicateAttribute):
        insert_concept(empty_graph(), Concept(
            "X", "ns", "entity", "Entity",
            attributes=[AttributeSpec("a", "text"), AttributeSpec("a", "number")],
        ))
    g = person_graph()
    with pytest.raises(DuplicateAttribute):
        insert_concept(g, Concept(
            "Author", "NER", "entity", "Person",
            attributes=[AttributeSpec("affiliation", "text")],
        ))
    with pytest.raises(DuplicateAttribute):
        insert_concept(g, Concept(
            "Author", "NER", "entity", "Person",
            attributes=[AttributeSpec("name", "text")],
        ))


def test_ref_attribute_must_resolve():
    g = person_graph()
    insert_concept(g, Concept(
        "Paper", "NER", "entity", "Entity",
        attributes=[AttributeSpec("authors", "List[Person]")],
    ))
    with pytest.raises(UnknownConcept):
        insert_concept(g, Concept(
            "Bad", "NER", "entity", "Entity",
            attributes=[AttributeSpec("thing", "Missing")],
        ))


def test_self_referential_attribute_is_allowed():
    g = empty_graph()
    insert_concept(g, Concept(
        "Person", "ns", "entity", "Entity",
        attributes=[AttributeSpec("mentor", "Person")],
    ))
    assert "mentor" in ontology.render_class_code(g, "Person")


def test_equivalence_canonical_is_smallest_qualified_name():
    g = build(
        Concept("Person", "NER", "entity", "Entity"),
        Concept("Human", "RE", "entity", "Entity"),
    )
    g.add_equivalence("NER.Person", "RE.Human")
    assert g.canonical_concept("RE.Human") == "NER.Person"
    assert g.canonical_concept("NER.Person") == "NER.Person"
    assert g.equivalence_class("RE.Human") == {"NER.Person", "RE.Human"}


def test_equivalence_rejects_cross_kind():
    g = build(
        Concept("P", "ns", "entity", "Entity"),
        Concept("E", "ns", "event", "Event"),
    )
    with pytest.raises(KindMismatch):
        g.add_equivalence("P", "E")


def test_import_clause_rendering():
    g = build(
        Concept("Person", "NER", "entity", "Entity"),
        Concept("Organization", "NER", "entity", "Entity"),
    )
    clause = ontology.render_import_clause(g, "NER", ["Person", "Organization"])
    assert clause == "From NER Import Person, Organization"
    with pytest.raises(EmptyImport):
        ontology.render_import_clause(g, "NER", [])
    with pytest.raises(UnknownConcept):
        ontology.render_import_clause(g, "NER", ["Ghost"])


def test_document_round_trip(tmp_path):
    g = build(
        Concept("Person", "NER", "entity", "Entity", "A human.", ["Alice"],
                [AttributeSpec("affiliation", "text", "employer name")]),
        Concept("Author", "NER", "entity", "Person"),
        Concept("Human", "RE", "entity", "Entity"),
    )
    g.add_equivalence("NER.Person", "RE.Human")
    path = tmp_path / "onto.json"
    ontology.save_ontology(g, str(path))
    loaded = ontology.load_ontology(str(path))
    assert set(loaded.concepts) == set(g.concepts)
    assert loaded.parents == g.parents
    assert loaded.equivalences == g.equivalences
    assert loaded.concepts["NER.Person"].attributes[0].doc == "employer name"


def test_loader_accepts_forward_parent_references():
    doc = {"namespaces": {"ns": [
        {"name": "Child", "kind": "entity", "parent": "Base"},
        {"name": "Base", "kind": "entity", "parent": "Entity"},
    ]}}
    g = ontology.graph_from_document(doc)
    assert g.parents["ns.Child"] == "ns.Base"


def test_loader_concept_order_is_pinned():
    # Concepts are placed in sweeps over the document order; within a sweep a
    # name resolves against what is already placed, so B.Tool takes A.Thing,
    # the only Thing at that point.
    doc = {"namespaces": {
        "A": [
            {"name": "Leaf", "kind": "entity", "parent": "Mid"},
            {"name": "Mid", "kind": "entity", "parent": "Top"},
            {"name": "Top", "kind": "entity", "parent": "Entity",
             "attributes": [{"name": "maker", "type": "Agent"}]},
            {"name": "Agent", "kind": "entity", "parent": "Entity"},
            {"name": "Thing", "kind": "entity", "parent": "Entity",
             "equivalents": ["B.Thing"]},
        ],
        "B": [
            {"name": "Tool", "kind": "entity", "parent": "Thing"},
            {"name": "Thing", "kind": "entity", "parent": "Entity"},
            {"name": "Gadget", "kind": "entity", "parent": "Leaf"},
        ],
    }}
    g = ontology.graph_from_document(doc)
    assert list(g.concepts) == ["A.Agent", "A.Thing", "B.Tool", "B.Thing", "A.Top",
                                "A.Mid", "A.Leaf", "B.Gadget"]
    assert list(g.parents.items()) == [
        ("A.Agent", "Entity"), ("A.Thing", "Entity"), ("B.Tool", "A.Thing"),
        ("B.Thing", "Entity"), ("A.Top", "Entity"), ("A.Mid", "A.Top"),
        ("A.Leaf", "A.Mid"), ("B.Gadget", "A.Leaf")]
    assert list(g.equivalences.items()) == [("A.Thing", {"B.Thing"}),
                                            ("B.Thing", {"A.Thing"})]


def test_saved_parent_reloads_to_the_same_concept(tmp_path):
    # B.Tool takes A.Thing, the only Thing when it is placed; the saved
    # document lists B.Thing first, so a bare "Thing" would reload to it.
    doc = {"namespaces": {
        "B": [
            {"name": "X", "kind": "entity", "parent": "Entity"},
            {"name": "Tool", "kind": "entity", "parent": "Thing"},
            {"name": "Thing", "kind": "entity", "parent": "Y"},
            {"name": "Y", "kind": "entity", "parent": "Entity"},
        ],
        "A": [{"name": "Thing", "kind": "entity", "parent": "Entity"}],
    }}
    g = ontology.graph_from_document(doc)
    assert g.parents["B.Tool"] == "A.Thing"
    path = tmp_path / "onto.json"
    ontology.save_ontology(g, str(path))
    saved = {(ns, e["name"]): e["parent"]
             for ns, entries in json.loads(path.read_text())["namespaces"].items()
             for e in entries}
    assert saved[("B", "Tool")] == "A.Thing"
    assert saved[("B", "X")] == "Entity" and saved[("B", "Thing")] == "Y"
    assert ontology.load_ontology(str(path)).parents == g.parents


def chain_document(leaves_first: bool) -> dict:
    entries = [{"name": f"C{i}", "kind": "entity", "parent": f"C{i + 1}" if i < 999 else "Entity"}
               for i in range(1000)]
    return {"namespaces": {"ns": entries if leaves_first else entries[::-1]}}


def test_leaves_first_chain_checks_each_concept_in_full_once(monkeypatch):
    checked = []
    validate = ontology._validate_concept_fields

    def counted(concept):
        checked.append(concept.name)
        validate(concept)

    monkeypatch.setattr(ontology, "_validate_concept_fields", counted)
    g = ontology.graph_from_document(chain_document(leaves_first=True))
    # each sweep places one concept; the tries before that find its parent
    # missing with a few lookups, and its fields are checked on the first only
    assert sorted(checked) == sorted(f"C{i}" for i in range(1000))
    assert list(g.concepts) == [f"ns.C{i}" for i in reversed(range(1000))]
    assert g.parents == ontology.graph_from_document(chain_document(leaves_first=False)).parents


def swept(concepts):
    """The reference placement: sweeps of insert_concept, each concept that
    fails only for a name not in the graph yet put off to the next sweep."""
    graph = empty_graph()

    def place(concept):
        try:
            insert_concept(graph, concept)
        except (UnknownParent, UnknownConcept):
            return False
        return True

    return graph, ontology.place_in_passes(concepts, place)


def placement_of(load):
    """The concepts, parents and leftovers `load` gives, or its error."""
    try:
        graph, left = load()
    except KdrError as exc:
        return type(exc), str(exc)
    return list(graph.concepts), list(graph.parents.items()), [c.qualified for c in left]


def waits_on(graph, concept):
    """The name a leftover of the reference sweeps waits for: its parent when
    that is not in the graph, else its first attribute type that is not."""
    if graph.find(concept.parent, concept.namespace) is None:
        return concept.parent
    return next(a.base for a in concept.attributes
                if a.base not in ("text", "number", "date", concept.name)
                and graph.find(a.base, concept.namespace) is None)


PLACED_NAMES = ["Alpha", "Beta", "Gamma", "Delta", "Omega"]
placeable = st.builds(
    Concept,
    name=st.sampled_from(PLACED_NAMES * 4 + ["bad"]),
    namespace=st.sampled_from(["A", "B"]),
    kind=st.sampled_from(["entity"] * 9 + ["event"]),
    parent=st.sampled_from(PLACED_NAMES * 2 + ["A.Alpha", "B.Beta", "Entity", "Event", "Ghost"]),
    attributes=st.lists(st.builds(AttributeSpec, name=st.sampled_from(["a", "b", "c", "name"]),
                                  type=st.sampled_from(PLACED_NAMES + ["text"])),
                        max_size=2).map(lambda attrs: attrs[:1] if len(attrs) > 1 and
                                        attrs[0].name == attrs[1].name else attrs),
)


def entity(name, parent, namespace="A"):
    return Concept(name, namespace, "entity", parent)


@given(st.lists(placeable, max_size=12))
@example([entity("Alpha", "Ghost"), entity("Alpha", "Entity")])  # a duplicate of one put off
@settings(max_examples=500, deadline=None)
def test_loader_places_as_sweeps_of_insert_concept_do(concepts):
    namespaces = {}
    for c in concepts:
        namespaces.setdefault(c.namespace, []).append(
            {"name": c.name, "kind": c.kind, "parent": c.parent,
             "attributes": [{"name": a.name, "type": a.type} for a in c.attributes]})
    in_document_order = sorted(concepts, key=lambda c: list(namespaces).index(c.namespace))
    expected = placement_of(lambda: swept(in_document_order))
    got = placement_of(lambda: (ontology.graph_from_document({"namespaces": namespaces}), []))
    if len(expected) == 3 and expected[2]:  # leftovers: the loader names them
        graph, left = swept(in_document_order)
        blocked = [c for c in left if not any(waits_on(graph, c) in (other.name, other.qualified)
                                              for other in left if other is not c)]
        if blocked:  # the first that waits on an undeclared name raises its insert error
            with pytest.raises(KdrError) as insert_error:
                insert_concept(graph, blocked[0])
            assert got == (type(insert_error.value), str(insert_error.value))
        else:  # each waits on another leftover
            assert got[0] is CycleDetected
            assert all(c.qualified in got[1] for c in left)
    else:
        assert got == expected
    if len(got) == 3:
        graph = ontology.graph_from_document({"namespaces": namespaces})
        validate_graph(graph)
        reloaded = ontology.graph_from_document(ontology.graph_to_document(graph))
        assert reloaded.parents == graph.parents
        assert reloaded.equivalences == graph.equivalences


def test_validate_graph_reports_detached_cyclic_and_misrooted_concepts():
    def graph(*edges):
        concepts = {q: Concept(q.split(".")[1], "A", kind, "?") for q, _, kind in edges}
        return ontology.OntologyGraph(concepts, {q: parent for q, parent, _ in edges})

    validate_graph(graph(*[(f"A.C{i}", f"A.C{i + 1}" if i < 999 else "Entity", "entity")
                           for i in range(1000)]))
    with pytest.raises(UnknownParent, match="A.Low is detached from both roots"):
        validate_graph(graph(("A.Top", "Entity", "entity"),
                             ("A.Low", "A.Gone", "entity")))
    with pytest.raises(CycleDetected, match="parent cycle through A.Low"):
        validate_graph(graph(("A.Top", "Entity", "entity"),
                             ("A.Low", "A.Mid", "entity"), ("A.Mid", "A.Low", "entity")))
    # A.Low's walk stops at A.Top, which an earlier walk found under Entity
    with pytest.raises(KindMismatch, match="A.Low reaches the wrong root Entity"):
        validate_graph(graph(("A.Top", "Entity", "entity"),
                             ("A.Low", "A.Top", "event")))


def test_loader_rejects_unknown_keys():
    with pytest.raises(SchemaViolation):
        ontology.graph_from_document({"namespaces": {}, "extra": 1})
    with pytest.raises(SchemaViolation):
        ontology.graph_from_document({"namespaces": {"ns": [
            {"name": "A", "kind": "entity", "parent": "Entity", "color": "red"},
        ]}})
    with pytest.raises(SchemaViolation):
        ontology.graph_from_document({"namespaces": {"ns": [
            {"name": "A", "kind": "entity", "parent": "Entity",
             "attributes": [{"name": "a", "type": "text", "note": "x"}]},
        ]}})


def test_loader_detects_parent_cycles():
    doc = {"namespaces": {"ns": [
        {"name": "A", "kind": "entity", "parent": "B"},
        {"name": "B", "kind": "entity", "parent": "A"},
    ]}}
    with pytest.raises(CycleDetected):
        ontology.graph_from_document(doc)


def test_loader_reports_unknown_parent():
    doc = {"namespaces": {"ns": [
        {"name": "A", "kind": "entity", "parent": "Ghost"},
    ]}}
    with pytest.raises(UnknownParent):
        ontology.graph_from_document(doc)


@pytest.mark.parametrize("entries, error, message", [
    # A waits on B, which the document declares; B waits on Ghost, which it does not
    ([{"name": "A", "kind": "entity", "parent": "B"},
      {"name": "B", "kind": "entity", "parent": "Ghost"}],
     UnknownParent, r"ns\.B has unknown parent 'Ghost'"),
    ([{"name": "A", "kind": "entity", "parent": "ns.B"},
      {"name": "B", "kind": "entity", "parent": "ns.A"}],
     CycleDetected, r"\['ns\.A', 'ns\.B'\]"),
    ([{"name": "A", "kind": "entity", "parent": "Entity",
       "attributes": [{"name": "owner", "type": "Ghost"}]}],
     UnknownConcept, "attribute 'owner' of A references unknown concept 'Ghost'"),
    # A's parent is placed, but its attribute type waits on B, which waits on A
    ([{"name": "A", "kind": "entity", "parent": "Entity",
       "attributes": [{"name": "owner", "type": "B"}]},
      {"name": "B", "kind": "entity", "parent": "A"}],
     CycleDetected, r"\['ns\.A', 'ns\.B'\]"),
], ids=["unknown-parent-behind-a-waiting-child", "qualified-parent-cycle",
        "unknown-attribute-type", "attribute-type-and-parent-cycle"])
def test_loader_names_what_blocks_its_leftovers(entries, error, message):
    with pytest.raises(error, match=message):
        ontology.graph_from_document({"namespaces": {"ns": entries}})


# -- property tests -------------------------------------------------------------

names = [f"C{i}" for i in range(10)]


@st.composite
def random_trees(draw):
    """A random parent assignment: node i hangs under some earlier node or Entity."""
    n = draw(st.integers(min_value=1, max_value=10))
    parents = [draw(st.integers(min_value=-1, max_value=i - 1)) for i in range(n)]
    return n, parents


@given(random_trees())
@settings(max_examples=60, deadline=None)
def test_wu_palmer_properties(tree):
    n, parents = tree
    g = empty_graph()
    for i in range(n):
        parent = "Entity" if parents[i] < 0 else names[parents[i]]
        insert_concept(g, Concept(names[i], "ns", "entity", parent))
    validate_graph(g)
    for i in range(n):
        for j in range(i, n):
            s = ontology.wu_palmer(g, names[i], names[j])
            assert 0.0 < s <= 1.0
            assert s == ontology.wu_palmer(g, names[j], names[i])
            if i == j:
                assert s == 1.0
    for i in range(n):
        path = g.root_path(g.resolve(names[i]))
        assert path[0] == "Entity"
        assert ontology.depth(g, names[i]) == len(path)


# -- lookup views against the old derivations --------------------------------------

SHORT_NAMES = ["Alpha", "Beta", "Gamma"]
SPACES = ["A", "B", "C"]


def scan_resolve(graph, name, namespace=None):
    """resolve as a scan over every concept name."""
    if name in ontology.ROOTS:
        return name
    if "." in name:
        if name in graph.concepts:
            return name
        raise UnknownConcept(f"unknown concept {name!r}")
    if namespace is not None and f"{namespace}.{name}" in graph.concepts:
        return f"{namespace}.{name}"
    matches = [q for q in graph.concepts if q.rsplit(".", 1)[1] == name]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise UnknownConcept(f"unknown concept {name!r}")
    raise AmbiguousName(f"{name!r} exists in several namespaces: {sorted(matches)}")


def walked_attributes(graph, q):
    """effective_attributes as a walk down the root path."""
    if q in ontology.ROOTS:
        return [ontology.mandatory_attribute(ontology.ROOTS[q])]
    attrs = [ontology.mandatory_attribute(graph.concepts[q].kind)]
    for node in graph.root_path(q):
        if node not in ontology.ROOTS:
            attrs.extend(graph.concepts[node].attributes)
    return attrs


def outcome(lookup, *args):
    try:
        return lookup(*args)
    except (UnknownConcept, AmbiguousName) as exc:
        return type(exc), str(exc)


def assert_lookups_match(graph):
    for name in SHORT_NAMES + ["Entity", "Event", "Missing", "Z.Alpha"] + list(graph.concepts):
        for namespace in [None, "Z"] + SPACES:
            assert outcome(graph.resolve, name, namespace) == outcome(
                scan_resolve, graph, name, namespace)
    for q in list(graph.concepts) + list(ontology.ROOTS):
        assert ontology.effective_attributes(graph, q) == walked_attributes(graph, q)


def lookups(graph):
    """Every resolve outcome and slot list assert_lookups_match checks."""
    names = SHORT_NAMES + ["Entity", "Event", "Missing", "Z.Alpha"] + list(graph.concepts)
    return ({(name, ns): outcome(graph.resolve, name, ns)
             for name in names for ns in [None, "Z"] + SPACES},
            {q: ontology.effective_attributes(graph, q)
             for q in list(graph.concepts) + list(ontology.ROOTS)})


def state(graph):
    return (dict(graph.concepts), dict(graph.parents),
            {q: set(others) for q, others in graph.equivalences.items()}, lookups(graph))


graph_ops = st.tuples(st.sampled_from(["insert", "equivalence", "copy"]),
                      st.integers(0, 2), st.integers(0, 2), st.integers(0, 40),
                      st.booleans(), st.lists(st.sampled_from(
                          ["text", "List[number]"] + SHORT_NAMES), max_size=2))


@given(st.lists(graph_ops, max_size=25))
@settings(max_examples=120, deadline=None)
def test_lookups_match_the_scan_and_the_walk(ops):
    graph = empty_graph()
    left = []  # (a graph that stopped growing at a copy, its state then)
    for i, (op, ns, name, pick, flag, types) in enumerate(ops):
        placed = sorted(graph.concepts)
        options = sorted(ontology.ROOTS) + placed
        parent = options[pick % len(options)]
        try:
            if op == "equivalence" and placed:
                graph.add_equivalence(parent if parent in placed else placed[0],
                                      placed[pick % len(placed)])
            elif op == "copy":  # grow on in the copy or in the original
                copy = graph.copy()
                kept, graph = (graph, copy) if flag else (copy, graph)
                left.append((kept, state(kept)))
            elif op == "insert":
                parent_q = graph.resolve(parent)
                attrs = [AttributeSpec(f"a{i}_{k}", t) for k, t in enumerate(types)]
                insert_concept(graph, Concept(SHORT_NAMES[name], SPACES[ns],
                                              graph.kind_of(parent_q),
                                              parent if flag else parent.rsplit(".", 1)[-1],
                                              attributes=attrs))
        except KdrError:  # a rejected concept or edge leaves the graph as it was
            pass
        assert_lookups_match(graph)
    for kept, then in left:
        assert state(kept) == then
        assert_lookups_match(kept)


# -- one parser of type tokens -------------------------------------------------------

SRC = Path(ontology.__file__).parent


def parse_type_token_calls(source: str) -> list[int]:
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Name) and node.func.id == "parse_type_token"
                 or isinstance(node.func, ast.Attribute) and node.func.attr == "parse_type_token")]


def test_only_the_ontology_parses_type_tokens():
    offenders = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
                 if path.name != "ontology.py"
                 for line in parse_type_token_calls(path.read_text(encoding="utf-8"))]
    assert offenders == []


def test_type_token_finder_flags_each_kind_of_call():
    source = '''
def f(spec):
    onto.parse_type_token(spec.type)
    parse_type_token("List[text]")
    spec.is_list
    parse_type_token
'''
    assert parse_type_token_calls(source) == [3, 4]


# -- one owner of graph mutation -------------------------------------------------------

GRAPH_TABLES = ("concepts", "parents", "equivalences")


def is_graph_table(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in GRAPH_TABLES


def graph_table_mutations(source: str) -> list[int]:
    """Lines that assign into, or call setdefault/clear/pop on, a graph's tables."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Subscript) and is_graph_table(t.value) for t in targets):
                lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("setdefault", "clear", "pop")
              and is_graph_table(node.func.value)):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_the_ontology_mutates_a_graph():
    offenders = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
                 if path.name != "ontology.py"
                 for line in graph_table_mutations(path.read_text(encoding="utf-8"))]
    assert offenders == []
    assert graph_table_mutations((SRC / "ontology.py").read_text(encoding="utf-8"))


def test_graph_mutation_finder_flags_each_kind_of_mutation():
    source = '''
def f(graph, q, c):
    graph.concepts[q] = c
    graph.parents[q] += "x"
    graph.equivalences.setdefault(q, set())
    graph.concepts.clear()
    graph.parents.pop(q)
    graph.concepts.get(q)
    x = graph.parents[q]
    store.objects[q] = c
'''
    assert graph_table_mutations(source) == [3, 4, 5, 6, 7]
