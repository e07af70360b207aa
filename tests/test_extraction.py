"""Extraction protocol: prompts, import parsing, code parsing, end-to-end flow."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdr import extraction as ex
from kdr import knowledge_store as ks
from kdr import ontology, templates
from kdr.errors import EmptyOutput, NoImportsFound, SchemaViolation, UnknownGoldType
from kdr.llm_gateway import mock_gateway
from kdr.ontology import AttributeSpec, Concept, empty_graph, insert_concept


def ner_graph():
    g = empty_graph()
    insert_concept(g, Concept("Person", "NER", "entity", "Entity", "A human.",
                              attributes=[AttributeSpec("affiliation", "text")]))
    insert_concept(g, Concept("Organization", "NER", "entity", "Entity", "A body of people."))
    insert_concept(g, Concept("Work", "NER", "entity", "Entity", "Employment relation.",
                              attributes=[AttributeSpec("person", "Person"),
                                          AttributeSpec("org", "text")]))
    return g


@pytest.fixture
def graph():
    return ner_graph()


def test_schema_recall_prompt_is_verbatim():
    assert ex.render_schema_recall_prompt("NER", "Person") == (
        "Please generate the detailed schema of the class Person from NER based on your memory."
    )


def test_importing_prompt_closed_layout(graph):
    req = ex.ExtractionRequest("Ada visited Paris.", "NER", "closed",
                               ["Person", "Organization"])
    prompt = ex.render_importing_prompt(req, graph)
    assert prompt == (
        "From NER Import Person, Organization\n"
        "\n"
        "Some NER Types are imported above. Please import all the possible "
        "NER Types in the following sentence.\n"
        "\n"
        "Sentence: Ada visited Paris."
    )


def test_importing_prompt_open_layout(graph):
    req = ex.ExtractionRequest("Ada visited Paris.", "NER", "open")
    prompt = ex.render_importing_prompt(req, graph)
    assert prompt == (
        "According to the NER Types you have learned, please import all the "
        "possible NER Types in the sentence\n"
        "\n"
        "Sentence: Ada visited Paris."
    )


def test_importing_prompt_preserves_newlines_in_text(graph):
    req = ex.ExtractionRequest("line one\nline two", "NER", "open")
    assert ex.render_importing_prompt(req, graph).endswith("Sentence: line one\nline two")


def test_instantiation_prompt_contains_verbatim_instruction(graph):
    prompt = ex.render_instantiation_prompt(graph, "NER", ["Person"], "Ada visited Paris.")
    assert prompt.startswith("From NER Import Person\n\n")
    assert ("Some NER Types are imported above. Please instantiate all the "
            "possible NER Objects in the following sentence.") in prompt
    assert prompt.endswith("Sentence: Ada visited Paris.")


def test_request_invariants():
    with pytest.raises(SchemaViolation):
        ex.ExtractionRequest("t", "NER", "closed", [])
    with pytest.raises(SchemaViolation):
        ex.ExtractionRequest("t", "NER", "open", ["Person"])
    with pytest.raises(SchemaViolation):
        ex.ExtractionRequest("t", "NER", "sideways")


def test_parse_import_lines(graph):
    names, dropped = ex.parse_import_lines("Import Person\nImport Organization", graph, "NER")
    assert names == ["Person", "Organization"]
    assert dropped == []
    names, _ = ex.parse_import_lines("Import Person, Person", graph, "NER")
    assert names == ["Person"]
    names, _ = ex.parse_import_lines("From NER Import Person, Organization", graph, "NER")
    assert names == ["Person", "Organization"]


def test_parse_import_lines_drops_unknown_and_raises_when_empty(graph):
    names, dropped = ex.parse_import_lines("Import Person\nImport Dragon", graph, "NER")
    assert names == ["Person"]
    assert dropped == ["Dragon"]
    with pytest.raises(NoImportsFound) as err:
        ex.parse_import_lines("Import Dragon", graph, "NER")
    assert err.value.dropped == ["Dragon"]


def test_parse_instantiation_minimal(graph):
    parsed, issues = ex.parse_instantiation_code(
        'results = [Person(name="Ada")]', graph, "NER")
    assert issues == []
    assert len(parsed) == 1
    assert parsed[0].concept == "Person"
    assert parsed[0].args == {"name": "Ada"}


def test_parse_instantiation_nested_call(graph):
    parsed, issues = ex.parse_instantiation_code(
        'Work(name="ada-mit", person=Person(name="Ada"), org="MIT")', graph, "NER")
    assert issues == []
    assert parsed[0].concept == "Work"
    nested = parsed[0].args["person"]
    assert isinstance(nested, ex.ParsedInstantiation)
    assert nested.args == {"name": "Ada"}


def test_parse_instantiation_depth_limit(graph):
    code = 'Work(name="w", person=Person(name="A", affiliation="x"), org="MIT")'
    parsed, issues = ex.parse_instantiation_code(code, graph, "NER")
    assert not issues
    too_deep = 'Work(name="w", person=Work(name="x", person=Person(name="A"), org="o"), org="MIT")'
    parsed, issues = ex.parse_instantiation_code(too_deep, graph, "NER")
    assert parsed == [] or all(p.concept != "Work" or "person" not in p.args for p in parsed)
    assert any(i.kind == "too_deep" for i in issues)


def test_parse_instantiation_unknown_class_tolerant_vs_strict(graph):
    parsed, issues = ex.parse_instantiation_code('Dragon(name="x")', graph, "NER")
    assert parsed == []
    assert [i.kind for i in issues] == ["unknown_class"]


def test_parse_instantiation_unknown_keyword_and_positional(graph):
    parsed, issues = ex.parse_instantiation_code(
        'Person(name="Ada", wings=2)\nPerson("Ada")', graph, "NER")
    assert parsed == []
    assert {i.kind for i in issues} == {"unknown_keyword", "positional_args"}


def test_parse_instantiation_source_span(graph):
    code = 'Person(name="Ada")'
    parsed, _ = ex.parse_instantiation_code(code, graph, "NER")
    start, end = parsed[0].source_span
    assert code[start:end] == code


def test_parse_instantiation_empty_output(graph):
    with pytest.raises(EmptyOutput):
        ex.parse_instantiation_code("no code here, sorry", graph, "NER")
    with pytest.raises(EmptyOutput):
        ex.parse_instantiation_code("x = 1", graph, "NER")


def test_parse_instantiation_too_deeply_nested_is_empty_output(graph):
    code = "Person(name=" + "+".join(["1"] * 100000) + ")"
    with pytest.raises(EmptyOutput, match="nested too deeply"):
        ex.parse_instantiation_code(code, graph, "NER")


def test_parse_instantiation_nul_is_empty_output(graph, monkeypatch):
    """Python 3.10's ast.parse raises ValueError for a NUL; 3.11 and later a SyntaxError."""
    real_parse = ex.ast.parse

    def parse(source, *args, **kwargs):
        if "\x00" in source:
            raise ValueError("source code string cannot contain null bytes")
        return real_parse(source, *args, **kwargs)

    monkeypatch.setattr(ex.ast, "parse", parse)
    with pytest.raises(EmptyOutput, match="not parseable code: source code string cannot"):
        ex.parse_instantiation_code('Person(name="a\x00")', graph, "NER")


def test_parse_instantiation_fenced_block(graph):
    text = 'Sure!\n```python\nresults = [Person(name="Ada")]\n```\nDone.'
    parsed, _ = ex.parse_instantiation_code(text, graph, "NER")
    assert parsed[0].args["name"] == "Ada"


def test_parse_respects_result_list_order(graph):
    code = (
        'o0 = Person(name="B")\n'
        'o1 = Person(name="A")\n'
        "search_results = [o1, o0]"
    )
    parsed, _ = ex.parse_instantiation_code(code, graph, "NER")
    assert [p.args["name"] for p in parsed] == ["A", "B"]


def test_extract_end_to_end_scripted(graph):
    gw = mock_gateway({"rules": [
        {"match": "Please import all the possible", "responses": ["Import Person"]},
        {"match": "Please instantiate all the possible", "responses": ['results = [Person(name="Ada", affiliation="MIT")]']},
    ]})
    req = ex.ExtractionRequest("Ada works at MIT.", "NER", "closed", ["Person", "Organization"])
    report = ex.ExtractionReport()
    objects = ex.extract(req, graph, gw, timestamp=1.0, report=report)
    assert len(objects) == 1
    assert objects[0].display_name == "Ada"
    assert objects[0].scalar("affiliation") == "MIT"
    assert objects[0].provenance == [(req.source_id, 1.0)]
    assert report.imported == ["Person"]


def test_extract_closed_mode_filters_disallowed(graph):
    gw = mock_gateway({"rules": [
        {"match": "Please import all the possible", "responses": ["Import Person, Organization"]},
        {"match": "Please instantiate all the possible",
         "responses": ['results = [Person(name="Ada"), Organization(name="MIT")]']},
    ]})
    req = ex.ExtractionRequest("Ada works at MIT.", "NER", "closed", ["Person"])
    report = ex.ExtractionReport()
    objects = ex.extract(req, graph, gw, timestamp=1.0, report=report)
    assert [o.concept for o in objects] == ["NER.Person"]
    assert "Organization" in report.dropped_imports


def test_extract_no_imports_returns_empty_with_reason(graph):
    gw = mock_gateway(default_response="nothing to import")
    req = ex.ExtractionRequest("Quiet text.", "NER", "closed", ["Person"])
    report = ex.ExtractionReport()
    assert ex.extract(req, graph, gw, report=report) == []
    assert report.reason is not None


def test_extract_nested_instance_becomes_reference(graph):
    gw = mock_gateway({"rules": [
        {"match": "import all the possible", "responses": ["Import Work, Person"]},
        {"match": "Please instantiate all the possible",
         "responses": ['results = [Work(name="ada-mit", person=Person(name="Ada"), org="MIT")]']},
    ]})
    req = ex.ExtractionRequest("Ada works at MIT.", "NER", "open")
    objects = ex.extract(req, graph, gw, timestamp=1.0)
    assert [o.concept for o in objects] == ["NER.Person", "NER.Work"]
    work = objects[1]
    assert work.scalar("person") == ks.Ref(objects[0].id)



def test_extract_drops_only_the_object_with_a_mistyped_value():
    g = empty_graph()
    insert_concept(g, Concept("Person", "NER", "entity", "Entity", "A human.",
                              attributes=[AttributeSpec("born", "text"),
                                          AttributeSpec("age", "number"),
                                          AttributeSpec("advisor", "Person")]))
    gw = mock_gateway({"rules": [
        {"match": "Please import all the possible", "responses": ["Import Person"]},
        {"match": "Please instantiate all the possible", "responses": [
            'results = [Person(name="Ann", born="1990"), Person(name="Bob", age="old"),\n'
            '           Person(name="Cy", advisor=Person(name="Di", age="old"))]']},
    ]})
    req = ex.ExtractionRequest("Ann, Bob and Cy.", "NER", "closed", ["Person"])
    report = ex.ExtractionReport()
    objects = ex.extract(req, g, gw, timestamp=1.0, report=report)
    assert [o.display_name for o in objects] == ["Ann", "Cy"]
    assert objects[1].slots == {}  # its advisor was the mistyped Di
    assert [i.kind for i in report.issues] == ["bad_value", "bad_value"]
    assert "expects a number, got 'old'" in report.issues[0].message
    assert report.issues[0].span is not None

def ie_dataset():
    return [
        {"id": "s1", "text": "Ada works at MIT.",
         "annotations": [{"type": "Person", "slots": {"name": "Ada", "affiliation": "MIT"}}]},
        {"id": "s2", "text": "Quiet day.", "annotations": []},
    ]


def test_training_samples_importing_and_instantiation(graph):
    samples = ex.generate_training_samples(
        ie_dataset(), graph, {"importing_closed", "instantiation"}, "NER")
    by_task = {}
    for s in samples:
        by_task.setdefault(s["task"], []).append(s)
    assert by_task["importing_closed"][0]["target"] == "Import Person"
    assert by_task["importing_closed"][0]["prompt"].startswith(
        "From NER Import Organization, Person, Work\n\n")
    assert by_task["instantiation"][0]["target"] == (
        'results = [Person(name="Ada", affiliation="MIT")]'
    )
    # the empty-annotation sentence contributes nothing
    assert len(by_task["importing_closed"]) == 1
    assert len(by_task["instantiation"]) == 1


def test_training_samples_understanding_targets_class_code(graph):
    samples = ex.generate_training_samples(ie_dataset(), graph, {"understanding"}, "NER")
    assert samples[0]["prompt"] == (
        "Please generate the detailed schema of the class Person from NER based on your memory."
    )
    assert samples[0]["target"] == ontology.render_class_code(graph, "Person", "NER")


def test_training_samples_deterministic_and_reject_unknown_gold(graph):
    a = ex.generate_training_samples(ie_dataset(), graph, set(ex.SAMPLE_TASKS), "NER")
    b = ex.generate_training_samples(ie_dataset(), graph, set(ex.SAMPLE_TASKS), "NER")
    assert a == b
    bad = [{"id": "x", "text": "t", "annotations": [{"type": "Dragon", "slots": {}}]}]
    with pytest.raises(UnknownGoldType):
        ex.generate_training_samples(bad, graph, {"importing_open"}, "NER")


def gold_graph():
    g = empty_graph()
    insert_concept(g, Concept("Person", "NER", "entity", "Entity", "A human.",
                              attributes=[AttributeSpec("age", "number"),
                                          AttributeSpec("tags", "List[text]"),
                                          AttributeSpec("scores", "List[number]"),
                                          AttributeSpec("advisor", "Person")]))
    insert_concept(g, Concept("Work", "NER", "entity", "Entity", "A piece of work.",
                              attributes=[AttributeSpec("authors", "List[Person]"),
                                          AttributeSpec("note", "text")]))
    return g


gold_texts = st.text(min_size=1).filter(str.strip)
gold_numbers = st.one_of(st.integers(-10**9, 10**9),
                         st.floats(allow_nan=False, allow_infinity=False))


def gold_scalar(values):
    """A scalar slot's gold value, bare or as a one-item list."""
    return st.one_of(values, values.map(lambda v: [v]))


gold_annotations = st.one_of(
    st.fixed_dictionaries({"name": gold_texts}, optional={
        "age": gold_scalar(gold_numbers), "tags": st.lists(gold_texts, max_size=3),
        "scores": st.lists(gold_numbers, max_size=3), "advisor": gold_scalar(gold_texts),
    }).map(lambda slots: {"type": "Person", "slots": slots}),
    st.fixed_dictionaries({"name": gold_texts}, optional={
        "authors": st.lists(gold_texts, max_size=3), "note": gold_scalar(gold_texts),
    }).map(lambda slots: {"type": "Work", "slots": slots}),
)


@given(annotations=st.lists(gold_annotations, min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_instantiation_targets_parse_back_to_the_gold_objects(annotations):
    graph = gold_graph()
    row = {"id": "r1", "text": "t", "annotations": annotations}
    [sample] = ex.generate_training_samples([row], graph, {"instantiation"}, "NER")
    parsed, issues = ex.parse_instantiation_code(sample["target"], graph, "NER")
    back = ex.to_knowledge_objects(parsed, graph, "NER", "s", 1.0, issues)
    assert issues == []
    gold = {}
    for annotation in annotations:
        slots = dict(annotation["slots"])
        obj = ks.make_object(graph, annotation["type"], slots.pop("name"), slots,
                             [("s", 1.0)], "NER")
        gold.setdefault(obj.id, obj)
    assert [(o.concept, o.display_name, o.slots) for o in back] == [
        (o.concept, o.display_name, o.slots) for o in gold.values()]


def test_instantiation_target_leaves_out_an_empty_gold_list():
    row = {"id": "r1", "text": "t", "annotations": [
        {"type": "Person", "slots": {"name": "Ada", "tags": [], "age": [36]}}]}
    [sample] = ex.generate_training_samples([row], gold_graph(), {"instantiation"}, "NER")
    assert sample["target"] == 'results = [Person(name="Ada", age=36)]'


def test_gold_list_in_a_scalar_slot_rejects_the_dataset():
    rows = [{"id": "r1", "text": "t", "annotations": [{"type": "Person", "slots": {"name": "Ada"}}]},
            {"id": "r2", "text": "t", "annotations": [
                {"type": "Work", "slots": {"name": "Notes", "note": ["p", "q"]}}]}]
    for tasks in ({"instantiation"}, {"importing_open"}):
        with pytest.raises(SchemaViolation, match="Work.note in r2 is scalar but holds several values"):
            ex.generate_training_samples(rows, gold_graph(), tasks, "NER")


@pytest.mark.parametrize("slot, value, reason", [
    ("colour", "red", "has no attribute 'colour'"),
    ("age", "old", "age expects a number, got 'old'"),
])
def test_gold_slot_its_type_does_not_take_rejects_the_dataset(slot, value, reason):
    rows = [{"id": "r3", "text": "t", "annotations": [
        {"type": "Person", "slots": {"name": "Ada", slot: value}}]}]
    for tasks in ({"instantiation"}, {"importing_open"}):
        with pytest.raises(SchemaViolation, match=f"Person in r3: .*{reason}"):
            ex.generate_training_samples(rows, gold_graph(), tasks, "NER")


def test_training_importing_prompts_are_the_ones_extract_sends(graph):
    text = "Ada works at MIT."
    row = {"id": "s1", "text": text, "annotations": [{"type": "Person", "slots": {}}]}
    samples = ex.generate_training_samples([row], graph, {"importing_closed", "importing_open"},
                                           "NER")
    closed = ex.ExtractionRequest(text, "NER", "closed", ["Organization", "Person", "Work"])
    assert [s["prompt"] for s in samples] == [
        ex.render_importing_prompt(closed, graph),
        ex.render_importing_prompt(ex.ExtractionRequest(text, "NER", "open"), graph)]


def test_round_trip_declaration_code_through_parser(graph):
    objs = [
        ks.make_object(graph, "NER.Person", "Ada", {"affiliation": "MIT"}, [("s", 1.0)]),
        ks.make_object(graph, "NER.Person", "Grace", {}, [("s", 1.0)]),
    ]
    code = ks.render_declaration_code(objs, graph)
    parsed, issues = ex.parse_instantiation_code(code, graph, "NER")
    assert issues == []
    back = ex.to_knowledge_objects(parsed, graph, "NER", "s", 1.0)
    assert [(o.concept, o.display_name, o.slots) for o in back] == [
        (o.concept, o.display_name, o.slots) for o in objs
    ]
