"""Decomposition tags, script assembly, sandboxed execution, and both cycles."""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kdr import knowledge_store as ks
from kdr import ontology as onto
from kdr import reasoning as rs
from kdr.errors import (
    EmptyQuery,
    KdrError,
    NoConceptFound,
    NoInstancesFound,
    NoTopicEntity,
    RejectedCode,
    UnbalancedTags,
)
from kdr.llm_gateway import LlmGateway, MockChatBackend, MockEmbeddingBackend, mock_gateway
from kdr.websearch import FixtureSearchBackend, SearchHit

from chat_probes import HoldFirst


def science_graph():
    g = onto.empty_graph()
    onto.insert_concept(g, onto.Concept(
        "Person", "NER", "entity", "Entity", "A human being.",
        attributes=[onto.AttributeSpec("awards", "List[text]"),
                    onto.AttributeSpec("birth_year", "number")]))
    onto.insert_concept(g, onto.Concept(
        "Scientist", "NER", "entity", "Person", "A person doing research.",
        attributes=[onto.AttributeSpec("field", "text")]))
    onto.insert_concept(g, onto.Concept(
        "Work", "NER", "entity", "Entity", "A published piece.",
        attributes=[onto.AttributeSpec("author", "Person")]))
    return g


def science_store(graph):
    store = ks.KnowledgeStore(graph)
    store.ingest(ks.make_object(
        graph, "NER.Scientist", "Ada Lovelace",
        {"awards": ["Analyst Medal"], "birth_year": 1815, "field": "mathematics"},
        [("doc1", 1.0)]))
    store.ingest(ks.make_object(
        graph, "NER.Scientist", "Charles Babbage",
        {"birth_year": 1791, "field": "mathematics"}, [("doc1", 2.0)]))
    store.ingest(ks.make_object(
        graph, "NER.Work", "Notes on the Analytical Engine",
        {"author": "Ada Lovelace"}, [("doc2", 3.0)]))
    store.settle()
    return store


# -- decomposition ------------------------------------------------------------


def test_parse_decomposition_sections_and_requests():
    plan = (
        "# Early life\n"
        "<begin_web_search>Where was Ada Lovelace born?<end_web_search>\n"
        "\n"
        "# Mathematical work\n"
        "<begin_data_analysis>Average birth year of the scientists<end_data_analysis>\n"
        "<begin_web_search>What did the notes describe?<end_web_search>\n"
    )
    plans = rs.parse_decomposition(plan)
    assert [p.section_title for p in plans] == ["Early life", "Mathematical work"]
    assert [r.kind for r in plans[1].requests] == ["data_analysis", "web_search"]
    assert plans[0].requests[0].query == "Where was Ada Lovelace born?"


def test_parse_decomposition_headerless_prefix_becomes_overview():
    plans = rs.parse_decomposition(
        "<begin_web_search>q1<end_web_search>\n# Later\n"
        "<begin_data_analysis>q2<end_data_analysis>")
    assert plans[0].section_title == "Overview"
    assert plans[0].requests[0].query == "q1"
    assert plans[1].requests[0].query == "q2"


def test_parse_decomposition_no_headings_at_all():
    plans = rs.parse_decomposition("<begin_web_search>q<end_web_search>")
    assert len(plans) == 1 and plans[0].section_title == "Overview"


def test_unbalanced_tags_report_offsets():
    text = "# S\n<begin_web_search>q"
    with pytest.raises(UnbalancedTags) as err:
        rs.parse_decomposition(text)
    assert err.value.position == text.index("<begin_web_search>")

    text = "# S\nq<end_web_search>"
    with pytest.raises(UnbalancedTags) as err:
        rs.parse_decomposition(text)
    assert err.value.position == text.index("<end_web_search>")

    with pytest.raises(UnbalancedTags):
        rs.parse_decomposition(
            "<begin_web_search><begin_data_analysis>q<end_data_analysis><end_web_search>")
    with pytest.raises(UnbalancedTags):
        rs.parse_decomposition("<begin_web_search>q<end_data_analysis>")


def test_empty_query_between_tags():
    text = "# S\n<begin_data_analysis>   <end_data_analysis>"
    with pytest.raises(EmptyQuery) as err:
        rs.parse_decomposition(text)
    assert err.value.position == text.index("<begin_data_analysis>")


def test_render_parse_round_trip_identity():
    plans = [
        rs.CyclePlan("Alpha", [rs.CycleRequest("web_search", "first question")]),
        rs.CyclePlan("Beta", [rs.CycleRequest("data_analysis", "count things"),
                              rs.CycleRequest("web_search", "second question")]),
        rs.CyclePlan("Gamma", []),
    ]
    assert rs.parse_decomposition(rs.render_decomposition(plans)) == plans


@settings(max_examples=50, deadline=None)
@given(st.lists(
    st.tuples(
        st.text(alphabet="abcdefgh ", min_size=1, max_size=12).map(
            lambda s: s.strip() or "x"),
        st.lists(st.tuples(
            st.sampled_from(["data_analysis", "web_search"]),
            st.text(alphabet="abcdefgh?", min_size=1, max_size=20).map(
                lambda s: s.strip() or "q"),
        ), max_size=3),
    ),
    min_size=1, max_size=4,
))
def test_round_trip_property(raw):
    plans = [rs.CyclePlan(title, [rs.CycleRequest(k, q) for k, q in reqs])
             for title, reqs in raw]
    assert rs.parse_decomposition(rs.render_decomposition(plans)) == plans


# -- ontology search and closure ------------------------------------------------


def test_ontology_search_ranks_matching_concepts():
    graph = science_graph()
    hits = rs.ontology_search("scientist research field", graph)
    assert hits[0][0].qualified == "NER.Scientist"
    assert "class Scientist(Person):" in hits[0][1]


def test_ontology_search_no_tokens():
    with pytest.raises(NoConceptFound):
        rs.ontology_search("?!", science_graph())


def test_ontology_search_no_match():
    with pytest.raises(NoConceptFound):
        rs.ontology_search("zeppelin", science_graph())


def test_ontology_search_finds_a_concept_inserted_after_a_search():
    graph = science_graph()
    with pytest.raises(NoConceptFound):
        rs.ontology_search("zeppelin", graph)
    grown = graph.copy()
    onto.insert_concept(grown, onto.Concept("Zeppelin", "NER", "entity", "Entity"))
    assert [c.name for c, _ in rs.ontology_search("zeppelin", grown)] == ["Zeppelin"]
    with pytest.raises(NoConceptFound):
        rs.ontology_search("zeppelin", graph)
    onto.insert_concept(graph, onto.Concept("Zeppelin", "NER", "entity", "Entity"))
    assert [c.name for c, _ in rs.ontology_search("zeppelin", graph)] == ["Zeppelin"]


def test_threads_searching_a_fresh_graph_build_its_index_once(monkeypatch):
    graph = science_graph()
    adds = []
    add = rs.InvertedIndex.add

    def slow_add(self, doc_id, text):  # slow enough for every thread to reach the build
        adds.append(doc_id)
        time.sleep(0.01)
        add(self, doc_id, text)

    monkeypatch.setattr(rs.InvertedIndex, "add", slow_add)
    barrier = threading.Barrier(8)
    results = [None] * 8

    def search(i):
        barrier.wait()
        results[i] = rs.ontology_search("scientist research field", graph)

    threads = [threading.Thread(target=search, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results) and results[0]
    assert sorted(adds) == sorted(graph.concepts)


def test_class_closure_pulls_ancestors_and_ref_targets():
    graph = science_graph()
    closure = rs.class_closure(graph, ["NER.Work"])
    assert closure == ["NER.Person", "NER.Work"]
    closure = rs.class_closure(graph, ["NER.Scientist"])
    assert closure == ["NER.Person", "NER.Scientist"]


def insert_all(*concepts):
    graph = onto.empty_graph()
    for concept in concepts:
        onto.insert_concept(graph, concept)
    return graph


def test_a_reference_type_keeps_the_concept_it_named_at_insert():
    graph = insert_all(
        onto.Concept("Alpha", "A", "entity", "Entity"),
        onto.Concept("User", "C", "entity", "Entity",
                     attributes=[onto.AttributeSpec("x", "Alpha")]),
        onto.Concept("Alpha", "B", "entity", "Entity"))
    assert rs.class_closure(graph, ["C.User"]) == ["A.Alpha", "C.User"]
    store = ks.KnowledgeStore(graph)
    a_alpha = ks.make_object(graph, "A.Alpha", "first")
    user = ks.make_object(graph, "C.User", "someone", {"x": "first"})
    store.ingest_all([ks.make_object(graph, "B.Alpha", "first"), a_alpha, user])
    assert store.settle() == 1
    assert store.get(user.id).scalar("x") == ks.Ref(a_alpha.id)


def test_an_inherited_reference_slot_targets_the_declaring_namespace():
    graph = insert_all(
        onto.Concept("Org", "A", "entity", "Entity"),
        onto.Concept("Person", "A", "entity", "Entity",
                     attributes=[onto.AttributeSpec("employer", "Org")]),
        onto.Concept("Org", "C", "entity", "Entity"),
        onto.Concept("Author", "C", "entity", "A.Person"))
    assert rs.class_closure(graph, ["C.Author"]) == ["A.Org", "A.Person", "C.Author"]
    store = ks.KnowledgeStore(graph)
    a_org = ks.make_object(graph, "A.Org", "acme")
    author = ks.make_object(graph, "C.Author", "writer", {"employer": "acme"})
    store.ingest_all([ks.make_object(graph, "C.Org", "acme"), a_org, author])
    assert store.settle() == 1
    assert store.get(author.id).scalar("employer") == ks.Ref(a_org.id)


SHORT = ["Alpha", "Beta", "Gamma"]
declarations = st.lists(st.tuples(st.sampled_from(["A", "B", "C"]), st.sampled_from(SHORT),
                                  st.integers(0, 9), st.lists(st.sampled_from(SHORT), max_size=2)),
                        max_size=8)


@given(declarations)
@example([("A", "Alpha", 0, []), ("C", "User", 0, ["Alpha"]), ("B", "Alpha", 0, [])])
@settings(max_examples=60, deadline=None)
def test_readers_use_the_reference_targets_found_at_insert(declared):
    graph, found = onto.empty_graph(), {}
    for ns, name, parent_pick, bases in declared:
        parents = ["Entity", *graph.concepts]
        concept = onto.Concept(name, ns, "entity", parents[parent_pick % len(parents)], attributes=[
            onto.AttributeSpec(f"{ns}_{name}_{i}".lower(), f"List[{base}]")
            for i, base in enumerate(bases)])
        try:
            targets = {a.name: concept.qualified if a.base == name else graph.find(a.base, ns)
                       for a in concept.attributes}
            onto.insert_concept(graph, concept)
        except KdrError:
            continue
        found[concept.qualified] = targets

    def closure(q):
        seen, frontier = set(), [q]
        while frontier:
            node = frontier.pop()
            if node not in seen and node not in onto.ROOTS:
                seen.add(node)
                frontier += graph.root_path(node)[1:-1] + list(found[node].values())
        return sorted(seen, key=lambda n: (len(graph.root_path(n)), n))

    for q in graph.concepts:
        assert rs.class_closure(graph, [q]) == closure(q)
        for node in graph.root_path(q)[1:]:
            for slot, target in found[node].items():
                # a string naming an object of each concept: settle links those
                # of the target and its descendants
                store = ks.KnowledgeStore(graph)
                named = {other: ks.make_object(graph, other, f"of {other}")
                         for other in graph.concepts}
                referrer = ks.make_object(graph, q, "referrer", {slot: [f"of {o}" for o in named]})
                store.ingest_all([referrer, *named.values()])
                store.settle()
                linked = {o.id for o in store.get(referrer.id).live(slot) if isinstance(o, ks.Ref)}
                assert linked == {obj.id for other, obj in named.items()
                                  if other == target or graph.is_descendant(other, target)}


# -- script assembly and execution ------------------------------------------------


def assembled_script(graph, store, analysis):
    objects = store.subgraph(
        [o.id for o in store.query_by_name("Ada Lovelace")], hops=2)
    closure = rs.class_closure(graph, [o.concept for o in objects])
    codes = [onto.render_class_code(graph, q) for q in closure]
    return rs.assemble_script(codes, objects, analysis, graph)


def _plain(self, name, age): ...
def _positional_only(self, a, /, b): ...
def _star_args(self, a, *rest, b): ...
def _keyword_only(self, *, k, m=2): ...
def _star_kwargs(self, a, **extra): ...
def _not_self(this, a): ...
def _everything(self, a, /, b=1, *args, c, d=2, **kw): ...


@functools.wraps(_plain)
def _wrapped(*args, **kwargs): ...


def _with_signature(self, *args): ...


_with_signature.__signature__ = inspect.Signature([
    inspect.Parameter("self", inspect.Parameter.POSITIONAL_OR_KEYWORD),
    inspect.Parameter("q", inspect.Parameter.KEYWORD_ONLY)])


@pytest.mark.parametrize("init", [
    _plain, _positional_only, _star_args, _keyword_only, _star_kwargs, _not_self, _everything,
    _wrapped, _with_signature], ids=[
    "plain", "positional-only", "star-args", "keyword-only", "star-kwargs", "not-self",
    "everything", "wraps", "signature"])
def test_prelude_classes_take_the_parameters_inspect_names(init):
    namespace: dict = {}
    exec(rs.PRELUDE, namespace)
    cls = type("C", (namespace["_Base"],), {"__init__": init})
    expected = [p for p in inspect.signature(init).parameters if p != "self"]
    assert list(vars(cls())) == expected


def test_assemble_rejects_code_without_result_variable():
    graph = science_graph()
    with pytest.raises(RejectedCode):
        rs.assemble_script([], [], "print(1)", graph)


def test_assembled_script_executes_with_instances(tmp_path):
    graph = science_graph()
    store = science_store(graph)
    analysis = (
        "names = sorted(type(o).__name__ for o in search_results)\n"
        "print(len(search_results), names)\n"
        "ada = [o for o in search_results if getattr(o, 'name', '') == 'Ada Lovelace'][0]\n"
        "print(ada.field, int(ada.birth_year), ada.awards[0])"
    )
    script = assembled_script(graph, store, analysis)
    result = rs.execute_script(script, str(tmp_path / "w"))
    assert result.exit_status == "ok", result.stderr
    assert "2 ['Scientist', 'Work']" in result.stdout
    assert "mathematics 1815 Analyst Medal" in result.stdout


def test_assembled_script_reference_slots_resolve_to_objects(tmp_path):
    graph = science_graph()
    store = science_store(graph)
    analysis = (
        "work = [o for o in search_results if type(o).__name__ == 'Work'][0]\n"
        "print(work.author.name)"
    )
    script = assembled_script(graph, store, analysis)
    result = rs.execute_script(script, str(tmp_path / "w"))
    assert result.exit_status == "ok", result.stderr
    assert "Ada Lovelace" in result.stdout


def test_execute_script_timeout(tmp_path):
    result = rs.execute_script(
        "search_results = []\nwhile True:\n    pass\n",
        str(tmp_path / "w"), wall_seconds=1.0)
    assert result.exit_status == "timeout"
    assert "wall-clock limit" in result.stderr


def test_execute_script_blocks_network(tmp_path):
    script = (
        "import socket\n"
        "socket.create_connection(('127.0.0.1', 9))\n"
    )
    result = rs.execute_script(script, str(tmp_path / "w"))
    assert result.exit_status == "error"
    assert "network access is disabled" in result.stderr


def test_execute_script_truncates_output(tmp_path):
    result = rs.execute_script(
        "print('x' * 100000)", str(tmp_path / "w"), output_bytes=1000)
    assert result.exit_status == "ok"
    assert len(result.stdout) < 2000
    assert result.stdout.endswith("[output truncated]")


def test_execute_script_catalogs_produced_files(tmp_path):
    script = (
        "open('table.csv', 'w').write('a,b\\n')\n"
        "open('plot.png', 'wb').write(b'\\x89PNG')\n"
        "open('notes.txt', 'w').write('hi')\n"
    )
    result = rs.execute_script(script, str(tmp_path / "w"))
    assert result.produced_files == [
        ("notes.txt", "data"), ("plot.png", "chart"), ("table.csv", "table")]


def test_execute_script_error_status(tmp_path):
    result = rs.execute_script("raise ValueError('boom')", str(tmp_path / "w"))
    assert result.exit_status == "error"
    assert "boom" in result.stderr


def test_execute_script_output_does_not_depend_on_workdir(tmp_path):
    script = "import os\nprint(os.getcwd())\nraise ValueError('boom')"
    short = rs.execute_script(script, str(tmp_path / "w"))
    long = rs.execute_script(script, str(tmp_path / "a-much-longer-directory" / "w"))
    assert short.exit_status == long.exit_status == "error"
    assert 'File "./script.py"' in short.stderr
    assert short.stderr == long.stderr
    assert short.stdout == long.stdout == ".\n"
    assert str(tmp_path) not in short.stderr + short.stdout


def test_execute_script_accepts_a_relative_workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = rs.execute_script("print('hello')", "w")
    assert result.exit_status == "ok", result.stderr
    assert result.stdout == "hello\n"


# -- cycle steps -------------------------------------------------------------------


def test_generate_analysis_code_strips_fence_and_checks_contract():
    gw = mock_gateway({"rules": [
        {"match": "Write a Python script",
         "responses": ["```python\nprint(len(search_results))\n```"]},
    ]})
    code = rs.generate_analysis_code("count", ["class X: ..."], None, gw)
    assert code == "print(len(search_results))"


def test_generate_analysis_code_rejects_missing_variable():
    gw = mock_gateway(default_response="print(42)")
    with pytest.raises(RejectedCode):
        rs.generate_analysis_code("count", ["class X: ..."], None, gw)


def test_generate_analysis_code_requires_class_definitions():
    with pytest.raises(NoConceptFound):
        rs.generate_analysis_code("count", [], None, mock_gateway())


def test_generate_analysis_code_threads_feedback_into_prompt():
    gw = mock_gateway(default_response="search_results")
    rs.generate_analysis_code("count", ["class X: ..."], "divide by zero", gw)
    prompt = gw.chat_backend.calls[0]
    assert "Feedback from the previous attempt:\ndivide by zero" in prompt


def test_instance_query_finds_neighborhood():
    graph = science_graph()
    store = science_store(graph)
    gw = mock_gateway({"rules": [
        {"match": "List the topic entities", "responses": ["- Ada Lovelace\n"]},
    ]})
    objects = rs.instance_query("q", store, graph, gw)
    names = {o.display_name for o in objects}
    assert "Ada Lovelace" in names
    assert "Notes on the Analytical Engine" in names  # in-reference, 1 hop


def test_build_lookups_builds_what_a_cycle_reads_and_leaves_the_token_index_lazy(monkeypatch):
    graph = science_graph()
    store = science_store(graph)
    rs.build_lookups(graph, store)
    assert rs._concept_index in graph._views
    assert set(store._views) == {"_names", "_inbound"}
    adds = []
    monkeypatch.setattr(rs.InvertedIndex, "add", lambda self, doc_id, text: adds.append(doc_id))
    gw = mock_gateway({"rules": [
        {"match": "List the topic entities", "responses": ["- Ada Lovelace\n"]},
    ]})
    assert rs.ontology_search("scientist research field", graph)
    assert len(rs.instance_query("q", store, graph, gw)) == 2
    assert adds == []
    assert set(store._views) == {"_names", "_inbound"}


def test_instance_query_strips_one_list_marker_and_keeps_leading_digits():
    graph = science_graph()
    store = science_store(graph)
    for name in ("1984", "3M"):
        store.ingest(ks.make_object(graph, "NER.Work", name, {}, [("doc3", 1.0)]))
    store.settle()
    gw = mock_gateway({"rules": [
        {"match": "List the topic entities",
         "responses": ["1984\n3M\n- Ada Lovelace\n1. Charles Babbage\n"]},
    ]})
    objects = rs.instance_query("q", store, graph, gw, hops=0)
    assert sorted(o.display_name for o in objects) == [
        "1984", "3M", "Ada Lovelace", "Charles Babbage"]


def test_instance_query_no_topic_entity():
    gw = mock_gateway(default_response="\n\n")
    with pytest.raises(NoTopicEntity):
        rs.instance_query("q", science_store(science_graph()), science_graph(), gw)


def test_instance_query_no_matching_instances():
    graph = science_graph()
    gw = mock_gateway({"rules": [
        {"match": "List the topic entities", "responses": ["Zeppelin"]},
    ]})
    with pytest.raises(NoInstancesFound):
        rs.instance_query("q", ks.KnowledgeStore(graph), graph, gw)


def test_evaluate_result_short_circuits_broken_execution():
    broken = rs.ExecutionResult("error", "", "Traceback: boom")
    verdict, feedback = rs.evaluate_result("q", broken, gateway=None)
    assert verdict == "fail" and "boom" in feedback


def test_evaluate_result_parses_leading_token():
    ok = rs.ExecutionResult("ok", "42", "")
    gw = mock_gateway(default_response="PASS: the count is printed")
    assert rs.evaluate_result("q", ok, gw) == ("pass", "the count is printed")
    gw = mock_gateway(default_response="FAIL missing the chart")
    assert rs.evaluate_result("q", ok, gw) == ("fail", "missing the chart")
    gw = mock_gateway(default_response="maybe?")
    verdict, feedback = rs.evaluate_result("q", ok, gw)
    assert verdict == "fail" and "maybe?" in feedback


# -- full computation cycle -----------------------------------------------------------


def scripted_cycle_gateway():
    return mock_gateway({"rules": [
        {"match": "Write a Python script", "responses": [
            "```python\nprint('count:', len(search_results))\n```",
            "```python\nyears = [o.birth_year for o in search_results"
            " if getattr(o, 'birth_year', None)]\n"
            "print('mean birth year:', sum(years) / len(years))\n```",
        ]},
        {"match": "List the topic entities",
         "responses": ["Ada Lovelace\nCharles Babbage"]},
        {"match": "Decide whether the analysis results satisfy", "responses": [
            "FAIL a bare count does not answer the mean birth year",
            "PASS the mean is printed",
        ]},
    ]})


def test_computation_cycle_retries_then_passes(tmp_path):
    graph = science_graph()
    store = science_store(graph)
    trace_path = tmp_path / "trace.json"
    trace = rs.run_computation_cycle(
        "mean birth year of the scientists", graph, store,
        scripted_cycle_gateway(), workdir=str(tmp_path / "run"),
        trace_path=str(trace_path))
    assert trace.final_status == "passed"
    assert len(trace.iterations) == 2
    assert trace.iterations[0].verdict == "fail"
    assert trace.iterations[1].verdict == "pass"
    assert "mean birth year: 1803.0" in trace.iterations[1].execution.stdout
    saved = json.loads(trace_path.read_text())
    assert saved["final_status"] == "passed"
    assert len(saved["iterations"]) == 2


def test_computation_cycle_runs_a_codegen_reply_with_a_lone_surrogate(tmp_path):
    gateway = mock_gateway({"rules": [
        {"match": "Write a Python script", "responses": [
            "```python\n# \ud800\nprint('count:', len(search_results))\n```"]},
        {"match": "List the topic entities", "responses": ["Ada Lovelace"]},
        {"match": "Decide whether the analysis results satisfy", "responses": ["PASS"]},
    ]})
    graph = science_graph()
    trace = rs.run_computation_cycle("birth year of each person", graph, science_store(graph),
                                     gateway, workdir=str(tmp_path / "run"))
    assert trace.final_status == "passed"
    assert "# \ufffd" in (tmp_path / "run" / "iter1" / "script.py").read_text(encoding="utf-8")


def test_computation_cycle_searches_the_ontology_once(tmp_path, monkeypatch):
    searches = []

    def counting_search(*args, **kwargs):
        searches.append(args[0])
        return search(*args, **kwargs)

    search = rs.ontology_search
    monkeypatch.setattr(rs, "ontology_search", counting_search)
    graph = science_graph()
    trace = rs.run_computation_cycle(
        "mean birth year of the scientists", graph, science_store(graph),
        scripted_cycle_gateway(), workdir=str(tmp_path / "run"))
    assert len(trace.iterations) == 2
    assert searches == ["mean birth year of the scientists"]
    first, second = trace.iterations
    assert first.concepts and first.concepts == second.concepts


def test_computation_cycle_asks_for_topic_entities_once(tmp_path):
    graph = science_graph()
    gw = scripted_cycle_gateway()
    trace = rs.run_computation_cycle(
        "mean birth year of the scientists", graph, science_store(graph), gw,
        workdir=str(tmp_path / "run"))
    assert len(trace.iterations) == 2
    assert [c for c in gw.chat_backend.calls if "List the topic entities" in c] == [
        gw.chat_backend.calls[0]]
    assert trace.iterations[0].instance_count == trace.iterations[1].instance_count > 0


def test_computation_cycle_feedback_flows_to_codegen(tmp_path):
    graph = science_graph()
    store = science_store(graph)
    gw = scripted_cycle_gateway()
    rs.run_computation_cycle(
        "mean birth year of the scientists", graph, store, gw,
        workdir=str(tmp_path / "run"))
    codegen_prompts = [c for c in gw.chat_backend.calls if "Write a Python script" in c]
    assert len(codegen_prompts) == 2
    assert "bare count" in codegen_prompts[1]
    assert "bare count" not in codegen_prompts[0]


def test_computation_cycle_exhausts_budget(tmp_path):
    graph = science_graph()
    store = science_store(graph)
    gw = mock_gateway({"rules": [
        {"match": "Write a Python script",
         "responses": ["```python\nprint(len(search_results))\n```"]},
        {"match": "List the topic entities", "responses": ["Ada Lovelace"]},
        {"match": "Decide whether the analysis results satisfy",
         "responses": ["FAIL not enough"]},
    ]})
    trace = rs.run_computation_cycle(
        "mean birth year of the scientists", graph, store, gw,
        limits=rs.Limits(max_iterations=2), workdir=str(tmp_path / "run"))
    assert trace.final_status == "exhausted"
    assert len(trace.iterations) == 2


def test_computation_cycle_fails_without_concepts(tmp_path):
    graph = science_graph()
    trace = rs.run_computation_cycle(
        "zeppelin", graph, ks.KnowledgeStore(graph), mock_gateway(),
        workdir=str(tmp_path / "run"))
    assert trace.final_status == "failed"
    assert "zeppelin" in trace.reason


def test_computation_cycle_fails_without_instances(tmp_path):
    graph = science_graph()
    gw = mock_gateway({"rules": [
        {"match": "Write a Python script",
         "responses": ["```python\nprint(len(search_results))\n```"]},
        {"match": "List the topic entities", "responses": ["Zeppelin"]},
    ]})
    trace = rs.run_computation_cycle(
        "birth year of scientists", graph, ks.KnowledgeStore(graph), gw,
        workdir=str(tmp_path / "run"))
    assert trace.final_status == "failed"
    assert "Zeppelin" in trace.reason
    assert trace.iterations == []
    assert not [c for c in gw.chat_backend.calls if "Write a Python script" in c]


def test_computation_cycle_fails_without_topic_entities(tmp_path):
    graph = science_graph()
    gw = mock_gateway({"rules": [
        {"match": "Write a Python script",
         "responses": ["```python\nprint(len(search_results))\n```"]},
        {"match": "List the topic entities", "responses": [""]},
    ]})
    trace = rs.run_computation_cycle(
        "birth year of scientists", graph, science_store(graph), gw,
        workdir=str(tmp_path / "run"))
    assert (trace.final_status, trace.iterations) == ("failed", [])
    assert "no topic entities" in trace.reason
    assert not [c for c in gw.chat_backend.calls if "Write a Python script" in c]


def test_computation_cycle_rejected_code_consumes_iteration(tmp_path):
    graph = science_graph()
    store = science_store(graph)
    gw = mock_gateway({"rules": [
        {"match": "Write a Python script", "responses": [
            "print(42)",
            "```python\nprint('n =', len(search_results))\n```",
        ]},
        {"match": "List the topic entities", "responses": ["Ada Lovelace"]},
        {"match": "Decide whether the analysis results satisfy",
         "responses": ["PASS fine"]},
    ]})
    trace = rs.run_computation_cycle(
        "count of scientist records", graph, store, gw,
        workdir=str(tmp_path / "run"))
    assert trace.final_status == "passed"
    assert len(trace.iterations) == 2
    assert trace.iterations[0].execution is None
    assert trace.iterations[0].verdict == "fail"


def test_computation_cycle_objects_override_skips_topic_query(tmp_path):
    graph = science_graph()
    store = science_store(graph)
    pinned = store.query_by_name("Charles Babbage")
    gw = mock_gateway({"rules": [
        {"match": "Write a Python script",
         "responses": ["```python\nprint(search_results[0].name)\n```"]},
        {"match": "Decide whether the analysis results satisfy",
         "responses": ["PASS named"]},
    ]})
    trace = rs.run_computation_cycle(
        "who is the scientist", graph, store, gw,
        workdir=str(tmp_path / "run"), objects_override=pinned)
    assert trace.final_status == "passed"
    assert "Charles Babbage" in trace.iterations[0].execution.stdout
    assert all("List the topic entities" not in c for c in gw.chat_backend.calls)


def test_execute_script_catalogs_rewritten_files_too(tmp_path):
    workdir = tmp_path / "work"
    workdir.mkdir()
    (workdir / "notes.txt").write_text("left alone\n")
    script = "open('counts.csv', 'w').write('kind,count\\nA,1\\n')\n"
    first = rs.execute_script(script, str(workdir))
    time.sleep(0.05)  # past the file system's timestamp tick
    second = rs.execute_script(script, str(workdir))
    assert first.produced_files == [("counts.csv", "table")]
    assert second.produced_files == [("counts.csv", "table")]

def test_computation_cycle_collects_artifacts(tmp_path):
    graph = science_graph()
    store = science_store(graph)
    gw = mock_gateway({"rules": [
        {"match": "Write a Python script", "responses": [
            "```python\nopen('years.csv', 'w').write('year\\n')\n"
            "print('rows:', len(search_results))\n```",
        ]},
        {"match": "List the topic entities", "responses": ["Ada Lovelace"]},
        {"match": "Decide whether the analysis results satisfy",
         "responses": ["PASS table written"]},
    ]})
    trace = rs.run_computation_cycle(
        "tabulate scientist birth years", graph, store, gw,
        workdir=str(tmp_path / "run"))
    assert trace.final_status == "passed"
    assert len(trace.artifacts) == 1
    assert trace.artifacts[0].endswith("years.csv")
    assert trace.iterations[0].execution.produced_files == [("years.csv", "table")]


# -- text cycle ------------------------------------------------------------------------


def corpus(tmp_path):
    docs = [
        ("ada.json", "Ada Lovelace", "https://w/ada",
         "Ada Lovelace wrote the first published program in her notes."),
        ("engine.json", "Analytical engine", "https://w/engine",
         "The analytical engine was a proposed mechanical computer."),
    ]
    for name, title, url, body in docs:
        (tmp_path / name).write_text(
            json.dumps({"title": title, "url": url, "body": body}))
    return FixtureSearchBackend(str(tmp_path))


def test_text_cycle_single_sufficient_round(tmp_path):
    backend = corpus(tmp_path)
    gw = mock_gateway({"rules": [
        {"match": "Summarize the following source", "responses": ["a summary"]},
        {"match": "Write the answer to the research question",
         "responses": ["Ada wrote the first program [1]."]},
        {"match": "Decide whether the draft sufficiently answers",
         "responses": ["PASS complete"]},
    ]})
    result = rs.run_text_cycle("Who wrote the first program?", backend, gw)
    assert result.sufficient and result.rounds == 1
    assert result.text == "Ada wrote the first program [1]."
    assert ("Ada Lovelace", "https://w/ada") in result.sources


class RecordingBackend:
    def __init__(self, inner):
        self.inner = inner
        self.queries: list[str] = []

    def search(self, query, limit=5):
        self.queries.append(query)
        return self.inner.search(query, limit=limit)


def test_text_cycle_insufficient_draft_retries_with_feedback(tmp_path):
    backend = RecordingBackend(corpus(tmp_path))
    gw = mock_gateway({"rules": [
        {"match": "Summarize the following source", "responses": ["s"]},
        {"match": "Write the answer to the research question",
         "responses": ["draft one", "draft two"]},
        {"match": "Decide whether the draft sufficiently answers",
         "responses": ["FAIL missing the engine details", "PASS good"]},
    ]})
    result = rs.run_text_cycle("first program", backend, gw, max_rounds=3)
    assert result.sufficient and result.rounds == 2
    assert result.text == "draft two"
    # the second search folded in the missing-information feedback
    assert backend.queries[0] == "first program"
    assert "engine details" in backend.queries[1]


def test_text_cycle_round_budget(tmp_path):
    backend = corpus(tmp_path)
    gw = mock_gateway({"rules": [
        {"match": "Summarize the following source", "responses": ["s"]},
        {"match": "Write the answer to the research question", "responses": ["d"]},
        {"match": "Decide whether the draft sufficiently answers",
         "responses": ["FAIL never enough"]},
    ]})
    result = rs.run_text_cycle("first program", backend, gw, max_rounds=2)
    assert not result.sufficient and result.rounds == 2
    assert "budget" in result.note


def test_text_cycle_empty_corpus_returns_note(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    backend = FixtureSearchBackend(str(empty))
    result = rs.run_text_cycle("q", backend, mock_gateway())
    assert result.text == "" and not result.sufficient
    assert "no documents" in result.note


def test_text_cycle_deduplicates_sources_across_rounds(tmp_path):
    backend = corpus(tmp_path)
    gw = mock_gateway({"rules": [
        {"match": "Summarize the following source", "responses": ["s"]},
        {"match": "Write the answer to the research question", "responses": ["d"]},
        {"match": "Decide whether the draft sufficiently answers",
         "responses": ["FAIL more", "PASS ok"]},
    ]})
    result = rs.run_text_cycle("Ada Lovelace program engine", backend, gw)
    urls = [u for _, u in result.sources]
    assert len(urls) == len(set(urls))


class _RepeatedUrl:
    """One round's hits, the first and the last with one URL."""

    def search(self, query, limit=5):
        return [SearchHit("First", "https://w/a", "body one"),
                SearchHit("Other", "https://w/b", "body two"),
                SearchHit("Second", "https://w/a", "body three")]


@pytest.mark.parametrize("workers", [1, 3])
def test_text_cycle_summarizes_a_repeated_url_once_from_its_first_hit(workers):
    mock = MockChatBackend.from_script({"rules": [
        {"match": f"body {n}", "responses": [f"summary {n}"]} for n in ("one", "two", "three")
    ] + [{"match": "Decide whether the draft sufficiently answers", "responses": ["PASS"]}],
        "default_response": "draft"})
    held = HoldFirst(mock, {"summaries": ("Summarize the following source",)})
    gw = LlmGateway(held if workers > 1 else mock, MockEmbeddingBackend())
    result = rs.run_text_cycle("q", _RepeatedUrl(), gw, max_rounds=1, workers=workers)
    summarized = [c for c in mock.calls if "Summarize the following source" in c]
    assert len(summarized) == 2
    assert [n for n in ("one", "two", "three") if any(f"body {n}" in c for c in summarized)] == [
        "one", "two"]
    assert result.sources == [("First", "https://w/a"), ("Other", "https://w/b")]
    [draft] = [c for c in mock.calls if "Write the answer to the research question" in c]
    assert "[1] First: summary one\n[2] Other: summary two\n" in draft
    assert held.reordered == ({"summaries"} if workers > 1 else set())


@pytest.mark.parametrize("reply, passed, sentence", [
    ("PASS: the count is printed", True, "the count is printed"),
    ("  fail - missing the engine details.", False, "missing the engine details."),
    ("Pass.", True, ""),
    ("FAIL", False, ""),
    ("The draft lacks dates", None, "The draft lacks dates"),
    ("PASSED it", None, "PASSED it"),
])
def test_both_cycles_read_a_verdict_reply_alike(tmp_path, reply, passed, sentence):
    assert rs.read_verdict(reply) == (passed, sentence)
    gw = mock_gateway(default_response=reply)
    feedback = sentence if passed is not None else f"unparseable verdict; raw response: {sentence}"
    assert rs.evaluate_result("q", rs.ExecutionResult("ok", "42", ""), gw) == (
        "pass" if passed else "fail", feedback)
    backend = RecordingBackend(corpus(tmp_path))
    gw = mock_gateway({"rules": [
        {"match": "Summarize the following source", "responses": ["s"]},
        {"match": "Write the answer to the research question", "responses": ["d", "d"]},
        {"match": "Decide whether the draft sufficiently answers", "responses": [reply, reply]},
    ]})
    result = rs.run_text_cycle("first program", backend, gw, max_rounds=2)
    assert result.sufficient == bool(passed)
    # a draft that did not pass folds the reply's sentence, or the whole reply, into the search
    assert backend.queries[1:] == ([] if passed else [f"first program {sentence}".strip()])


# -- merge and revise -------------------------------------------------------------------


def test_merge_passthrough_without_computed_findings():
    assert rs.merge_and_revise("S", [], "just the draft", mock_gateway()) == "just the draft"


def test_merge_requires_some_input():
    with pytest.raises(ValueError):
        rs.merge_and_revise("S", [], "", mock_gateway())


def test_merge_sends_computed_and_drafted_to_model():
    gw = mock_gateway({"rules": [
        {"match": "Merge the computed findings", "responses": ["merged body"]},
    ]})
    out = rs.merge_and_revise("S", ["mean: 1803.0"], "prose", gw)
    assert out == "merged body"
    assert "mean: 1803.0" in gw.chat_backend.calls[0]
    assert "prose" in gw.chat_backend.calls[0]


def test_revise_report_polishes_each_section():
    gw = mock_gateway({"rules": [
        {"match": "Polish the section", "responses": ["polished A", "polished B"]},
    ]})
    out = rs.revise_report(["raw A", "raw B"], gw)
    assert out == ["polished A", "polished B"]
    assert "raw A" in gw.chat_backend.calls[0] and "raw B" in gw.chat_backend.calls[0]
