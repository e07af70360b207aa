"""The one file writer: whole-file replacement, modes, threads, failures."""

from __future__ import annotations

import ast
import json
import os
import re
import sys
import threading
from pathlib import Path

import numpy
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kdr import files
from kdr import knowledge_store as ks
from kdr import ontology as onto
from kdr import pipeline as pl
from kdr.errors import CorruptRecord, IoFailure, SchemaViolation
from kdr.llm_gateway import LlmGateway, MockChatBackend, MockEmbeddingBackend, Transcript

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(files.__file__).parent


def e2e_gateway():
    script = json.loads((FIXTURES / "e2e_mock.json").read_text())
    return LlmGateway(MockChatBackend.from_script(script),
                      MockEmbeddingBackend(), Transcript(None))


def temp_files(root: Path) -> list[Path]:
    return sorted(root.rglob("*.tmp"))


def test_failed_replace_leaves_old_kb_ontology_and_manifest(tmp_path, monkeypatch):
    gw = e2e_gateway()
    pl.propose_ontology("Early computing", "s", gw, review_path=str(tmp_path / "p.json"))
    proposal = pl.review_gate(str(tmp_path / "p.json"), approve=True)
    kb = tmp_path / "kb.jsonl"
    ontology = tmp_path / "kb.jsonl.ontology.json"
    manifest = tmp_path / "run" / "manifest.json"
    task = pl.ResearchTask("Early computing", "organize",
                           corpus_path=str(FIXTURES / "corpus"), kb_path=str(kb))
    graph, store, _ = pl.run_organization(task, proposal, gw, run_dir=str(tmp_path / "run"))
    assert store.objects
    before = {path: path.read_bytes() for path in (kb, ontology, manifest)}

    def crash(src, dst):
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(IoFailure, match="cannot write"):
        ks.save(ks.KnowledgeStore(graph), str(kb))
    with pytest.raises(IoFailure, match="cannot write"):
        onto.save_ontology(onto.empty_graph(), str(ontology))
    other = pl.ResearchTask("Another topic", "organize", corpus_path=str(FIXTURES / "corpus"))
    with pytest.raises(IoFailure, match="cannot write"):
        pl.run_organization(other, proposal, gw, run_dir=str(tmp_path / "run"))
    assert {path: path.read_bytes() for path in before} == before
    assert temp_files(tmp_path) == []


def test_an_error_between_pieces_keeps_the_old_file(tmp_path):
    path = tmp_path / "doc.txt"
    files.write_file(path, "old\n")

    def pieces():
        yield "new "
        raise ValueError("encoder broke")

    with pytest.raises(ValueError):
        files.write_file(path, pieces())
    assert path.read_text() == "old\n"
    assert temp_files(tmp_path) == []


def test_saved_kb_follows_the_umask_in_a_new_directory(tmp_path):
    graph = onto.empty_graph()
    path = tmp_path / "new" / "dir" / "kb.jsonl"
    old = os.umask(0o022)
    try:
        ks.save(ks.KnowledgeStore(graph), str(path))
        onto.save_ontology(graph, f"{path}.ontology.json")
    finally:
        os.umask(old)
    assert path.stat().st_mode & 0o777 == 0o644
    assert Path(f"{path}.ontology.json").stat().st_mode & 0o777 == 0o644


def test_threads_writing_one_directory_leave_whole_files_and_no_temp_files(tmp_path):
    texts = {i: f"thread {i}\n" * (1000 + i) for i in range(8)}
    errors: list[BaseException] = []
    barrier = threading.Barrier(8)

    def writer(i: int) -> None:
        try:
            barrier.wait(timeout=10)
            for _ in range(20):
                files.write_file(tmp_path / f"own_{i}.txt", texts[i])
                files.write_file(tmp_path / "shared.txt", texts[i])
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert all((tmp_path / f"own_{i}.txt").read_text() == texts[i] for i in texts)
    assert (tmp_path / "shared.txt").read_text() in texts.values()
    assert temp_files(tmp_path) == []


@pytest.mark.parametrize("save", [
    lambda path: ks.save(ks.KnowledgeStore(onto.empty_graph()), path),
    lambda path: onto.save_ontology(onto.empty_graph(), path),
    lambda path: files.write_json(path, {"a": 1}),
], ids=["kb", "ontology", "json"])
def test_parent_that_is_a_regular_file_raises_io_failure(tmp_path, save):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    with pytest.raises(IoFailure, match="cannot write"):
        save(str(blocker / "out.json"))
    assert blocker.read_text() == "not a directory"


def test_write_json_layout(tmp_path):
    files.write_json(tmp_path / "doc.json", {"name": "Ada Lovelace", "n": [1]})
    assert (tmp_path / "doc.json").read_text(encoding="utf-8") == (
        '{\n  "name": "Ada Lovelace",\n  "n": [\n    1\n  ]\n}\n')


json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
json_keys = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
json_values = st.recursive(
    json_scalars,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(json_keys, inner)),
    max_leaves=40)


@given(json_values)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_write_json_writes_what_json_dumps_writes(tmp_path, document):
    # the file is replaced whole on each example
    files.write_json(tmp_path / "doc.json", document)
    assert (tmp_path / "doc.json").read_bytes() == (
        json.dumps(document, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


@pytest.mark.parametrize("document", [
    {"a": [1, object()]}, [{(1, 2): "tuple key"}], {"deep": {"deeper": {"set": {1}}}},
    {"array": numpy.arange(3)},
], ids=["value", "key", "deep-value", "no-truth-value"])
def test_write_json_raises_what_json_dumps_raises(tmp_path, document):
    with pytest.raises(TypeError) as stdlib:
        json.dumps(document, indent=2, ensure_ascii=False)
    with pytest.raises(TypeError, match=re.escape(str(stdlib.value))):
        files.write_json(tmp_path / "doc.json", document)
    assert list(tmp_path.iterdir()) == []


def test_write_json_refuses_a_document_that_contains_itself(tmp_path):
    looped = {"a": [1, {"b": ("c", [])}]}
    looped["a"][1]["b"][1].append(looped)
    shared = [{"x": 1}]  # in the document twice, but not inside itself
    for document in (looped, [[[[looped]]]], [[[{"one": shared, "two": [shared]}]]]):
        try:
            expected = json.dumps(document, indent=2, ensure_ascii=False) + "\n"
        except ValueError as stdlib:
            assert str(stdlib) == "Circular reference detected"
            with pytest.raises(ValueError, match="^Circular reference detected$"):
                files.write_json(tmp_path / "doc.json", document)
            assert list(tmp_path.iterdir()) == []
        else:
            files.write_json(tmp_path / "doc.json", document)
            assert (tmp_path / "doc.json").read_text(encoding="utf-8") == expected


# -- one writer ------------------------------------------------------------------

_WRITE_MODE_CHARS = set("wxa+")
# (module, enclosing function) pairs allowed to write outside files.py
_ALLOWED = set()


class _WriteFinder(ast.NodeVisitor):
    def __init__(self):
        self.scope: list[str] = []
        self.found: list[tuple[str, int]] = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Call(self, node: ast.Call):
        func = node.func
        mode = None
        if isinstance(func, ast.Name) and func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else None
        elif (isinstance(func, ast.Attribute) and func.attr == "open"
              and not (isinstance(func.value, ast.Name) and func.value.id == "os")):
            mode = node.args[0] if node.args else None
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        writes = (
            isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes")
            or isinstance(func, ast.Attribute) and func.attr == "dump"
            and isinstance(func.value, ast.Name) and func.value.id == "json"
            or isinstance(mode, ast.Constant) and isinstance(mode.value, str)
            and bool(_WRITE_MODE_CHARS & set(mode.value))
        )
        if writes:
            self.found.append((".".join(self.scope), node.lineno))
        self.generic_visit(node)


def test_files_is_the_only_writer():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "files.py":
            continue
        finder = _WriteFinder()
        finder.visit(ast.parse(path.read_text(encoding="utf-8")))
        offenders += [f"{path.name}:{line} in {scope or '<module>'}"
                      for scope, line in finder.found if (path.name, scope) not in _ALLOWED]
    assert offenders == []


def test_write_finder_flags_each_kind_of_write():
    source = '''
def f(p):
    p.write_text("x")
    p.write_bytes(b"x")
    json.dump({}, handle)
    open(p, "w")
    open(p, mode="x")
    p.open("a")
    open(p, "r+b")
    open(p)
    open(p, "rb")
    os.open(p, os.O_RDONLY)
'''
    finder = _WriteFinder()
    finder.visit(ast.parse(source))
    assert [line for _, line in finder.found] == [3, 4, 5, 6, 7, 8, 9]


# -- the one reader --------------------------------------------------------------


def test_read_text_names_a_missing_or_undecodable_file(tmp_path):
    with pytest.raises(IoFailure, match=f"cannot read {tmp_path / 'absent.txt'}"):
        files.read_text(tmp_path / "absent.txt")
    latin = tmp_path / "latin.txt"
    latin.write_bytes("caf\xe9\n".encode("latin-1"))
    with pytest.raises(IoFailure, match=f"cannot read {latin}: 'utf-8' codec"):
        files.read_text(latin)


@pytest.mark.parametrize("raw", [b"a\r\nb\rc\n", b"\r", b"x\r\r\n\n\ry\r",
                                 "caf\u00e9\r\n\u2028\r\u00e9".encode("utf-8")])
def test_read_text_reads_crlf_and_a_lone_cr_as_lf_like_text_mode(tmp_path, raw):
    path = tmp_path / "lines.txt"
    path.write_bytes(raw)
    with open(path, encoding="utf-8") as handle:
        expected = handle.read()
    assert files.read_text(path) == expected
    assert "\r" not in expected


def test_read_text_of_a_directory_is_io_failure_naming_it(tmp_path):
    folder = tmp_path / "x.json"
    folder.mkdir()
    with pytest.raises(IoFailure, match=f"cannot read {folder}"):
        files.read_text(folder)


def test_read_json_names_the_path_and_line(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{\n  "a": 1,\n}\n')
    with pytest.raises(CorruptRecord) as err:
        files.read_json(path)
    assert err.value.line_number == 3
    assert str(err.value).startswith(f"{path}: line 3: Expecting property name")
    path.write_text('{"a": [1, "b"]}')
    assert files.read_json(path) == {"a": [1, "b"]}


def test_read_jsonl_yields_numbered_rows_and_stops_at_a_bad_one(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a": 1}\n\n  \n[2]\n{broken\n{"never": 1}\n')
    rows = files.read_jsonl(path)
    assert next(rows) == (1, {"a": 1})
    assert next(rows) == (4, [2])
    with pytest.raises(CorruptRecord, match=f"{path}: line 5: "):
        next(rows)
    with pytest.raises(IoFailure, match="cannot read"):
        list(files.read_jsonl(tmp_path / "absent.jsonl"))


def test_read_jsonl_keeps_a_line_separator_inside_a_string(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text(json.dumps({"name": "a\u2028b"}, ensure_ascii=False) + "\n",
                    encoding="utf-8")
    assert list(files.read_jsonl(path)) == [(1, {"name": "a\u2028b"})]


def test_check_keys_rejects_non_objects_missing_and_unknown_keys():
    record = {"id": 1, "extra": True}
    assert files.check_keys(record, "QA record 0", required=("id",)) is record
    with pytest.raises(SchemaViolation, match="QA record 0 must be a JSON object, got list"):
        files.check_keys([1], "QA record 0")
    with pytest.raises(SchemaViolation, match=r"QA record 0 lacks \['answers'\]"):
        files.check_keys(record, "QA record 0", required=("id", "answers"))
    with pytest.raises(SchemaViolation, match=r"unknown QA record 0 keys: \['extra'\]"):
        files.check_keys(record, "QA record 0", allowed=("id",))


def test_make_dir_under_a_regular_file_raises_io_failure(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    with pytest.raises(IoFailure, match="cannot create run directory"):
        files.make_dir(blocker / "run", "run directory")
    files.make_dir(tmp_path / "a" / "b", "run directory")
    assert (tmp_path / "a" / "b").is_dir()


# (module, enclosing function) pairs allowed to open a file outside files.py
_READ_ALLOWED = {("llm_gateway.py", "Transcript.record")}


class _ReadFinder(_WriteFinder):
    """Flags open() and .open() in any mode, .read_text, .read_bytes and json.load."""

    def visit_Call(self, node: ast.Call):
        func = node.func
        reads = (
            isinstance(func, ast.Name) and func.id == "open"
            or isinstance(func, ast.Attribute) and func.attr in ("open", "read_text", "read_bytes")
            or isinstance(func, ast.Attribute) and func.attr == "load"
            and isinstance(func.value, ast.Name) and func.value.id == "json"
        )
        if reads:
            self.found.append((".".join(self.scope), node.lineno))
        self.generic_visit(node)


def test_files_is_the_only_reader():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "files.py":
            continue
        finder = _ReadFinder()
        finder.visit(ast.parse(path.read_text(encoding="utf-8")))
        offenders += [f"{path.name}:{line} in {scope or '<module>'}"
                      for scope, line in finder.found if (path.name, scope) not in _READ_ALLOWED]
    assert offenders == []


def test_read_finder_flags_each_kind_of_read():
    source = '''
def f(p):
    open(p)
    open(p, "rb")
    p.open()
    os.open(p, os.O_RDONLY)
    p.read_text(encoding="utf-8")
    p.read_bytes()
    json.load(handle)
    json.loads(text)
    handle.read()
    os.read(fd, 10)
'''
    finder = _ReadFinder()
    finder.visit(ast.parse(source))
    assert [line for _, line in finder.found] == [3, 4, 5, 6, 7, 8, 9]
