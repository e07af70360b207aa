"""Import-clause extraction and instantiation-code parsing.

The two-step protocol: ask the model to import the concept types present in a
sentence, then ask it to instantiate objects of the imported types. Model
output is code, parsed here with the ast module rather than regexes so nested
calls, lists, and escapes behave exactly like Python.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
import time
from dataclasses import dataclass, field

from . import knowledge_store as ks
from . import ontology as onto
from . import templates
from .errors import (
    EmptyOutput,
    KdrError,
    NoImportsFound,
    SchemaViolation,
    UnknownConcept,
    UnknownGoldType,
)
from .knowledge_store import KnowledgeObject, Ref, make_object

# -- requests -------------------------------------------------------------------


@dataclass
class ExtractionRequest:
    text: str
    namespace: str
    mode: str = "closed"  # "closed" | "open"
    allowed_types: list[str] = field(default_factory=list)
    source_id: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("closed", "open"):
            raise SchemaViolation(f"unknown extraction mode {self.mode!r}")
        if self.mode == "closed" and not self.allowed_types:
            raise SchemaViolation("closed mode needs a non-empty allowed_types")
        if self.mode == "open" and self.allowed_types:
            raise SchemaViolation("open mode takes no allowed_types")
        if self.source_id is None:
            digest = hashlib.sha1(self.text.encode("utf-8")).hexdigest()
            self.source_id = f"text:{digest[:12]}"


@dataclass
class ParseIssue:
    kind: str
    message: str
    span: tuple[int, int] | None = None


@dataclass
class ParsedInstantiation:
    concept: str
    args: dict[str, object]  # literal | list | nested ParsedInstantiation
    source_span: tuple[int, int] | None = None


@dataclass
class ExtractionReport:
    """Side-channel for everything extract() drops or works around."""

    imported: list[str] = field(default_factory=list)
    dropped_imports: list[str] = field(default_factory=list)
    issues: list[ParseIssue] = field(default_factory=list)
    reason: str | None = None


# -- prompt rendering --------------------------------------------------------------


def render_schema_recall_prompt(namespace: str, type_name: str) -> str:
    return templates.SCHEMA_RECALL_PROMPT.format(type=type_name, task=namespace)


def render_importing_prompt(req: ExtractionRequest, graph: onto.OntologyGraph) -> str:
    if req.mode == "open":
        return templates.OPEN_IMPORTING_PROMPT.format(task=req.namespace, text=req.text)
    clause = onto.render_import_clause(graph, req.namespace, req.allowed_types)
    return templates.CLOSED_IMPORTING_PROMPT.format(clause=clause, task=req.namespace,
                                                    text=req.text)


def render_instantiation_prompt(
    graph: onto.OntologyGraph, namespace: str, imported: list[str], text: str
) -> str:
    clause = onto.render_import_clause(graph, namespace, imported)
    return templates.INSTANTIATION_PROMPT.format(clause=clause, task=namespace, text=text)


# -- import-line parsing --------------------------------------------------------------

_IMPORT_LINE = re.compile(r"^(?:From\s+\S+\s+)?Import\s+(.+?)\s*$", re.IGNORECASE)


def parse_import_lines(
    response: str, graph: onto.OntologyGraph, namespace: str
) -> tuple[list[str], list[str]]:
    """Collect imported type names in first-appearance order.

    Returns (valid names, dropped unknown names); raises when nothing valid
    remains.
    """
    names: list[str] = []
    dropped: list[str] = []
    seen: set[str] = set()
    for line in response.splitlines():
        m = _IMPORT_LINE.match(line.strip())
        if not m:
            continue
        for raw in m.group(1).split(","):
            name = raw.strip()
            if not name or name in seen:
                continue
            seen.add(name)
            try:
                graph.resolve(name, namespace)
                names.append(name)
            except KdrError:
                dropped.append(name)
    if not names:
        raise NoImportsFound("no valid Import lines in response", dropped=dropped)
    return names, dropped


# -- instantiation-code parsing ----------------------------------------------------------

_FENCE = re.compile(r"```(?:python)?\s*\n(.*?)```", re.DOTALL)


def strip_code_fence(text: str) -> str:
    """First fenced code block if present, otherwise the text unchanged."""
    m = _FENCE.search(text)
    return m.group(1) if m else text


def _line_offsets(code: str) -> list[int]:
    offsets = [0]
    for line in code.split("\n")[:-1]:
        offsets.append(offsets[-1] + len(line) + 1)
    return offsets


def _node_span(node: ast.AST, offsets: list[int]) -> tuple[int, int] | None:
    try:
        start = offsets[node.lineno - 1] + node.col_offset
        end = offsets[node.end_lineno - 1] + node.end_col_offset
        return (start, end)
    except (AttributeError, IndexError):
        return None


class _Parser:
    def __init__(self, graph, namespace):
        self.graph = graph
        self.namespace = namespace
        self.issues: list[ParseIssue] = []
        self.bindings: dict[str, ParsedInstantiation] = {}
        self.order: list[ParsedInstantiation] = []
        self.listed: list[ParsedInstantiation] | None = None
        self.saw_call = False

    def fail(self, kind: str, message: str, span) -> None:
        self.issues.append(ParseIssue(kind, message, span))

    def literal(self, node: ast.AST, offsets, depth: int):
        """Returns the parsed value or raises _Skip for an unusable one."""
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or node.value is None:
                raise _Skip("bad_literal", f"unsupported literal {node.value!r}")
            if isinstance(node.value, (str, int, float)):
                return node.value
            raise _Skip("bad_literal", f"unsupported literal {node.value!r}")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub) and \
                isinstance(node.operand, ast.Constant) and \
                isinstance(node.operand.value, (int, float)):
            return -node.operand.value
        if isinstance(node, ast.List):
            return [self.literal(item, offsets, depth) for item in node.elts]
        if isinstance(node, ast.Call):
            if depth >= 1:
                raise _Skip("too_deep", "constructor nesting deeper than one level")
            nested = self.call(node, offsets, depth + 1)
            if nested is None:
                raise _Skip("bad_literal", "nested call could not be parsed")
            return nested
        if isinstance(node, ast.Name):
            if node.id in self.bindings:
                return self.bindings[node.id]
            raise _Skip("bad_literal", f"unknown variable {node.id!r}")
        raise _Skip("bad_literal", f"unsupported expression {ast.dump(node)[:40]}")

    def call(self, node: ast.Call, offsets, depth: int) -> ParsedInstantiation | None:
        self.saw_call = True
        span = _node_span(node, offsets)
        if not isinstance(node.func, ast.Name):
            self.fail("not_a_call", "constructor must be a bare class name", span)
            return None
        class_name = node.func.id
        allowed_attrs: set[str] | None = None
        if self.graph is not None:
            try:
                q = self.graph.resolve(class_name, self.namespace)
                allowed_attrs = {a.name for a in onto.effective_attributes(self.graph, q)}
            except KdrError:
                self.fail("unknown_class", f"unknown class {class_name!r}", span)
                return None
        if node.args:
            self.fail("positional_args", f"{class_name} called with positional arguments", span)
            return None
        args: dict[str, object] = {}
        for kw in node.keywords:
            if kw.arg is None:
                self.fail("bad_literal", f"{class_name} called with **kwargs", span)
                return None
            if allowed_attrs is not None and kw.arg not in allowed_attrs:
                self.fail("unknown_keyword", f"{class_name} has no attribute {kw.arg!r}", span)
                return None
            try:
                args[kw.arg] = self.literal(kw.value, offsets, depth)
            except _Skip as skip:
                self.fail(skip.kind, f"{class_name}.{kw.arg}: {skip.message}", span)
                return None
        parsed = ParsedInstantiation(class_name, args, span)
        self.order.append(parsed)
        return parsed

    def run(self, code: str) -> None:
        offsets = _line_offsets(code)
        tree = ast.parse(code)
        for stmt in tree.body:
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                self.call(stmt.value, offsets, 0)
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
                    isinstance(stmt.targets[0], ast.Name):
                target = stmt.targets[0].id
                if isinstance(stmt.value, ast.Call):
                    parsed = self.call(stmt.value, offsets, 0)
                    if parsed is not None:
                        self.bindings[target] = parsed
                elif isinstance(stmt.value, ast.List):
                    listed = []
                    for item in stmt.value.elts:
                        if isinstance(item, ast.Call):
                            parsed = self.call(item, offsets, 0)
                            if parsed is not None:
                                listed.append(parsed)
                        elif isinstance(item, ast.Name) and item.id in self.bindings:
                            listed.append(self.bindings[item.id])
                        else:
                            self.fail("bad_literal", "result lists may hold calls or variables",
                                      _node_span(item, offsets))
                    if target in ("results", "search_results"):
                        self.listed = listed
                else:
                    self.fail("not_a_call", f"assignment to {target!r} is not a constructor call",
                              _node_span(stmt, offsets))
            else:
                self.fail("not_a_call", "statement is neither a call nor an assignment",
                          _node_span(stmt, offsets))


class _Skip(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind
        self.message = message


def parse_instantiation_code(
    response: str,
    graph: onto.OntologyGraph | None = None,
    namespace: str | None = None,
) -> tuple[list[ParsedInstantiation], list[ParseIssue]]:
    """Parse constructor-call code into instantiation records.

    Accepts bare calls, `o1 = Call(...)` bindings, and result-list
    assignments. A bad call or statement is skipped and reported as a
    ParseIssue; code that is not Python, is nested too deeply for the ast
    module, or holds no call raises EmptyOutput.
    """
    code = strip_code_fence(response)
    parser = _Parser(graph, namespace)
    try:
        parser.run(code)
    except (SyntaxError, ValueError) as exc:  # Python 3.10's ast.parse: ValueError for a NUL
        raise EmptyOutput(f"response is not parseable code: {exc.args[0]}") from exc
    except RecursionError as exc:  # from building the AST of a deeply nested expression
        raise EmptyOutput("response is nested too deeply to parse") from exc
    if not parser.saw_call:
        raise EmptyOutput("no constructor calls in response")

    nested = set()
    for p in parser.order:
        for v in p.args.values():
            for item in v if isinstance(v, list) else [v]:
                if isinstance(item, ParsedInstantiation):
                    nested.add(id(item))
    if parser.listed is not None:
        result = list(parser.listed)
        present = {id(p) for p in result}
        for p in parser.order:
            if id(p) not in present and id(p) not in nested:
                result.append(p)
    else:
        result = [p for p in parser.order if id(p) not in nested]
    return result, parser.issues


# -- conversion to knowledge objects ------------------------------------------------------


def _mandatory_for(graph: onto.OntologyGraph, concept: str, namespace: str | None) -> str:
    q = graph.resolve(concept, namespace)
    return onto.MANDATORY_SLOT[graph.kind_of(q)]


def to_knowledge_objects(
    parsed: list[ParsedInstantiation],
    graph: onto.OntologyGraph,
    namespace: str,
    source_id: str,
    timestamp: float | None = None,
    issues: list[ParseIssue] | None = None,
) -> list[KnowledgeObject]:
    """Turn parse records into store objects, children before parents.

    Nested instantiations become their own objects; the parent slot holds a
    reference computed from the child's identity. A record without a usable
    name, or with a value its attribute does not take, is a ParseIssue and
    is skipped alone (a parent keeps its other slots).
    """
    ts = time.time() if timestamp is None else timestamp
    issues = issues if issues is not None else []
    out: list[KnowledgeObject] = []
    emitted: set[str] = set()

    def emit(p: ParsedInstantiation) -> str | None:
        mandatory = _mandatory_for(graph, p.concept, namespace)
        display = p.args.get(mandatory)
        if not isinstance(display, str) or not display.strip():
            issues.append(ParseIssue(
                "missing_name", f"{p.concept} instance lacks a usable {mandatory!r}", p.source_span
            ))
            return None
        slots: dict[str, object] = {}
        for attr, value in p.args.items():
            if attr == mandatory:
                continue
            if isinstance(value, ParsedInstantiation):
                child = emit(value)
                if child is None:
                    continue
                slots[attr] = Ref(child)
            elif isinstance(value, list):
                converted = []
                for item in value:
                    if isinstance(item, ParsedInstantiation):
                        child = emit(item)
                        if child is not None:
                            converted.append(Ref(child))
                    else:
                        converted.append(item)
                slots[attr] = converted
            else:
                slots[attr] = value
        try:
            obj = make_object(graph, p.concept, display, slots, [(source_id, ts)], namespace)
        except KdrError as exc:
            issues.append(ParseIssue("bad_value", str(exc), p.source_span))
            return None
        if obj.id not in emitted:
            emitted.add(obj.id)
            out.append(obj)
        return obj.id

    for p in parsed:
        emit(p)
    return out


# -- the two-step flow -----------------------------------------------------------------------


def extract(
    req: ExtractionRequest,
    graph: onto.OntologyGraph,
    gateway,
    timestamp: float | None = None,
    report: ExtractionReport | None = None,
) -> list[KnowledgeObject]:
    """Importing step, then instantiation step; failures degrade to [] with a reason."""
    report = report if report is not None else ExtractionReport()

    importing_prompt = render_importing_prompt(req, graph)
    response = gateway.chat(importing_prompt, tag="importing")
    try:
        imported, dropped = parse_import_lines(response, graph, req.namespace)
    except NoImportsFound as exc:
        report.dropped_imports = exc.dropped
        report.reason = str(exc)
        return []
    report.dropped_imports = dropped
    if req.mode == "closed":
        allowed = set(req.allowed_types)
        filtered = [n for n in imported if n in allowed]
        report.dropped_imports += [n for n in imported if n not in allowed]
        imported = filtered
        if not imported:
            report.reason = "no imported types inside the allowed set"
            return []
    report.imported = imported

    inst_prompt = render_instantiation_prompt(graph, req.namespace, imported, req.text)
    inst_response = gateway.chat(inst_prompt, tag="instantiation")
    try:
        parsed, issues = parse_instantiation_code(inst_response, graph, req.namespace)
    except EmptyOutput as exc:
        report.reason = str(exc)
        return []
    report.issues.extend(issues)

    if req.mode == "closed":
        allowed = set(req.allowed_types)
        kept = []
        for p in parsed:
            if p.concept in allowed:
                kept.append(p)
            else:
                report.issues.append(ParseIssue(
                    "outside_allowed", f"{p.concept} not in allowed_types", p.source_span
                ))
        parsed = kept

    return to_knowledge_objects(
        parsed, graph, req.namespace, req.source_id, timestamp, report.issues
    )


# -- IE tasks ------------------------------------------------------------------------------------

# The tasks `kdr eval ie` scores, by the number of fields in each gold or
# predicted tuple. Kept here, not in evalkit, so the CLI's parser can list
# them without loading the evaluation harnesses.
IE_TASK_ARITY = {"ner": 2, "re": 3, "ed": 2, "eae": 3}
IE_TASKS = tuple(sorted(IE_TASK_ARITY))


# -- training-sample generation -----------------------------------------------------------------

SAMPLE_TASKS = ("understanding", "importing_closed", "importing_open", "instantiation")


def _gold_call(graph: onto.OntologyGraph, annotation: dict, namespace: str, row_id) -> str:
    """The annotation's constructor call, as the sandbox's declarations write it."""
    type_name = annotation["type"]
    try:
        q = graph.resolve(type_name, namespace)
    except UnknownConcept as exc:
        raise UnknownGoldType(f"{type_name!r} in {row_id}: {exc}") from exc
    specs = onto.effective_attributes(graph, q)
    values = {attr: v if isinstance(v, list) else [v]
              for attr, v in annotation.get("slots", {}).items()}
    crowded = [s.name for s in specs if not s.is_list and len(values.get(s.name, ())) > 1]
    if crowded:
        raise SchemaViolation(f"{type_name}.{crowded[0]} in {row_id} is scalar but holds several values")
    try:
        ks.make_object(graph, q, "", {a: v for a, v in values.items() if a != specs[0].name})
    except KdrError as exc:
        raise SchemaViolation(f"{type_name} in {row_id}: {exc}") from exc
    return ks.render_call(type_name, specs, values, _render_sample_literal)


def _render_sample_literal(value) -> str:
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    return repr(value)


def generate_training_samples(
    dataset: list[dict],
    graph: onto.OntologyGraph,
    tasks: set[str],
    namespace: str,
) -> list[dict]:
    """Schema-recall, importing, and instantiation samples from a gold corpus.

    Output rows are {"task", "prompt", "target"}; byte-deterministic for a
    fixed (dataset, graph, tasks) triple. Prompts are the ones extract sends,
    and each target is what it parses: a gold list in a scalar slot, a slot
    the type does not take or a value the slot does not take, like an unknown
    gold type, rejects the dataset, and an empty gold list is left out.
    """
    unknown = set(tasks) - set(SAMPLE_TASKS)
    if unknown:
        raise SchemaViolation(f"unknown sample tasks: {sorted(unknown)}")
    inventory = graph.import_inventories().get(namespace, [])
    samples: list[dict] = []
    for row in dataset:
        text = row["text"]
        annotations = row.get("annotations", [])
        calls = [_gold_call(graph, a, namespace, row.get("id")) for a in annotations]
        gold_types = list(dict.fromkeys(a["type"] for a in annotations))

        if "understanding" in tasks:
            for type_name in gold_types:
                samples.append({
                    "task": "understanding",
                    "prompt": render_schema_recall_prompt(namespace, type_name),
                    "target": onto.render_class_code(graph, type_name, namespace),
                })
        import_target = "\n".join(f"Import {t}" for t in gold_types)
        if "importing_closed" in tasks and gold_types and inventory:
            samples.append({
                "task": "importing_closed",
                "prompt": render_importing_prompt(
                    ExtractionRequest(text, namespace, "closed", inventory), graph),
                "target": import_target,
            })
        if "importing_open" in tasks and gold_types:
            samples.append({
                "task": "importing_open",
                "prompt": render_importing_prompt(ExtractionRequest(text, namespace, "open"), graph),
                "target": import_target,
            })
        if "instantiation" in tasks and gold_types:
            samples.append({
                "task": "instantiation",
                "prompt": render_instantiation_prompt(graph, namespace, gold_types, text),
                "target": f"results = [{', '.join(calls)}]",
            })
    return samples
