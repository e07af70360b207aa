"""Evaluation harnesses: taxonomy placement, extraction F1, QA, report judging.

Each harness is self-contained: it loads a dataset in a documented format,
drives the relevant engine modules (offline backends included), and returns
a result dataclass with both the aggregate metric and the per-item detail.
"""

from __future__ import annotations

import functools
import logging
import re
import tempfile
from collections import Counter
from dataclasses import dataclass, field

from . import knowledge_store as ks
from . import ontology as onto
from .errors import (
    GoldParentMissing,
    SchemaViolation,
    ShapeMismatch,
    SubgraphLoadFailure,
)
from .files import check_keys
from .knowledge_store import KnowledgeStore
from .reasoning import Limits, ordered_map, run_computation_cycle

log = logging.getLogger(__name__)

# -- taxonomy placement -------------------------------------------------------

TAXONOMY_NAMESPACE = "tax"


@dataclass
class TaxonomyEvalResult:
    accuracy: float
    mean_wu_palmer: float
    per_query: list[tuple[str, str, str, float]] = field(default_factory=list)


def taxonomy_concept_name(term: str) -> str:
    """Benchmark terms ("sea bass") to valid concept names ("SeaBass")."""
    parts = re.split(r"[^0-9A-Za-z]+", term)
    name = "".join(p[:1].upper() + p[1:] for p in parts if p)
    if not name:
        raise SchemaViolation(f"term {term!r} has no name-forming characters")
    return name


def load_taxonomy_dataset(document: dict) -> dict:
    """Validate {"concepts": [{name, definition}], "edges": [[child, parent]],
    "test_leaves": [...]} and return it unchanged."""
    keys = ("concepts", "edges", "test_leaves")
    check_keys(document, "taxonomy dataset", required=keys, allowed=keys)
    for key in keys:
        if not isinstance(document[key], list):
            raise SchemaViolation(f"taxonomy dataset needs a {key!r} list")
    for i, row in enumerate(document["concepts"]):
        check_keys(row, f"taxonomy concept {i}", required=("name",))
    for edge in document["edges"]:
        if not (isinstance(edge, list) and len(edge) == 2):
            raise SchemaViolation("each edge must be a [child, parent] pair")
    return document


def build_taxonomy_graph(dataset: dict) -> tuple[onto.OntologyGraph, dict[str, str]]:
    """Training graph without the held-out leaves, plus their gold parents."""
    dataset = load_taxonomy_dataset(dataset)
    held_out = set(dataset["test_leaves"])
    if not held_out:
        raise SchemaViolation("taxonomy dataset has no test leaves")
    definitions = {row["name"]: row.get("definition", "") for row in dataset["concepts"]}
    parent_of = {child: parent for child, parent in dataset["edges"]}
    concept_name = functools.cache(taxonomy_concept_name)  # a parent term is named once per child

    gold: dict[str, str] = {}
    for leaf in dataset["test_leaves"]:
        parent = parent_of.get(leaf)
        if parent is None or parent in held_out:
            raise GoldParentMissing(f"held-out leaf {leaf!r} has no usable gold parent")
        gold[leaf] = f"{TAXONOMY_NAMESPACE}.{concept_name(parent)}"

    def concept(term: str) -> onto.Concept:
        parent = parent_of.get(term, onto.ENTITY_ROOT)
        if parent not in onto.ROOTS:  # qualified, so a parent term "entity" is not the root
            parent = f"{TAXONOMY_NAMESPACE}.{concept_name(parent)}"
        return onto.Concept(concept_name(term), TAXONOMY_NAMESPACE, "entity", parent,
                            definitions.get(term, ""))

    graph = onto.empty_graph()
    onto.place_concepts(graph, [concept(t) for t in definitions if t not in held_out])
    return graph, gold


def eval_taxonomy(
    dataset: dict,
    aligner,
    graph_builder=build_taxonomy_graph,
    limits: Limits = Limits(),
) -> TaxonomyEvalResult:
    """Insert each held-out leaf with the aligner; score against gold parents.

    The aligner is any callable (Concept, OntologyGraph) -> qualified parent
    name; the leaf is presented with its dataset definition as description.
    Up to `limits.workers` leaves are placed at once, all against the same
    training graph, so a custom aligner must be safe to call concurrently
    when limits.workers > 1. Scores are taken in leaf order; the first error
    in leaf order propagates.
    """
    graph, gold = graph_builder(dataset)
    definitions = {row["name"]: row.get("definition", "") for row in dataset["concepts"]}
    leaves = dataset["test_leaves"]
    queries = [onto.Concept(taxonomy_concept_name(leaf), TAXONOMY_NAMESPACE,
                            "entity", "Entity", definitions.get(leaf, "")) for leaf in leaves]
    predictions = ordered_map(lambda query: aligner(query, graph), queries, limits.workers)
    per_query = []
    correct = 0
    wup_total = 0.0
    for leaf, predicted in zip(leaves, predictions):
        expected = gold[leaf]
        wup = onto.wu_palmer(graph, predicted, expected)
        if predicted == expected:
            correct += 1
        wup_total += wup
        per_query.append((leaf, predicted, expected, wup))
    n = len(per_query)
    return TaxonomyEvalResult(accuracy=correct / n, mean_wu_palmer=wup_total / n,
                              per_query=per_query)


# -- information extraction F1 ----------------------------------------------------

_TASK_ARITY = {"ner": 2, "re": 3, "ed": 2, "eae": 3}
IE_TASKS = tuple(sorted(_TASK_ARITY))


@dataclass
class F1Result:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int


def _normalize_text(value: object) -> str:
    return " ".join(str(value).split()).casefold()


def _normalized_tuples(rows: list, task: str, side: str) -> Counter:
    arity = _TASK_ARITY.get(task)
    if arity is None:
        raise ShapeMismatch(f"unknown task {task!r}; expected one of {sorted(_TASK_ARITY)}")
    counts: Counter = Counter()
    for row in rows:
        items = tuple(row)
        if len(items) != arity:
            raise ShapeMismatch(
                f"{side} tuple {row!r} has {len(items)} fields; task {task!r} takes {arity}")
        counts[tuple(_normalize_text(x) for x in items)] += 1
    return counts


def eval_ie_f1(pred: list, gold: list, task: str) -> F1Result:
    """Micro P/R/F1 over multiset exact matches after normalization."""
    pred_counts = _normalized_tuples(pred, task, "predicted")
    gold_counts = _normalized_tuples(gold, task, "gold")
    tp = sum(min(count, gold_counts[key]) for key, count in pred_counts.items())
    fp = sum(pred_counts.values()) - tp
    fn = sum(gold_counts.values()) - tp
    return _f1_result(tp, fp, fn)


def _f1_result(tp: int, fp: int, fn: int) -> F1Result:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return F1Result(precision, recall, f1, tp, fp, fn)


def annotations_to_tuples(record: dict, task: str) -> list[tuple]:
    """Typed tuples from one {"id", "text", "annotations": [{type, slots}]} record."""
    tuples = []
    for ann in record.get("annotations", []):
        kind = check_keys(ann, f"annotation of IE record {record.get('id')!r}").get("type", "")
        slots = ann.get("slots", {})
        try:
            if task == "ner":
                tuples.append((kind, slots["name"]))
            elif task == "ed":
                tuples.append((kind, slots["trigger"]))
            elif task == "re":
                tuples.append((slots["head"], kind, slots["tail"]))
            elif task == "eae":
                for role, argument in slots.items():
                    if role == "trigger":
                        continue
                    tuples.append((kind, role, argument))
            else:
                raise ShapeMismatch(f"unknown task {task!r}")
        except KeyError as exc:
            raise ShapeMismatch(
                f"annotation {ann!r} lacks the {exc.args[0]!r} slot task {task!r} needs"
            ) from exc
    return tuples


def eval_ie_files(pred_records: list[dict], gold_records: list[dict], task: str) -> F1Result:
    """Micro F1 across a dataset: records paired by id, counts summed."""
    def by_id(records: list[dict], side: str) -> dict:
        return {check_keys(r, f"{side} IE record {i}").get("id"): r for i, r in enumerate(records)}
    pred_by_id, gold_by_id = by_id(pred_records, "predicted"), by_id(gold_records, "gold")
    tp = fp = fn = 0
    for rid in sorted(set(pred_by_id) | set(gold_by_id), key=str):
        pred = annotations_to_tuples(pred_by_id.get(rid, {}), task)
        gold = annotations_to_tuples(gold_by_id.get(rid, {}), task)
        one = eval_ie_f1(pred, gold, task)
        tp, fp, fn = tp + one.tp, fp + one.fp, fn + one.fn
    return _f1_result(tp, fp, fn)


# -- question answering over prepared subgraphs ----------------------------------------

KBQA_NAMESPACE = "kbqa"
ANSWER_SENTINEL = "ANSWERS:"


@dataclass
class KbqaEvalResult:
    hits_at_1: float
    per_question: list[tuple[str, list[str], list[str], bool]] = field(default_factory=list)


def kbqa_graph() -> onto.OntologyGraph:
    """One-concept schema: a named thing carrying its outgoing facts."""
    graph = onto.empty_graph()
    onto.insert_concept(graph, onto.Concept(
        "Thing", KBQA_NAMESPACE, "entity", "Entity",
        "A subject from a question subgraph.",
        attributes=[onto.AttributeSpec("facts", "List[text]",
                                       "outgoing relations as 'predicate: object' lines")]))
    return graph


def store_from_triples(triples: list, graph: onto.OntologyGraph) -> KnowledgeStore:
    """Transient store: one Thing per distinct subject, facts as text lines."""
    store = KnowledgeStore(graph)
    for i, triple in enumerate(triples):
        if not (isinstance(triple, (list, tuple)) and len(triple) == 3):
            raise SubgraphLoadFailure(f"triple {triple!r} is not an [s, p, o] list")
        s, p, o = (str(x) for x in triple)
        store.ingest(ks.make_object(
            graph, f"{KBQA_NAMESPACE}.Thing", s,
            {"facts": [f"{p}: {o}"]}, [("triples", float(i))]))
    return store


def parse_answer_lines(stdout: str) -> list[str]:
    """Lines after the ANSWERS: sentinel, stripped, blanks dropped."""
    lines = stdout.splitlines()
    for i, line in enumerate(lines):
        if line.strip() == ANSWER_SENTINEL:
            return [x.strip() for x in lines[i + 1:] if x.strip()]
    return []


def eval_kbqa(
    records: list[dict],
    gateway,
    limits: Limits = Limits(),
    workdir: str | None = None,
) -> KbqaEvalResult:
    """Hits@1 over {id, question, topic_entity, triples, answers} records.

    Each question runs the computation cycle against a transient store built
    from its triples, pinned to the ground-truth topic entity's neighborhood;
    a hit is any normalized gold answer among the printed answer lines.
    """
    if not records:
        raise SchemaViolation("QA dataset is empty")
    for i, record in enumerate(records):  # every record, before any question runs
        check_keys(record, f"QA record {i}",
                   required=("id", "question", "topic_entity", "triples", "answers"))
        for key, kind, name in (("question", str, "a string"),
                                ("topic_entity", str, "a string"), ("answers", list, "a list")):
            if not isinstance(record[key], kind):
                raise SchemaViolation(f"QA record {i}: {key!r} must be {name}")
        if {"/", "\0"} & set(str(record["id"])):  # the id names the question's work directory
            raise SchemaViolation(f"QA record {i}: 'id' must not contain '/' or NUL, "
                                  f"got {record['id']!r}")
    graph = kbqa_graph()
    base = workdir or tempfile.mkdtemp(prefix="kdr-kbqa-")
    per_question = []
    for record in records:
        qid = str(record["id"])
        gold = [str(a) for a in record["answers"]]
        predicted: list[str] = []
        try:
            store = store_from_triples(record["triples"], graph)
            seeds = store.query_by_name(record["topic_entity"])
            if not seeds:
                raise SubgraphLoadFailure(
                    f"topic entity {record['topic_entity']!r} is not in the subgraph")
            objects = store.subgraph([o.id for o in seeds], hops=limits.hops)
            trace = run_computation_cycle(
                record["question"], graph, store, gateway, limits,
                workdir=f"{base}/q{qid}",
                objects_override=objects,
                concepts_override=[f"{KBQA_NAMESPACE}.Thing"],
            )
            if trace.final_status == "passed":
                predicted = parse_answer_lines(trace.iterations[-1].execution.stdout)
        except SubgraphLoadFailure as exc:
            log.warning("question %s counted as a miss: %s", qid, exc)
        normalized = {_normalize_text(p) for p in predicted}
        hit = any(_normalize_text(g) in normalized for g in gold)
        per_question.append((qid, predicted, gold, hit))
    hits = sum(1 for *_rest, hit in per_question if hit)
    return KbqaEvalResult(hits_at_1=hits / len(per_question), per_question=per_question)


# -- report judging --------------------------------------------------------------------

ASPECTS = ("completeness", "thoroughness", "factuality", "coherence", "insight")

DEFAULT_RUBRIC = """\
Score the research report below on a 1-10 scale for each aspect. Reply with
five lines, one per aspect, formatted exactly as `aspect: score`.

completeness: does the report address every part of its topic?
thoroughness: does it dig into specifics rather than generalities?
factuality: are its claims supported by the cited material?
coherence: does it read as one well-organized document?
insight: does it surface non-obvious connections or implications?

Report:
{report}
"""


@dataclass
class ReportScore:
    completeness: float
    thoroughness: float
    factuality: float
    coherence: float
    insight: float
    dropped: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {aspect: getattr(self, aspect) for aspect in ASPECTS}


_SCORE_LINE = re.compile(
    r"^\s*[-*]?\s*(completeness|thoroughness|factuality|coherence|insight)"
    r"\s*[:=]\s*(-?\d+(?:\.\d+)?)\s*$",
    re.IGNORECASE | re.MULTILINE,
)


def judge_report(report: str, gateways: list) -> ReportScore:
    """Average the five aspect scores over one or more judge backends.

    A judge whose response lacks a parseable line for an aspect contributes
    nothing to that aspect's average; the omission is recorded in `dropped`.
    """
    if not gateways:
        raise SchemaViolation("judging needs at least one backend")
    collected: dict[str, list[float]] = {aspect: [] for aspect in ASPECTS}
    dropped: list[str] = []
    for j, gateway in enumerate(gateways, start=1):
        response = gateway.chat(DEFAULT_RUBRIC.format(report=report), tag="judge")
        seen = {}
        for m in _SCORE_LINE.finditer(response):
            seen.setdefault(m.group(1).casefold(), float(m.group(2)))
        for aspect in ASPECTS:
            if aspect in seen:
                collected[aspect].append(seen[aspect])
            else:
                dropped.append(f"judge {j}: {aspect}")
    averaged = {}
    for aspect in ASPECTS:
        values = collected[aspect]
        if not values:
            dropped.append(f"no judge scored {aspect}; reported as 0")
        averaged[aspect] = sum(values) / len(values) if values else 0.0
    return ReportScore(dropped=dropped, **averaged)
