"""Span recorder for the traced run, attached from outside the program.

Each wrapped public function records one span: name, start, end, the span
that was open when it was called, and the run id. Counts are taken at the
same boundaries from the call's arguments and result. Spans stay in memory
until the run ends. A function is wrapped at the name its callers resolve
(``kdr.pipeline.extract``, not ``kdr.extraction.extract``, because pipeline
imported the name), so kdr's own files stay untouched.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._open: list[int] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace owner.attr with a recording wrapper; `count(tracer, args,
        kwargs, result, seconds)` adds the call's counts."""
        original = getattr(owner, attr)
        spans, open_ = self.spans, self._open

        @functools.wraps(original)
        def recorded(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, open_[-1] if open_ else -1])
            open_.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                open_.pop()
                spans[index][2] = time.perf_counter()
            if count is not None:
                count(self, args, kwargs, result, spans[index][2] - spans[index][1])
            return result

        setattr(owner, attr, recorded)

    def self_times(self) -> Counter:
        """Seconds per span name, minus the time covered by child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run_id": self.run_id, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, handle)


def _add(key: str, value=1):
    def count(tracer, args, kwargs, result, seconds):
        tracer.counts[key] += value(args, kwargs, result) if callable(value) else value
    return count


def _extract(tracer, args, kwargs, result, seconds):
    tracer.counts["extraction.requests"] += 1
    tracer.counts["extraction.objects"] += len(result)
    tracer.counts["extraction.productive"] += bool(result)


def _graph(tracer, args, kwargs, result, seconds):
    graph = result[0] if isinstance(result, tuple) else result
    tracer.counts["ontology.concepts"] = max(tracer.counts["ontology.concepts"], len(graph.concepts))


def _sandbox(tracer, args, kwargs, result, seconds):
    tracer.counts["reasoning.sandbox_runs"] += 1
    tracer.samples["reasoning.sandbox"].append(seconds)


def _cycle(tracer, args, kwargs, result, seconds):
    tracer.counts["reasoning.iterations"] += len(result.iterations)
    tracer.counts["reasoning.passed_iterations"] += sum(i.verdict == "pass" for i in result.iterations)
    tracer.counts["reasoning.cycles_passed"] += result.final_status == "passed"


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics need."""
    from kdr import alignment, evalkit, knowledge_store, ontology, pipeline, reasoning
    from kdr.llm_gateway import LlmGateway
    from kdr.textindex import InvertedIndex
    from kdr.websearch import FixtureSearchBackend

    w = tracer.wrap
    w(LlmGateway, "chat", "llm_gateway.chat")
    w(LlmGateway, "embed", "llm_gateway.embed")
    for attr in ("propose_ontology", "run_organization", "run_research"):
        w(pipeline, attr, "pipeline.orchestrate")
    for attr in ("review_gate", "read_corpus", "split_passages", "assemble_report"):
        w(pipeline, attr, f"pipeline.{attr}")
    w(pipeline, "extract", "extraction.extract", _extract)
    w(ontology, "load_ontology", "ontology.load", _graph)
    w(ontology, "graph_from_document", "ontology.from_document", _graph)
    w(ontology, "render_class_code", "ontology.render_class", _add("ontology.render_class_calls"))
    w(ontology, "save_ontology", "ontology.save")
    store = knowledge_store.KnowledgeStore
    w(store, "ingest_all", "knowledge_store.ingest",
      _add("knowledge_store.ingested", lambda a, k, r: len(r)))
    w(store, "settle", "knowledge_store.settle",
      _add("knowledge_store.settle_resolved", lambda a, k, r: r))
    w(store, "query_by_name", "knowledge_store.query_by_name",
      _add("knowledge_store.fuzzy_queries",
           lambda a, k, r: bool(k.get("fuzzy", a[2] if len(a) > 2 else False))))
    w(store, "subgraph", "knowledge_store.subgraph",
      _add("knowledge_store.subgraph_objects", lambda a, k, r: len(r)))
    w(knowledge_store, "save", "knowledge_store.save")
    w(knowledge_store, "load", "knowledge_store.load")
    w(knowledge_store, "render_declaration_code", "knowledge_store.render_declarations")
    w(InvertedIndex, "add", "textindex.add", _add("textindex.docs"))
    w(InvertedIndex, "search", "textindex.search", _add("textindex.searches"))
    w(FixtureSearchBackend, "__init__", "websearch.index")
    w(FixtureSearchBackend, "search", "websearch.search",
      _add("websearch.hits", lambda a, k, r: len(r)))
    w(reasoning, "parse_decomposition", "reasoning.parse_plan")
    w(reasoning, "ontology_search", "reasoning.ontology_search", _add("reasoning.ontology_searches"))
    w(reasoning, "instance_query", "reasoning.instance_query")
    w(reasoning, "class_closure", "reasoning.class_closure")
    w(reasoning, "assemble_script", "reasoning.assemble_script",
      _add("reasoning.script_bytes", lambda a, k, r: len(r.encode("utf-8"))))
    w(reasoning, "execute_script", "reasoning.sandbox", _sandbox)
    w(reasoning, "run_computation_cycle", "reasoning.computation_cycle", _cycle)
    w(reasoning, "run_text_cycle", "reasoning.text_cycle",
      _add("reasoning.text_rounds", lambda a, k, r: r.rounds))
    w(alignment, "embed_ontology", "alignment.embed_ontology",
      _add("alignment.embedded_concepts", lambda a, k, r: len(r)))
    w(alignment, "retrieve_candidates", "alignment.retrieve", _add("alignment.retrievals"))
    w(alignment, "classify_relations", "alignment.classify")
    w(evalkit, "build_taxonomy_graph", "evalkit.build_graph", _graph)


# Per-layer metrics: name -> (unit, better, how it is read). "self:<span>" is
# the self time of that span name; "count:<key>" a count; anything else is
# computed in layer_metrics.
GATEWAY_TAGS = ("propose", "importing", "instantiation", "plan", "topic-ner", "codegen",
                "evaluate", "summarize", "draft", "sufficiency", "merge", "revise",
                "relation-classify")

LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "cli.import_s": ("s", "lower", "child"),
    "llm_gateway.calls": ("count", "lower", "meter"),
    **{f"llm_gateway.calls.{t}": ("count", "lower", "meter") for t in GATEWAY_TAGS},
    "llm_gateway.wait_s": ("s", "lower", "meter"),
    "llm_gateway.prompt_chars": ("char", "lower", "meter"),
    "llm_gateway.response_chars": ("char", "lower", "meter"),
    "llm_gateway.embed_texts": ("count", "lower", "meter"),
    "pipeline.read_corpus_s": ("s", "lower", "self:pipeline.read_corpus"),
    "pipeline.split_passages_s": ("s", "lower", "self:pipeline.split_passages"),
    "pipeline.review_gate_s": ("s", "lower", "self:pipeline.review_gate"),
    "pipeline.assemble_report_s": ("s", "lower", "self:pipeline.assemble_report"),
    "pipeline.self_s": ("s", "lower", "self:pipeline.orchestrate"),
    "extraction.extract_s": ("s", "lower", "self:extraction.extract"),
    "extraction.requests": ("count", "lower", "count:extraction.requests"),
    "extraction.objects": ("count", "higher", "count:extraction.objects"),
    "extraction.yield": ("ratio", "higher", "ratio"),
    "ontology.load_s": ("s", "lower", "self:ontology.load"),
    "ontology.from_document_s": ("s", "lower", "self:ontology.from_document"),
    "ontology.concepts": ("count", "higher", "count:ontology.concepts"),
    "ontology.render_class_s": ("s", "lower", "self:ontology.render_class"),
    "ontology.render_class_calls": ("count", "lower", "count:ontology.render_class_calls"),
    "ontology.save_s": ("s", "lower", "self:ontology.save"),
    "knowledge_store.ingest_s": ("s", "lower", "self:knowledge_store.ingest"),
    "knowledge_store.ingested": ("count", "higher", "count:knowledge_store.ingested"),
    "knowledge_store.settle_s": ("s", "lower", "self:knowledge_store.settle"),
    "knowledge_store.settle_resolved": ("count", "higher", "count:knowledge_store.settle_resolved"),
    "knowledge_store.save_s": ("s", "lower", "self:knowledge_store.save"),
    "knowledge_store.load_s": ("s", "lower", "self:knowledge_store.load"),
    "knowledge_store.query_by_name_s": ("s", "lower", "self:knowledge_store.query_by_name"),
    "knowledge_store.fuzzy_queries": ("count", "lower", "count:knowledge_store.fuzzy_queries"),
    "knowledge_store.subgraph_s": ("s", "lower", "self:knowledge_store.subgraph"),
    "knowledge_store.subgraph_objects": ("count", "higher", "count:knowledge_store.subgraph_objects"),
    "knowledge_store.render_declarations_s": ("s", "lower", "self:knowledge_store.render_declarations"),
    "textindex.add_s": ("s", "lower", "self:textindex.add"),
    "textindex.docs": ("count", "lower", "count:textindex.docs"),
    "textindex.search_s": ("s", "lower", "self:textindex.search"),
    "textindex.searches": ("count", "lower", "count:textindex.searches"),
    "websearch.index_s": ("s", "lower", "self:websearch.index"),
    "websearch.search_s": ("s", "lower", "self:websearch.search"),
    "websearch.hits": ("count", "higher", "count:websearch.hits"),
    "reasoning.parse_plan_s": ("s", "lower", "self:reasoning.parse_plan"),
    "reasoning.ontology_search_s": ("s", "lower", "self:reasoning.ontology_search"),
    "reasoning.ontology_searches": ("count", "lower", "count:reasoning.ontology_searches"),
    "reasoning.instance_query_s": ("s", "lower", "self:reasoning.instance_query"),
    "reasoning.class_closure_s": ("s", "lower", "self:reasoning.class_closure"),
    "reasoning.assemble_script_s": ("s", "lower", "self:reasoning.assemble_script"),
    "reasoning.script_bytes": ("byte", "lower", "count:reasoning.script_bytes"),
    "reasoning.sandbox_s": ("s", "lower", "self:reasoning.sandbox"),
    "reasoning.sandbox_runs": ("count", "lower", "count:reasoning.sandbox_runs"),
    "reasoning.sandbox_p50_s": ("s", "lower", "p50"),
    "reasoning.iterations": ("count", "lower", "count:reasoning.iterations"),
    "reasoning.cycles_passed": ("count", "higher", "count:reasoning.cycles_passed"),
    "reasoning.pass_ratio": ("ratio", "higher", "ratio"),
    "reasoning.text_cycle_s": ("s", "lower", "self:reasoning.text_cycle"),
    "reasoning.text_rounds": ("count", "lower", "count:reasoning.text_rounds"),
    "alignment.embed_ontology_s": ("s", "lower", "self:alignment.embed_ontology"),
    "alignment.embedded_concepts": ("count", "higher", "count:alignment.embedded_concepts"),
    "alignment.retrieve_s": ("s", "lower", "self:alignment.retrieve"),
    "alignment.retrievals": ("count", "lower", "count:alignment.retrievals"),
    "alignment.classify_s": ("s", "lower", "self:alignment.classify"),
    "evalkit.build_graph_s": ("s", "lower", "self:evalkit.build_graph"),
    "trace.spans": ("count", "lower", "spans"),
    "trace.overhead_s": ("s", "lower", "parent"),
}


def layer_metrics(tracer: Tracer, meter, import_s: float) -> dict[str, float]:
    """Every per-layer metric for one traced repetition (0 where the layer idled)."""
    self_s = tracer.self_times()
    counts = tracer.counts
    out: dict[str, float] = {}
    for name, (_, _, how) in LAYER_METRICS.items():
        if how.startswith("self:"):
            out[name] = self_s[how[5:]]
        elif how.startswith("count:"):
            out[name] = counts[how[6:]]
    out["cli.import_s"] = import_s
    out["llm_gateway.calls"] = sum(meter.calls.values())
    for tag in GATEWAY_TAGS:
        out[f"llm_gateway.calls.{tag}"] = meter.calls[tag]
    out["llm_gateway.wait_s"] = meter.wait_s
    out["llm_gateway.prompt_chars"] = meter.prompt_chars
    out["llm_gateway.response_chars"] = meter.response_chars
    out["llm_gateway.embed_texts"] = meter.embed_texts
    requests = counts["extraction.requests"]
    out["extraction.yield"] = counts["extraction.productive"] / requests if requests else 0.0
    iterations = counts["reasoning.iterations"]
    passed = counts["reasoning.passed_iterations"]
    out["reasoning.pass_ratio"] = passed / iterations if iterations else 0.0
    sandbox = tracer.samples["reasoning.sandbox"]
    out["reasoning.sandbox_p50_s"] = statistics.median(sandbox) if sandbox else 0.0
    out["trace.spans"] = len(tracer.spans)
    return out
