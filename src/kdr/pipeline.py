"""End-to-end orchestration.

Organization: propose a concept schema for a topic, hold it at a review gate,
then sweep a document corpus through extraction into the knowledge store.
Research: plan a report, run the per-section computation and text cycles,
merge and revise, and assemble the final markdown with copied artifacts.
"""

from __future__ import annotations

import hashlib
import functools
import json
import logging
import os
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import knowledge_store as ks
from . import ontology as onto
from . import reasoning as rs
from . import templates
from .errors import (
    CorruptRecord,
    DanglingArtifact,
    IoFailure,
    KdrError,
    Outage,
    SchemaViolation,
    SearchBackendUnavailable,
    UnparseableProposal,
)
from .extraction import ExtractionReport, ExtractionRequest, extract, strip_code_fence
from .files import check_keys, make_dir, parse_json, read_json, read_text, write_file, write_json
from .knowledge_store import KnowledgeStore
from .llm_gateway import LlmGateway
from .reasoning import ordered_map

log = logging.getLogger(__name__)

# -- tasks and proposals -------------------------------------------------------

CONFIG_KEYS = {"llm", "embed", "search", "limits"}
ENV_CONFIG = "KDR_CONFIG"


@dataclass
class ResearchTask:
    topic: str
    mode: str  # "organize" | "research"
    corpus_path: str | None = None
    kb_path: str | None = None
    output_path: str | None = None

    def __post_init__(self) -> None:
        if not self.topic.strip():
            raise SchemaViolation("task topic is empty")
        if self.mode not in ("organize", "research"):
            raise SchemaViolation(f"unknown task mode {self.mode!r}")
        if self.mode == "organize" and not self.corpus_path:
            raise SchemaViolation("organize tasks need a corpus_path")
        if self.mode == "research" and not self.kb_path:
            raise SchemaViolation("research tasks need a kb_path")


@dataclass
class ProposedOntology:
    """A concept schema and its review status. An approved proposal that
    review_gate took from the file propose_ontology wrote shares `document`
    with the proposal propose_ontology returned, so neither may be changed;
    its `graph` is its own."""

    document: dict
    status: str = "proposed"  # "proposed" | "approved" | "edited"

    @functools.cached_property
    def graph(self) -> onto.OntologyGraph:
        """The document's validated graph, parsed on first use only."""
        return onto.graph_from_document(self.document)


# The last review file propose_ontology wrote, until review_gate reads a file:
# the sha256 of its text, its document, and a copy of its checked graph. It is
# used only for a file with exactly that text, which would parse to that graph.
_written: tuple[str, dict, onto.OntologyGraph] | None = None
_written_lock = threading.Lock()


def _swap_written(entry: tuple | None) -> tuple | None:
    global _written
    with _written_lock:
        previous, _written = _written, entry
    return previous


def propose_ontology(
    topic: str,
    sample: str,
    gateway: LlmGateway,
    review_path: str | None = None,
) -> ProposedOntology:
    """Ask the model for a concept schema; validate; write the review file.

    The sha256 of the review file's text, the document and a copy of the
    checked graph are kept for the next review_gate, which takes them instead
    of building the graph again if the file still holds exactly that text.
    A call that fails leaves nothing kept."""
    _swap_written(None)
    if not topic.strip():
        raise SchemaViolation("topic is empty")
    response = gateway.chat(
        templates.PROPOSE_ONTOLOGY_PROMPT.format(topic=topic, sample=sample),
        tag="propose",
    )
    raw = strip_code_fence(response)
    try:
        proposal = ProposedOntology(json.loads(raw))
        proposal.graph  # schema check
    except (json.JSONDecodeError, RecursionError, KdrError) as exc:  # RecursionError: deep nesting
        if review_path:
            write_file(f"{review_path}.raw", response)
        raise UnparseableProposal(f"proposal rejected: {exc}") from exc
    if review_path:
        digest = hashlib.sha256()
        write_json(review_path, proposal.document, digest)
        _swap_written((digest.hexdigest(), proposal.document, proposal.graph.copy()))
    return proposal


def review_gate(
    proposal_path: str,
    approve: bool = False,
    edited_path: str | None = None,
) -> ProposedOntology:
    """Approval or a revalidated edited file; anything else stays gated.

    A file that holds exactly the text the last propose_ontology wrote (its
    sha256 matches) is not parsed: the proposal takes that call's document
    and its own copy of the graph. Any other text is parsed and checked.
    Each call uses up what propose_ontology kept, so the next one parses."""
    path = edited_path or proposal_path
    text = read_text(path)
    written = _swap_written(None)
    if written is not None and hashlib.sha256(text.encode()).hexdigest() == written[0]:
        _, document, graph = written
    else:
        document, graph = parse_json(text, path), None
    if not (edited_path or approve):
        raise ValueError("proposal not approved; pass approve=True or an edited file")
    proposal = ProposedOntology(document, status="edited" if edited_path else "approved")
    if graph is None:
        proposal.graph  # raises SchemaViolation on a bad document
    else:
        vars(proposal)["graph"] = graph  # where cached_property keeps its value
    return proposal


# -- corpus ingestion ------------------------------------------------------------


@functools.cache
def _html_text_parser() -> type:
    """The parser class html_to_text uses, made on first use: html.parser
    loads only when a corpus holds an HTML file."""
    import html.parser

    class HtmlText(html.parser.HTMLParser):
        _SKIP = {"script", "style"}
        _BREAK = {"p", "br", "div", "li", "tr", "h1", "h2", "h3", "h4", "h5", "h6"}

        def __init__(self) -> None:
            super().__init__()
            self.chunks: list[str] = []
            self._skip_depth = 0

        def handle_starttag(self, tag, attrs):
            if tag in self._SKIP:
                self._skip_depth += 1
            elif tag in self._BREAK:
                self.chunks.append("\n\n")

        def handle_endtag(self, tag):
            if tag in self._SKIP:
                self._skip_depth = max(0, self._skip_depth - 1)

        def handle_data(self, data):
            if not self._skip_depth:
                self.chunks.append(data)

    return HtmlText


def html_to_text(raw: str) -> str:
    parser = _html_text_parser()()
    parser.feed(raw)
    text = "".join(parser.chunks)
    return re.sub(r"\n\s*\n", "\n\n", text).strip()


_READERS = {
    ".txt": lambda raw: raw,
    ".md": lambda raw: raw,
    ".html": html_to_text,
    ".htm": html_to_text,
}


def read_corpus(corpus_dir: str) -> tuple[list[tuple[str, str]], list[str]]:
    """(doc id, plain text) pairs in name order, plus skipped file names."""
    try:
        paths = sorted(p for p in Path(corpus_dir).iterdir() if p.is_file())
    except OSError as exc:  # absent, not a directory, or unreadable
        raise IoFailure(f"cannot read corpus directory {corpus_dir!r}: {exc.strerror}") from exc
    docs: list[tuple[str, str]] = []
    skipped: list[str] = []
    for path in paths:
        reader = _READERS.get(path.suffix.lower())
        if reader is None:
            skipped.append(path.name)
            continue
        docs.append((path.name, reader(read_text(path))))
    return docs, skipped


def split_passages(text: str, max_words: int = 400) -> list[str]:
    """Paragraph-aligned chunks of at most max_words words."""
    paragraphs = [p.strip() for p in re.split(r"\n\s*\n", text) if p.strip()]
    units: list[str] = []
    for paragraph in paragraphs:
        words = paragraph.split()
        if len(words) <= max_words:
            units.append(paragraph)
        else:
            units.extend(" ".join(words[i:i + max_words])
                         for i in range(0, len(words), max_words))
    passages: list[str] = []
    bucket: list[str] = []
    count = 0
    for unit in units:
        n = len(unit.split())
        if bucket and count + n > max_words:
            passages.append("\n\n".join(bucket))
            bucket, count = [], 0
        bucket.append(unit)
        count += n
    if bucket:
        passages.append("\n\n".join(bucket))
    return passages


# -- organization phase --------------------------------------------------------------


def _merge_proposal_into_graph(
    graph: onto.OntologyGraph,
    fresh: onto.OntologyGraph,
    gateway: LlmGateway | None,
) -> tuple[onto.OntologyGraph, list[str]]:
    """A copy of the graph with the proposal graph's concepts and equivalences
    added; root-parented ones go through alignment, and keep the equivalence
    an `equivalent` verdict gives, when the graph already holds same-kind
    concepts and a backend is available. A concept that cannot be added is
    noted and skipped; an Outage propagates."""
    from . import alignment  # imports numpy, so it loads only when a proposal needs aligning

    notes: list[str] = []
    placer = alignment.make_llm_placer(gateway) if gateway else None
    ordered = sorted(fresh.concepts, key=lambda q: len(fresh.root_path(q)))
    kinds = {c.kind for c in graph.concepts.values()}  # kinds that already have a concept
    graph = graph.copy()
    for qualified in ordered:
        concept = fresh.concepts[qualified]
        if qualified in graph.concepts:
            notes.append(f"{qualified} already present; kept existing definition")
            continue
        parent, equivalent_to = concept.parent, None
        try:
            if concept.parent in onto.ROOTS and concept.kind in kinds and placer is not None:
                parent, equivalent_to, _ = placer(concept, graph)
            onto.attach(graph, concept, parent, equivalent_to)
        except Outage:
            raise
        except KdrError as exc:
            notes.append(f"{qualified} skipped: {exc}")
            continue
        kinds.add(concept.kind)
        if parent != concept.parent:
            notes.append(f"{qualified} aligned under {parent}")
        if equivalent_to is not None:
            notes.append(f"{qualified} aligned as equivalent to {equivalent_to}")
    for a, others in fresh.equivalences.items():
        for b in sorted(others):
            if a < b and a in graph.concepts and b in graph.concepts:
                try:
                    graph.add_equivalence(a, b)
                except KdrError as exc:
                    notes.append(f"{a} ~ {b} skipped: {exc}")
    return graph, notes


def run_organization(
    task: ResearchTask,
    proposal: ProposedOntology,
    gateway: LlmGateway,
    base_graph: onto.OntologyGraph | None = None,
    store: KnowledgeStore | None = None,
    run_dir: str | None = None,
    limits: rs.Limits = rs.Limits(),
) -> tuple[onto.OntologyGraph, KnowledgeStore, dict]:
    """Sweep the corpus through extraction into a fresh or existing store.

    Per-passage failures and parse issues land in the manifest's error
    ledger; the run keeps going. An Outage stops it before anything is
    saved, so an existing KB stays as it was. The store and its ontology are
    saved next to task.kb_path. Up to limits.workers extraction jobs (one per
    passage and namespace) overlap; results are ingested in corpus order, so
    the store does not depend on it.
    """
    if proposal.status not in ("approved", "edited"):
        raise ValueError(f"ontology proposal is {proposal.status}; review it first")
    if task.kb_path:  # before any model call, so an unwritable location fails fast
        make_dir(Path(task.kb_path).parent, "KB directory")
    if run_dir:
        make_dir(run_dir, "run directory")
    if base_graph is None or not base_graph.concepts:
        graph = proposal.graph
        notes: list[str] = []
    else:
        graph, notes = _merge_proposal_into_graph(base_graph, proposal.graph, gateway)

    if store is None:
        store = KnowledgeStore(graph)
    else:
        store.graph = graph
    docs, skipped = read_corpus(task.corpus_path)
    ledger = [{"document": name, "error": "unsupported format, skipped"}
              for name in skipped]
    namespaces = sorted(proposal.document.get("namespaces", {}).keys())
    inventory = graph.import_inventories()

    passage_count = 0
    timestamp = 0.0
    jobs = []  # (document, passage index, namespace, request, timestamp)
    for doc_name, text in docs:
        for pi, passage in enumerate(split_passages(text)):
            passage_count += 1
            timestamp += 1.0
            for ns in namespaces:
                if ns in inventory:
                    jobs.append((doc_name, pi, ns, ExtractionRequest(
                        passage, ns, mode="closed", allowed_types=inventory[ns],
                        source_id=f"{doc_name}#p{pi}"), timestamp))

    def run_job(job):
        _, _, _, request, stamp = job
        report = ExtractionReport()
        try:
            return extract(request, graph, gateway, timestamp=stamp, report=report), report, None
        except Outage:
            raise
        except KdrError as exc:
            return [], report, exc

    extracted = 0
    for (doc_name, pi, ns, _, _), (objects, report, error) in zip(
            jobs, ordered_map(run_job, jobs, limits.workers)):
        reason = str(error) if error is not None else report.reason  # set when it returned []
        messages = ([reason] if reason else []) + [f"{i.kind}: {i.message}" for i in report.issues]
        ledger += [{"document": doc_name, "passage": pi, "namespace": ns, "error": message}
                   for message in messages]
        extracted += len(objects)
        store.ingest_all(objects)
    resolved = store.settle()

    manifest = {
        "topic": task.topic,
        "documents": len(docs),
        "passages": passage_count,
        "extracted_objects": extracted,
        "stored_objects": len(store.objects),
        "resolved_references": resolved,
        "concepts": len(graph.concepts),
        "namespaces": namespaces,
        "alignment_notes": notes,
        "errors": ledger,
    }
    if task.kb_path:
        ks.save(store, task.kb_path)
        onto.save_ontology(graph, f"{task.kb_path}.ontology.json")
    if run_dir:
        write_json(Path(run_dir) / "manifest.json", manifest)
    return graph, store, manifest


# -- research phase --------------------------------------------------------------------


@dataclass
class Section:
    title: str
    body: str
    artifacts: list[str] = field(default_factory=list)


@dataclass
class ReportDocument:
    title: str
    sections: list[Section] = field(default_factory=list)
    sources: list[tuple[str, str]] = field(default_factory=list)
    generated_at: str = ""


def _section_hash(plan: rs.CyclePlan) -> str:
    payload = json.dumps(
        [plan.section_title] + [[r.kind, r.query] for r in plan.requests])
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()


def _load_section_cache(path: Path, digest: str) -> dict | None:
    try:
        cached = read_json(path)
    except (IoFailure, CorruptRecord):  # absent, unreadable or malformed: run the section
        return None
    return cached if isinstance(cached, dict) and cached.get("hash") == digest else None


def run_research(
    task: ResearchTask,
    graph: onto.OntologyGraph,
    store: KnowledgeStore,
    gateway: LlmGateway,
    search_backend=None,
    run_dir: str | None = None,
    generated_at: str | None = None,
    limits: rs.Limits = rs.Limits(),
) -> ReportDocument:
    """Plan, run per-section cycles, merge, revise, and assemble the report.

    Only a plan parse failure or an Outage aborts the run; a failed
    computation cycle downgrades its section to the text-cycle content plus
    an inline caveat.
    Finished sections are cached in the run directory keyed by plan hash.
    At most `limits.workers` chat calls are in flight, and at most
    `limits.workers` analysis cycles run, at any time. The plan call and the
    build of the lookups every analysis request reads (`rs.build_lookups`)
    go through `ordered_map`: at more than one worker they run side by side,
    and at one worker the lookups are built right after the plan call.
    Three phases follow the plan. The requests of every section the cache
    does not serve run side by side, up to twice `limits.workers` at a time
    (at one worker, one after another in plan order), and a web request
    summarizes one round's hits side by side.
    Then up to `limits.workers` sections at a time are merged, and then
    revised. When an analysis request is left to run, the sandbox server
    starts before the requests, so its interpreter boots while their first
    model calls are out.
    Results are folded in plan and request order, so the report does not
    depend on `limits.workers`. An error that a request does not turn into a
    caveat propagates before any merge, and the run then writes no section
    result.
    """
    # the sandbox launcher's import, paid before the plan call: paid where the
    # sandbox starts, it would sit between the plan reply and the first request
    import subprocess  # noqa: F401

    run = Path(run_dir) if run_dir else Path("runs") / time.strftime("%Y%m%d-%H%M%S")
    make_dir(run, "run directory")  # before the plan call, so a bad location costs none
    gateway = gateway.limited(limits.workers)
    analysis_slots = threading.BoundedSemaphore(limits.workers)

    plan_prompt = templates.PLAN_PROMPT.format(title=task.topic, request=task.topic)
    plan_text, _ = ordered_map(lambda step: step(), [
        lambda: gateway.chat(plan_prompt, tag="plan"),
        lambda: rs.build_lookups(graph, store)], limits.workers)
    write_file(run / "plan.txt", plan_text)
    plans = rs.parse_decomposition(plan_text)
    sections_dir = run / "sections"
    cached = [_load_section_cache(sections_dir / str(n) / "result.json", _section_hash(plan))
              for n, plan in enumerate(plans, start=1)]

    def run_request(job: tuple[int, int, rs.CycleRequest]) -> dict[str, list]:
        """One request's contribution, by kind: computed, drafted, caveats,
        artifacts and sources."""
        n, data_index, request = job
        if request.kind == "data_analysis":
            # analysis request i > 0 of a section gets its own suffix, so artifacts do not collide
            suffix = f"_{data_index}" if data_index else ""
            with analysis_slots:
                trace = rs.run_computation_cycle(
                    request.query, graph, store, gateway, limits,
                    workdir=str(sections_dir / str(n) / f"work{suffix}"),
                    trace_path=str(sections_dir / str(n) / f"trace{suffix}.json"))
            if trace.final_status == "passed":
                stdout = trace.iterations[-1].execution.stdout.strip()
                return {"computed": [f"Computed findings for '{request.query}':\n{stdout}"],
                        "artifacts": trace.artifacts}
            reason = trace.reason or "no passing iteration"
            return {"caveats": [
                f"*The analysis request '{request.query}' did not complete ({reason}); "
                f"this section relies on background material only.*"]}
        if search_backend is None:
            return {"caveats": [f"*No search backend was configured for '{request.query}'.*"]}
        try:
            text_result = rs.run_text_cycle(request.query, search_backend, gateway,
                                            limits.max_rounds, limits.search_hits, limits.workers)
        except SearchBackendUnavailable as exc:
            return {"caveats": [f"*Search failed for '{request.query}': {exc}.*"]}
        if text_result.text.strip():
            return {"drafted": [text_result.text.strip()], "sources": text_result.sources}
        caveats = [f"*No background material found for '{request.query}' "
                   f"({text_result.note}).*"] if text_result.note else []
        return {"caveats": caveats, "sources": text_result.sources}

    jobs = [(n, sum(r.kind == "data_analysis" for r in plan.requests[:i]), request)
            for n, plan in enumerate(plans, start=1) if cached[n - 1] is None
            for i, request in enumerate(plan.requests)]
    if any(request.kind == "data_analysis" for _, _, request in jobs):
        rs.start_sandbox()
    # twice the call slots, so a request's next call is ready when a slot frees
    request_threads = 2 * limits.workers if limits.workers > 1 else 1
    outcomes = list(zip(jobs, ordered_map(run_request, jobs, request_threads)))

    def merge_section(n: int) -> tuple[Section, list]:
        plan, hit = plans[n - 1], cached[n - 1]
        if hit is not None:
            return Section(hit["title"], hit["body"], hit["artifacts"]), hit["sources"]
        parts = {key: [value for (m, _, _), outcome in outcomes if m == n
                       for value in outcome.get(key, [])]
                 for key in ("computed", "drafted", "caveats", "artifacts", "sources")}
        computed, caveats = parts["computed"], parts["caveats"]
        drafted = "\n\n".join(parts["drafted"])
        if computed or drafted:
            body = rs.merge_and_revise(plan.section_title, computed, drafted, gateway)
            if not body.strip():
                body = "\n\n".join(computed + ([drafted] if drafted else []))
        else:
            body = ""
        if caveats:
            body = (body + "\n\n" if body else "") + "\n\n".join(caveats)
        write_json(sections_dir / str(n) / "result.json", {
            "hash": _section_hash(plan),
            "title": plan.section_title,
            "body": body,
            "artifacts": parts["artifacts"],
            "sources": parts["sources"],
        })
        return Section(plan.section_title, body, parts["artifacts"]), parts["sources"]

    sections: list[Section] = []
    all_sources: list[tuple[str, str]] = []
    seen_urls: set[str] = set()
    for section, section_sources in ordered_map(
            merge_section, list(range(1, len(plans) + 1)), limits.workers):
        sections.append(section)
        for title, url in section_sources:
            if url not in seen_urls:
                seen_urls.add(url)
                all_sources.append((title, url))

    revised = rs.revise_report([s.body for s in sections], gateway, limits.workers)
    for section, new_body in zip(sections, revised):
        if new_body.strip():
            section.body = new_body

    stamp = generated_at or time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    doc = ReportDocument(title=task.topic, sections=sections,
                         sources=all_sources, generated_at=stamp)
    report_path = assemble_report(doc, str(run))
    write_json(run / "manifest.json", {
        "topic": task.topic,
        "sections": [s.title for s in sections],
        "artifact_count": sum(len(s.artifacts) for s in sections),
        "source_count": len(all_sources),
        "report": str(report_path),
        "generated_at": stamp,
    })
    return doc


# -- report assembly ---------------------------------------------------------------------


def assemble_report(doc: ReportDocument, out_dir: str) -> str:
    """Write report.md and copy every referenced artifact under artifacts/."""
    import shutil  # loaded by the one step that copies files, not by `import kdr.cli`

    if not doc.sections:
        raise ValueError("report has no sections")
    out = Path(out_dir)
    artifacts_dir = out / "artifacts"
    lines: list[str] = [f"# {doc.title}", ""]
    if doc.generated_at:
        lines += [f"_Generated: {doc.generated_at}_", ""]
    used_names: set[str] = set()
    try:
        for n, section in enumerate(doc.sections, start=1):
            lines += [f"## {section.title}", ""]
            if section.body.strip():
                lines += [section.body.strip(), ""]
            for source_path in section.artifacts:
                src = Path(source_path)
                if not src.is_file():
                    raise DanglingArtifact(f"artifact {source_path!r} does not exist")
                name = f"s{n}_{src.name}"
                i = 1
                while name in used_names:
                    name = f"s{n}_{i}_{src.name}"
                    i += 1
                used_names.add(name)
                artifacts_dir.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(src, artifacts_dir / name)
                rel = f"artifacts/{name}"
                if rs._guess_kind(src.name) == "chart":
                    lines.append(f"![{src.name}]({rel})")
                else:
                    lines.append(f"[{src.name}]({rel})")
                lines.append("")
    except OSError as exc:
        raise IoFailure(f"cannot write report under {out_dir!r}: {exc}") from exc
    lines += ["## Sources", ""]
    if doc.sources:
        lines += [f"- [{title}]({url})" for title, url in doc.sources]
    else:
        lines.append("- (none)")
    report_path = out / "report.md"
    write_file(report_path, "\n".join(lines) + "\n")
    return str(report_path)


# -- configuration -----------------------------------------------------------------------


# The keys each endpoint section takes, every value a string: the keyword
# arguments of the HTTP chat, embedding and search backends.
_MODEL_KEYS = ("endpoint", "api_key", "model")
ENDPOINT_KEYS = {"llm": _MODEL_KEYS, "embed": _MODEL_KEYS, "search": ("endpoint",)}


def load_config(path: str | None = None) -> dict:
    """The JSON config at `path` (default: KDR_CONFIG), checked whole before
    any model call, with "limits" as a Limits record (defaults when absent)."""
    path = path or os.environ.get(ENV_CONFIG)
    config = check_keys(read_json(path), "config", allowed=CONFIG_KEYS) if path else {}
    for section, keys in ENDPOINT_KEYS.items():
        for key, value in check_keys(config.get(section, {}), section, allowed=keys).items():
            if not isinstance(value, str):
                raise SchemaViolation(f"{section}.{key} must be a string, got {value!r}")
    return {**config, "limits": rs.Limits.from_config(config)}
