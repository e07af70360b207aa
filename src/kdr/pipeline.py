"""End-to-end orchestration.

Organization: propose a concept schema for a topic, hold it at a review gate,
then sweep a document corpus through extraction into the knowledge store.
Research: plan a report, run the per-section computation and text cycles,
merge and revise, and assemble the final markdown with copied artifacts.
"""

from __future__ import annotations

import hashlib
import html.parser
import json
import logging
import os
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import alignment
from . import knowledge_store as ks
from . import ontology as onto
from . import reasoning as rs
from . import templates
from .errors import (
    DanglingArtifact,
    IoFailure,
    KdrError,
    SchemaViolation,
    SearchBackendUnavailable,
    UnparseableProposal,
)
from .extraction import ExtractionReport, ExtractionRequest, extract, strip_code_fence
from .knowledge_store import KnowledgeStore
from .llm_gateway import LlmGateway

log = logging.getLogger(__name__)

# -- tasks and proposals -------------------------------------------------------

CONFIG_KEYS = {"llm", "embed", "search", "limits", "defaults"}
ENV_CONFIG = "KDR_CONFIG"
DEFAULT_WORKERS = 8


@dataclass
class ResearchTask:
    topic: str
    mode: str  # "organize" | "research"
    corpus_path: str | None = None
    kb_path: str | None = None
    output_path: str | None = None

    def __post_init__(self) -> None:
        if not self.topic.strip():
            raise ValueError("task topic is empty")
        if self.mode not in ("organize", "research"):
            raise ValueError(f"unknown task mode {self.mode!r}")
        if self.mode == "organize" and not self.corpus_path:
            raise ValueError("organize tasks need a corpus_path")
        if self.mode == "research" and not self.kb_path:
            raise ValueError("research tasks need a kb_path")


@dataclass
class ProposedOntology:
    document: dict
    status: str = "proposed"  # "proposed" | "approved" | "edited"
    reviewer_note: str = ""

    @property
    def concept_count(self) -> int:
        return sum(len(v) for v in self.document.get("namespaces", {}).values())


def propose_ontology(
    topic: str,
    sample: str,
    gateway: LlmGateway,
    review_path: str | None = None,
) -> ProposedOntology:
    """Ask the model for a concept schema; validate; write the review file."""
    if not topic.strip():
        raise ValueError("topic is empty")
    response = gateway.ask(
        templates.PROPOSE_ONTOLOGY_PROMPT.format(topic=topic, sample=sample),
        tag="propose",
    )
    raw = strip_code_fence(response)
    try:
        document = json.loads(raw)
        onto.graph_from_document(document)  # schema check only
    except (json.JSONDecodeError, KdrError) as exc:
        if review_path:
            Path(review_path).parent.mkdir(parents=True, exist_ok=True)
            Path(f"{review_path}.raw").write_text(response, encoding="utf-8")
        raise UnparseableProposal(f"proposal rejected: {exc}") from exc
    if review_path:
        Path(review_path).parent.mkdir(parents=True, exist_ok=True)
        Path(review_path).write_text(
            json.dumps(document, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    return ProposedOntology(document)


def review_gate(
    proposal_path: str,
    approve: bool = False,
    edited_path: str | None = None,
) -> ProposedOntology:
    """Approval or a revalidated edited file; anything else stays gated."""
    if edited_path:
        with open(edited_path, encoding="utf-8") as handle:
            document = json.load(handle)
        onto.graph_from_document(document)  # raises SchemaViolation on bad edits
        return ProposedOntology(document, status="edited",
                                reviewer_note=f"edited file {edited_path}")
    with open(proposal_path, encoding="utf-8") as handle:
        document = json.load(handle)
    if not approve:
        raise ValueError("proposal not approved; pass approve=True or an edited file")
    onto.graph_from_document(document)
    return ProposedOntology(document, status="approved")


# -- corpus ingestion ------------------------------------------------------------


class _HtmlText(html.parser.HTMLParser):
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


def html_to_text(raw: str) -> str:
    parser = _HtmlText()
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
    root = Path(corpus_dir)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus directory {corpus_dir!r} does not exist")
    docs: list[tuple[str, str]] = []
    skipped: list[str] = []
    for path in sorted(p for p in root.iterdir() if p.is_file()):
        reader = _READERS.get(path.suffix.lower())
        if reader is None:
            skipped.append(path.name)
            continue
        docs.append((path.name, reader(path.read_text(encoding="utf-8"))))
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


def ordered_map(fn, items: list, workers: int) -> list:
    """[fn(item) for item in items], overlapped on a bounded thread pool.

    Results come back in item order whatever order the calls finish in. With
    workers <= 1 or at most one item it is a plain loop. If a call raises,
    calls not yet started are cancelled and the first error in item order
    propagates once the running ones finish.
    """
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor  # lazy: `import kdr.cli` stays lean

    pool = ThreadPoolExecutor(max_workers=min(workers, len(items)))
    try:
        return list(pool.map(fn, items))
    finally:
        pool.shutdown(cancel_futures=True)


# -- organization phase --------------------------------------------------------------


def _merge_proposal_into_graph(
    graph: onto.OntologyGraph,
    document: dict,
    gateway: LlmGateway | None,
) -> tuple[onto.OntologyGraph, list[str]]:
    """Add proposed concepts; root-parented ones go through alignment when the
    graph already holds same-kind concepts and a backend is available."""
    notes: list[str] = []
    fresh = onto.graph_from_document(document)
    aligner = alignment.make_llm_aligner(gateway) if gateway else None
    ordered = [q for q in fresh.concepts if q not in onto.ROOTS]
    ordered.sort(key=lambda q: len(fresh.root_path(q)))
    for qualified in ordered:
        concept = fresh.concepts[qualified]
        if qualified in graph.concepts:
            notes.append(f"{qualified} already present; kept existing definition")
            continue
        parent_is_root = concept.parent in onto.ROOTS
        has_peers = any(c.kind == concept.kind for q, c in graph.concepts.items()
                        if q not in onto.ROOTS)
        try:
            if parent_is_root and has_peers and aligner is not None:
                parent = aligner(concept, graph)
                placed = onto.Concept(
                    concept.name, concept.namespace, concept.kind, parent,
                    concept.description, concept.examples, concept.attributes,
                    concept.equivalents)
                graph = onto.add_concept(graph, placed)
                if parent not in onto.ROOTS:
                    notes.append(f"{qualified} aligned under {parent}")
            else:
                graph = onto.add_concept(graph, concept)
        except KdrError as exc:
            notes.append(f"{qualified} skipped: {exc}")
    return graph, notes


def run_organization(
    task: ResearchTask,
    proposal: ProposedOntology,
    gateway: LlmGateway,
    base_graph: onto.OntologyGraph | None = None,
    store: KnowledgeStore | None = None,
    run_dir: str | None = None,
    workers: int = DEFAULT_WORKERS,
) -> tuple[onto.OntologyGraph, KnowledgeStore, dict]:
    """Sweep the corpus through extraction into a fresh or existing store.

    Per-document failures land in the manifest's error ledger; the run keeps
    going. The store and its ontology are saved next to task.kb_path. Up to
    `workers` extraction jobs (one per passage and namespace) overlap; their
    results are ingested in corpus order, so the store does not depend on it.
    """
    if proposal.status not in ("approved", "edited"):
        raise ValueError(f"ontology proposal is {proposal.status}; review it first")
    if task.kb_path:  # before any model call, so an unwritable location fails fast
        try:
            Path(task.kb_path).parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise IoFailure(f"cannot create KB directory for {task.kb_path!r}: {exc}") from exc
    if base_graph is None or all(q in onto.ROOTS for q in base_graph.concepts):
        graph = onto.graph_from_document(proposal.document)
        notes: list[str] = []
    else:
        graph, notes = _merge_proposal_into_graph(base_graph, proposal.document, gateway)

    if store is None:
        store = KnowledgeStore(graph)
    else:
        store.graph = graph
    docs, skipped = read_corpus(task.corpus_path)
    ledger = [{"document": name, "error": "unsupported format, skipped"}
              for name in skipped]
    namespaces = sorted(proposal.document.get("namespaces", {}).keys())
    inventory = {
        ns: sorted(c.name for q, c in graph.concepts.items() if c.namespace == ns)
        for ns in namespaces
    }

    passage_count = 0
    timestamp = 0.0
    jobs = []  # (document, passage index, namespace, request, timestamp)
    for doc_name, text in docs:
        for pi, passage in enumerate(split_passages(text)):
            passage_count += 1
            timestamp += 1.0
            for ns in namespaces:
                if inventory[ns]:
                    jobs.append((doc_name, pi, ns, ExtractionRequest(
                        passage, ns, mode="closed", allowed_types=inventory[ns],
                        source_id=f"{doc_name}#p{pi}"), timestamp))

    def run_job(job):
        _, _, _, request, stamp = job
        report = ExtractionReport()
        try:
            return extract(request, graph, gateway, timestamp=stamp, report=report), report, None
        except KdrError as exc:
            return [], report, exc

    extracted = 0
    for (doc_name, pi, ns, _, _), (objects, report, error) in zip(
            jobs, ordered_map(run_job, jobs, workers)):
        if error is not None:
            ledger.append({"document": doc_name, "passage": pi,
                           "namespace": ns, "error": str(error)})
            continue
        if not objects and report.reason:
            ledger.append({"document": doc_name, "passage": pi,
                           "namespace": ns, "error": report.reason})
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
        "concepts": sum(1 for q in graph.concepts if q not in onto.ROOTS),
        "namespaces": namespaces,
        "alignment_notes": notes,
        "errors": ledger,
    }
    if task.kb_path:
        ks.save(store, task.kb_path)
        onto.save_ontology(graph, f"{task.kb_path}.ontology.json")
    if run_dir:
        Path(run_dir).mkdir(parents=True, exist_ok=True)
        (Path(run_dir) / "manifest.json").write_text(
            json.dumps(manifest, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
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
    if not path.exists():
        return None
    try:
        cached = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    return cached if cached.get("hash") == digest else None


def run_research(
    task: ResearchTask,
    graph: onto.OntologyGraph,
    store: KnowledgeStore,
    gateway: LlmGateway,
    search_backend=None,
    run_dir: str | None = None,
    cfg: rs.CycleConfig | None = None,
    max_rounds: int = 3,
    search_hits: int = 3,
    generated_at: str | None = None,
    workers: int = DEFAULT_WORKERS,
) -> ReportDocument:
    """Plan, run per-section cycles, merge, revise, and assemble the report.

    Only a plan parse failure aborts the run; a failed computation cycle
    downgrades its section to the text-cycle content plus an inline caveat.
    Finished sections are cached in the run directory keyed by plan hash.
    Up to `workers` sections run at once, each in its own directory; they are
    assembled in plan order, and the final revision pass stays serial.
    """
    cfg = cfg or rs.CycleConfig()
    run = Path(run_dir) if run_dir else Path("runs") / time.strftime("%Y%m%d-%H%M%S")
    run.mkdir(parents=True, exist_ok=True)

    plan_text = gateway.ask(
        templates.PLAN_PROMPT.format(title=task.topic, request=task.topic), tag="plan")
    (run / "plan.txt").write_text(plan_text, encoding="utf-8")
    plans = rs.parse_decomposition(plan_text)

    def run_section(numbered: tuple[int, rs.CyclePlan]) -> tuple[Section, list]:
        n, plan = numbered
        section_dir = run / "sections" / str(n)
        section_dir.mkdir(parents=True, exist_ok=True)
        digest = _section_hash(plan)
        cached = _load_section_cache(section_dir / "result.json", digest)
        if cached is not None:
            return (Section(cached["title"], cached["body"], cached["artifacts"]),
                    cached["sources"])

        computed: list[str] = []
        caveats: list[str] = []
        drafted_parts: list[str] = []
        artifacts: list[str] = []
        section_sources: list[tuple[str, str]] = []
        data_index = 0
        for request in plan.requests:
            if request.kind == "data_analysis":
                # request i > 0 gets its own suffix, so artifacts do not collide
                suffix = f"_{data_index}" if data_index else ""
                data_index += 1
                trace = rs.run_computation_cycle(
                    request.query, graph, store, gateway, cfg,
                    workdir=str(section_dir / f"work{suffix}"),
                    trace_path=str(section_dir / f"trace{suffix}.json"))
                if trace.final_status == "passed":
                    stdout = trace.iterations[-1].execution.stdout.strip()
                    computed.append(
                        f"Computed findings for '{request.query}':\n{stdout}")
                    artifacts.extend(trace.artifacts)
                else:
                    reason = trace.reason or "no passing iteration"
                    caveats.append(
                        f"*The analysis request '{request.query}' did not "
                        f"complete ({reason}); this section relies on "
                        f"background material only.*")
            else:
                if search_backend is None:
                    caveats.append(
                        f"*No search backend was configured for "
                        f"'{request.query}'.*")
                    continue
                try:
                    text_result = rs.run_text_cycle(
                        request.query, search_backend, gateway,
                        max_rounds=max_rounds, limit=search_hits)
                except SearchBackendUnavailable as exc:
                    caveats.append(
                        f"*Search failed for '{request.query}': {exc}.*")
                    continue
                if text_result.text.strip():
                    drafted_parts.append(text_result.text.strip())
                elif text_result.note:
                    caveats.append(
                        f"*No background material found for "
                        f"'{request.query}' ({text_result.note}).*")
                section_sources.extend(text_result.sources)

        drafted = "\n\n".join(drafted_parts)
        if computed or drafted:
            body = rs.merge_and_revise(plan.section_title, computed, drafted, gateway)
            if not body.strip():
                body = "\n\n".join(computed + ([drafted] if drafted else []))
        else:
            body = ""
        if caveats:
            body = (body + "\n\n" if body else "") + "\n\n".join(caveats)

        (section_dir / "result.json").write_text(json.dumps({
            "hash": digest,
            "title": plan.section_title,
            "body": body,
            "artifacts": artifacts,
            "sources": section_sources,
        }, indent=2, ensure_ascii=False), encoding="utf-8")
        return Section(plan.section_title, body, artifacts), section_sources

    sections: list[Section] = []
    all_sources: list[tuple[str, str]] = []
    seen_urls: set[str] = set()
    for section, section_sources in ordered_map(
            run_section, list(enumerate(plans, start=1)), workers):
        sections.append(section)
        for title, url in section_sources:
            if url not in seen_urls:
                seen_urls.add(url)
                all_sources.append((title, url))

    revised = rs.revise_report([s.body for s in sections], gateway)
    for section, new_body in zip(sections, revised):
        if new_body.strip():
            section.body = new_body

    stamp = generated_at or time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    doc = ReportDocument(title=task.topic, sections=sections,
                         sources=all_sources, generated_at=stamp)
    report_path = assemble_report(doc, str(run))
    (run / "manifest.json").write_text(json.dumps({
        "topic": task.topic,
        "sections": [s.title for s in sections],
        "artifact_count": sum(len(s.artifacts) for s in sections),
        "source_count": len(all_sources),
        "report": str(report_path),
        "generated_at": stamp,
    }, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    return doc


# -- report assembly ---------------------------------------------------------------------


_IMAGE_SUFFIXES = {".png", ".jpg", ".jpeg", ".svg", ".gif"}


def assemble_report(doc: ReportDocument, out_dir: str) -> str:
    """Write report.md and copy every referenced artifact under artifacts/."""
    if not doc.sections:
        raise ValueError("report has no sections")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create report directory {out_dir!r}: {exc}") from exc
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
                if src.suffix.lower() in _IMAGE_SUFFIXES:
                    lines.append(f"![{src.name}]({rel})")
                else:
                    lines.append(f"[{src.name}]({rel})")
                lines.append("")
        lines += ["## Sources", ""]
        if doc.sources:
            lines += [f"- [{title}]({url})" for title, url in doc.sources]
        else:
            lines.append("- (none)")
        report_path = out / "report.md"
        report_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot write report under {out_dir!r}: {exc}") from exc
    return str(report_path)


# -- configuration -----------------------------------------------------------------------


def load_config(path: str | None = None) -> dict:
    """JSON config with keys {llm, embed, search, limits, defaults}."""
    path = path or os.environ.get(ENV_CONFIG)
    if not path:
        return {}
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise SchemaViolation("config must be a JSON object")
    unknown = set(document) - CONFIG_KEYS
    if unknown:
        raise SchemaViolation(f"unknown config keys: {sorted(unknown)}")
    return document


def cycle_config_from(config: dict) -> rs.CycleConfig:
    limits = config.get("limits", {})
    allowed = {"max_iterations", "hops", "wall_seconds", "output_bytes", "search_limit"}
    unknown = set(limits) - allowed - {"max_rounds", "search_hits", "workers"}
    if unknown:
        raise SchemaViolation(f"unknown limit keys: {sorted(unknown)}")
    kwargs = {k: limits[k] for k in allowed if k in limits}
    return rs.CycleConfig(**kwargs)


def workers_from(config: dict) -> int:
    """limits.workers: how many extraction jobs, report sections or taxonomy leaves overlap."""
    workers = config.get("limits", {}).get("workers", DEFAULT_WORKERS)
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise SchemaViolation(f"limits.workers must be an integer >= 1, got {workers!r}")
    return workers
