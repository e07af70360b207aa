"""Command-line surface: organize, research, align, extract, eval, kb.

Exit codes: 0 success, 1 user error (bad flags, unreadable or malformed
inputs), 2 runtime failure (a backend or sandbox outage, an unusable model
reply). Metrics and manifests are printed to stdout as JSON; pass
--pretty for an indented rendering.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import evalkit as ek
from . import knowledge_store as ks
from . import ontology as onto
from . import pipeline as pl
from .errors import IoFailure, KdrError, UserError
from .extraction import ExtractionRequest, extract
from .files import read_json, read_jsonl, read_text
from .llm_gateway import (
    HttpChatBackend,
    HttpEmbeddingBackend,
    LlmGateway,
    MockChatBackend,
    MockEmbeddingBackend,
    Transcript,
)
from .websearch import FixtureSearchBackend, HttpSearchBackend


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract reserves 2 for runtime."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(payload, pretty: bool) -> None:
    if pretty:
        print(json.dumps(payload, indent=2, ensure_ascii=False, sort_keys=True))
    else:
        print(json.dumps(payload, ensure_ascii=False, sort_keys=True))


def _positive_int(text: str) -> int:
    """argparse type for --k: ranked[:k] with k <= 0 is no top-k."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _mock_gateway_from_file(path: str, transcript: Transcript) -> LlmGateway:
    chat = MockChatBackend.from_script_file(path)
    return LlmGateway(chat, MockEmbeddingBackend(), transcript)


def _gateway(args, config: dict) -> LlmGateway:
    """Scripted backend when --mock is given, HTTP from config/env otherwise."""
    transcript = Transcript(getattr(args, "transcript", None))
    if getattr(args, "mock", None):
        return _mock_gateway_from_file(args.mock, transcript)
    chat = HttpChatBackend(**config.get("llm", {}))  # load_config checked the keys
    try:
        embedder = HttpEmbeddingBackend(**config.get("embed", {}))
    except KdrError:
        embedder = None  # chat-only setups stay usable
    return LlmGateway(chat, embedder, transcript)


def _load_kb(kb_path: str, ontology_path: str | None):
    graph = onto.load_ontology(ontology_path or f"{kb_path}.ontology.json")
    store = ks.load(kb_path, graph)
    return graph, store


def _object_record(obj: ks.KnowledgeObject) -> dict:
    row = ks.object_row(obj)
    return {key: row[key] for key in ("id", "concept", "display_name", "slots", "provenance")}


# -- organize ---------------------------------------------------------------------------


def cmd_organize(args) -> int:
    config = pl.load_config(args.config)
    gateway = _gateway(args, config)
    task = pl.ResearchTask(args.topic, "organize",
                           corpus_path=args.corpus, kb_path=args.kb)

    if args.ontology:
        proposal = pl.review_gate(args.ontology, approve=True)
    else:
        docs, _ = pl.read_corpus(args.corpus)
        sample = "\n\n".join(text for _, text in docs)[:2000]
        review_path = f"{args.kb}.proposal.json"
        pl.propose_ontology(args.topic, sample, gateway, review_path=review_path)
        if not args.auto_approve:
            if not sys.stdin.isatty():
                print(f"proposal written to {review_path}; rerun with --auto-approve "
                      "or pass a reviewed file via --ontology", file=sys.stderr)
                return 1
            answer = input(f"Apply the proposed schema in {review_path}? [y/N] ")
            if answer.strip().lower() not in {"y", "yes"}:
                print(f"left for review: {review_path}", file=sys.stderr)
                return 1
        # reads back any edit; a file left as written is not parsed again
        proposal = pl.review_gate(review_path, approve=True)

    _, _, manifest = pl.run_organization(task, proposal, gateway,
                                         run_dir=args.run_dir, limits=config["limits"])
    _emit(manifest, args.pretty)
    return 0


# -- research ---------------------------------------------------------------------------


def cmd_research(args) -> int:
    config = pl.load_config(args.config)
    gateway = _gateway(args, config)
    graph, store = _load_kb(args.kb, args.ontology)
    task = pl.ResearchTask(args.task, "research",
                           kb_path=args.kb, output_path=args.out)

    if args.web_corpus:
        if not Path(args.web_corpus).is_dir():
            raise IoFailure(f"web corpus directory {args.web_corpus!r} does not exist")
        search_backend = FixtureSearchBackend(args.web_corpus)
    elif config.get("search", {}).get("endpoint"):
        search_backend = HttpSearchBackend(config["search"]["endpoint"])
    else:
        search_backend = None

    doc = pl.run_research(task, graph, store, gateway, search_backend=search_backend,
                          run_dir=args.out, limits=config["limits"])
    _emit({
        "report": str(Path(args.out) / "report.md"),
        "sections": [s.title for s in doc.sections],
        "sources": len(doc.sources),
    }, args.pretty)
    return 0


# -- align ------------------------------------------------------------------------------


def cmd_align(args) -> int:
    from . import alignment as al  # imports numpy, which `import kdr.cli` leaves out

    config = pl.load_config(args.config)
    gateway = _gateway(args, config)
    graph = onto.load_ontology(args.ontology)
    root = onto.ENTITY_ROOT if args.kind == "entity" else onto.EVENT_ROOT
    query = onto.Concept(name=args.name, namespace=args.namespace,
                         kind=args.kind, parent=root,
                         description=args.description)
    parent, equivalent_to, note = al.make_llm_placer(gateway, k=args.k)(query, graph)
    if args.save:
        onto.attach(graph, query, parent, equivalent_to)
        onto.save_ontology(graph, args.save)
    _emit({
        "concept": query.qualified,
        "parent": parent,
        "equivalent_to": equivalent_to,
        "note": note,
    }, args.pretty)
    return 0


# -- extract ----------------------------------------------------------------------------


def cmd_extract(args) -> int:
    config = pl.load_config(args.config)
    gateway = _gateway(args, config)
    graph = onto.load_ontology(args.ontology)
    if bool(args.text) == bool(args.file):
        raise UserError("pass exactly one of --text or --file")
    text = args.text if args.text else read_text(args.file)

    if args.types:
        allowed = [t.strip() for t in args.types.split(",") if t.strip()]
    else:
        allowed = graph.import_inventories().get(args.namespace, [])
    request = ExtractionRequest(text, args.namespace, mode=args.mode,
                                allowed_types=allowed if args.mode == "closed" else [],
                                source_id=args.source_id)
    objects = extract(request, graph, gateway)
    _emit({"objects": [_object_record(o) for o in objects]}, args.pretty)
    return 0


# -- eval -------------------------------------------------------------------------------


def cmd_eval_taxonomy(args) -> int:
    from . import alignment as al

    config = pl.load_config(args.config)
    gateway = _gateway(args, config)
    dataset = read_json(args.dataset)
    result = ek.eval_taxonomy(dataset, al.make_llm_aligner(gateway, k=args.k),
                              limits=config["limits"])
    _emit({
        "accuracy": result.accuracy,
        "mean_wu_palmer": result.mean_wu_palmer,
        "per_query": [list(row) for row in result.per_query],
    }, args.pretty)
    return 0


def cmd_eval_ie(args) -> int:
    pred, gold = ([row for _, row in read_jsonl(path)] for path in (args.pred, args.gold))
    result = ek.eval_ie_files(pred, gold, args.task)
    _emit(asdict(result), args.pretty)
    return 0


def cmd_eval_kbqa(args) -> int:
    config = pl.load_config(args.config)
    gateway = _gateway(args, config)
    records = [row for _, row in read_jsonl(args.dataset)]
    result = ek.eval_kbqa(records, gateway, limits=config["limits"], workdir=args.workdir)
    _emit({
        "hits_at_1": result.hits_at_1,
        "per_question": [list(row) for row in result.per_question],
    }, args.pretty)
    return 0


def cmd_eval_report(args) -> int:
    config = pl.load_config(args.config)
    if args.mock:
        transcript = Transcript(args.transcript)  # one seq count across judges
        gateways = [_mock_gateway_from_file(path, transcript) for path in args.mock]
    else:
        gateways = [_gateway(args, config)]
    report = read_text(args.report)
    score = ek.judge_report(report, gateways)
    _emit(score.as_dict(), args.pretty)
    return 0


# -- kb ---------------------------------------------------------------------------------


def cmd_kb_stats(args) -> int:
    graph, store = _load_kb(args.kb, args.ontology)
    counts: dict[str, int] = {}
    for obj in store.objects.values():
        counts[obj.concept] = counts.get(obj.concept, 0) + 1
    _emit({
        "objects": len(store.objects),
        "concepts": {q: counts[q] for q in sorted(counts)},
    }, args.pretty)
    return 0


def cmd_kb_query(args) -> int:
    graph, store = _load_kb(args.kb, args.ontology)
    matches = store.query_by_name(args.name, fuzzy=args.fuzzy)
    _emit({"matches": [_object_record(o) for o in matches]}, args.pretty)
    return 0


def cmd_kb_merge_check(args) -> int:
    graph, store = _load_kb(args.kb, args.ontology)
    by_name = store.ids_by_name()
    collisions = []
    for name in sorted(by_name):
        group = [store.objects[i] for i in sorted(by_name[name])]
        if len(group) < 2:
            continue
        collisions.append({
            "name": name,
            "objects": [{"id": o.id, "concept": o.concept,
                         "display_name": o.display_name}
                        for o in group],
        })
    _emit({"collisions": collisions}, args.pretty)
    return 0


# -- parser -----------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, mock_append: bool = False) -> None:
    if mock_append:
        p.add_argument("--mock", action="append", metavar="SCRIPT.json",
                       help="scripted model responses; repeat for more judges")
    else:
        p.add_argument("--mock", metavar="SCRIPT.json",
                       help="scripted model responses instead of a live backend")
    p.add_argument("--config", help="config file (overrides KDR_CONFIG)")
    p.add_argument("--transcript", metavar="PATH",
                   help="append every model exchange to this JSONL file")
    p.add_argument("--pretty", action="store_true",
                   help="indent the JSON output")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kdr", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("organize", help="build a knowledge base from a corpus")
    p.add_argument("--topic", required=True)
    p.add_argument("--corpus", required=True, help="directory of source documents")
    p.add_argument("--kb", required=True, help="knowledge base output path")
    p.add_argument("--ontology", help="reviewed schema file; skips the proposal step")
    p.add_argument("--auto-approve", action="store_true",
                   help="apply the proposed schema without review")
    p.add_argument("--run-dir", help="where to write the run manifest")
    _add_common(p)
    p.set_defaults(func=cmd_organize)

    p = sub.add_parser("research", help="write a research report from a knowledge base")
    p.add_argument("--task", required=True, help="research question or topic")
    p.add_argument("--kb", required=True, help="knowledge base path")
    p.add_argument("--out", required=True, help="run directory for the report")
    p.add_argument("--ontology", help="schema path (default: KB path + .ontology.json)")
    p.add_argument("--web-corpus", help="directory of search fixture documents")
    _add_common(p)
    p.set_defaults(func=cmd_research)

    p = sub.add_parser("align", help="place a new concept into an ontology")
    p.add_argument("--ontology", required=True, help="ontology JSON file")
    p.add_argument("--name", required=True, help="concept name (UpperCamelCase)")
    p.add_argument("--description", default="")
    p.add_argument("--kind", choices=["entity", "event"], default="entity")
    p.add_argument("--namespace", default="NEW")
    p.add_argument("--k", type=_positive_int, default=onto.DEFAULT_K,
                   help="candidate neighbors to consider")
    p.add_argument("--save", help="write the expanded ontology here")
    _add_common(p)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("extract", help="extract objects from text against a schema")
    p.add_argument("--ontology", required=True, help="ontology JSON file")
    p.add_argument("--namespace", required=True)
    p.add_argument("--text", help="passage given inline")
    p.add_argument("--file", help="passage read from a file")
    p.add_argument("--mode", choices=["closed", "open"], default="closed")
    p.add_argument("--types", help="comma-separated allowed concept names")
    p.add_argument("--source-id", default="cli", help="provenance label")
    _add_common(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("eval", help="scoring harnesses")
    esub = p.add_subparsers(dest="protocol", required=True)

    e = esub.add_parser("taxonomy", help="parent placement accuracy and similarity")
    e.add_argument("--dataset", required=True, help="taxonomy dataset JSON")
    e.add_argument("--k", type=_positive_int, default=onto.DEFAULT_K)
    _add_common(e)
    e.set_defaults(func=cmd_eval_taxonomy)

    e = esub.add_parser("ie", help="micro F1 over extraction annotations")
    e.add_argument("--pred", required=True, help="predictions JSONL")
    e.add_argument("--gold", required=True, help="gold annotations JSONL")
    e.add_argument("--task", required=True, choices=list(ek.IE_TASKS))
    e.add_argument("--pretty", action="store_true")
    e.set_defaults(func=cmd_eval_ie)

    e = esub.add_parser("kbqa", help="hits@1 over question subgraphs")
    e.add_argument("--dataset", required=True, help="question records JSONL")
    e.add_argument("--workdir", help="where the analysis scripts run")
    _add_common(e)
    e.set_defaults(func=cmd_eval_kbqa)

    e = esub.add_parser("report", help="multi-judge report scoring")
    e.add_argument("--report", required=True, help="report markdown file")
    _add_common(e, mock_append=True)
    e.set_defaults(func=cmd_eval_report)

    p = sub.add_parser("kb", help="inspect a knowledge base")
    ksub = p.add_subparsers(dest="inspect", required=True)

    k = ksub.add_parser("stats", help="object counts per concept")
    k.add_argument("--kb", required=True)
    k.add_argument("--ontology")
    k.add_argument("--pretty", action="store_true")
    k.set_defaults(func=cmd_kb_stats)

    k = ksub.add_parser("query", help="look up objects by name")
    k.add_argument("--kb", required=True)
    k.add_argument("--ontology")
    k.add_argument("--name", required=True)
    k.add_argument("--fuzzy", action="store_true")
    k.add_argument("--pretty", action="store_true")
    k.set_defaults(func=cmd_kb_query)

    k = ksub.add_parser("merge-check", help="list display-name collisions")
    k.add_argument("--kb", required=True)
    k.add_argument("--ontology")
    k.add_argument("--pretty", action="store_true")
    k.set_defaults(func=cmd_kb_merge_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except KdrError as exc:  # anything else is a bug, and its traceback shows it
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, UserError) else 2


if __name__ == "__main__":
    raise SystemExit(main())
