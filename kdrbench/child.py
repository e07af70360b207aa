"""One repetition of a workload, in a fresh interpreter.

    python3 kdrbench/child.py JOB.json

JOB.json names the checkout root, the workload spec, the generated inputs,
an empty output directory and whether to trace. The child times set-up from
before ``import kdr`` to the first backend call, drives kdr's public API,
and writes what the parent needs for its checks to the job's result path.
Time spent on the benchmark's own objects (reply table, tracer) is taken
out of set-up.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from pathlib import Path

def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_organize(job, gateway, inputs: Path, out: Path) -> dict:
    from kdr import pipeline as pl

    corpus = str(inputs / "corpus")
    docs, _ = pl.read_corpus(corpus)  # the proposal sample, as `kdr organize` takes it
    sample = "\n\n".join(text for _, text in docs)[:2000]
    kb = out / "kb.jsonl"
    review = f"{kb}.proposal.json"
    pl.propose_ontology(job["topic"], sample, gateway, review_path=review)
    proposal = pl.review_gate(review, approve=True)
    task = pl.ResearchTask(job["topic"], "organize", corpus_path=corpus, kb_path=str(kb))
    _, _, manifest = pl.run_organization(task, proposal, gateway, run_dir=str(out / "run"))
    return {
        "items": manifest["passages"],
        "manifest": {k: manifest[k] for k in ("passages", "extracted_objects", "stored_objects",
                                              "resolved_references", "errors")},
        "files": {"kb": str(kb), "ontology": f"{kb}.ontology.json"},
    }


def run_research(job, gateway, inputs: Path, out: Path) -> dict:
    from kdr import knowledge_store as ks
    from kdr import ontology as onto
    from kdr import pipeline as pl
    from kdr.websearch import FixtureSearchBackend

    kb = str(inputs / "kb.jsonl")
    graph = onto.load_ontology(f"{kb}.ontology.json")
    store = ks.load(kb, graph)
    search = FixtureSearchBackend(str(inputs / "web"))
    report_dir = out / "report"
    task = pl.ResearchTask(job["topic"], "research", kb_path=kb, output_path=str(report_dir))
    doc = pl.run_research(task, graph, store, gateway, search_backend=search,
                          run_dir=str(report_dir), generated_at=job["generated_at"])
    copied = sorted(p.name for p in (report_dir / "artifacts").glob("*"))
    return {
        "items": len(doc.sections),
        "sections": [{"title": s.title, "body": s.body, "artifacts": len(s.artifacts)}
                     for s in doc.sections],
        "copied_artifacts": copied,
        "files": {"report": str(report_dir / "report.md")},
    }


def run_taxonomy(job, gateway, inputs: Path, out: Path) -> dict:
    from kdr import alignment as al
    from kdr import evalkit as ek

    with open(inputs / "taxonomy.json", encoding="utf-8") as handle:
        dataset = json.load(handle)
    aligner = al.make_llm_aligner(gateway, k=job["spec"]["k"])
    # graph_builder is passed by name so the traced run can time it
    result = ek.eval_taxonomy(dataset, aligner, graph_builder=ek.build_taxonomy_graph)
    return {
        "items": len(result.per_query),
        "accuracy": result.accuracy,
        "mean_wu_palmer": result.mean_wu_palmer,
        "parents": {leaf: predicted for leaf, predicted, _, _ in result.per_query},
    }


RUNNERS = {"organize": run_organize, "research": run_research, "taxonomy": run_taxonomy}


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    os.sched_setaffinity(0, {job["cpu"]})
    root = Path(job["root"])
    sys.path.insert(0, str(root / "src"))
    start = time.perf_counter()
    import kdr.cli  # noqa: F401 - the import a `kdr` command pays
    import_s = time.perf_counter() - start
    if not Path(kdr.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"kdr imported from {kdr.__file__}, not from the checkout")

    own_start = time.perf_counter()
    import resource

    from backend import BenchChatBackend, BenchEmbeddingBackend, Meter
    from kdr.llm_gateway import LlmGateway

    spec = job["spec"]
    inputs = Path(job["inputs"])
    out = Path(job["out"])
    replies = inputs / "replies.json"
    table = json.loads(replies.read_text(encoding="utf-8")) if replies.exists() else {}
    meter = Meter()
    gateway = LlmGateway(BenchChatBackend(table, spec["latency_ms"] / 1000.0, meter),
                         BenchEmbeddingBackend(meter, spec.get("dim", 64)))
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer(out.name)
        tracing.install(tracer)
    own_s = time.perf_counter() - own_start

    output = RUNNERS[spec["kind"]](job, gateway, inputs, out)
    end = time.perf_counter()
    files = output.pop("files", {})
    output["digests"] = {name: _digest(Path(path)) for name, path in files.items()}
    result = {
        "setup_s": meter.first_call_at - start - own_s,
        "work_s": end - meter.first_call_at,
        "total_s": end - start - own_s,
        "model_calls": sum(meter.calls.values()),
        "prompt_chars": meter.prompt_chars,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": dict(meter.calls),
        "output": output,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, meter, import_s)
        tracer.dump(str(out / "spans.json"))
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
