"""Self-tests of the benchmark: seeded generators, order-free replies, smoke runs.

    python3 -m pytest -q kdrbench/test_kdrbench.py

Everything is written under .kdrbench_work/ in the checkout.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import run
import tracing

sys.path.insert(0, str(run.ROOT / "src"))

TINY = {
    "organize-latency": {"docs": 1, "paragraphs": 3, "latency_ms": 0},
    "organize-bulk": {"docs": 1, "paragraphs": 3, "concepts": 40, "latency_ms": 0},
    "research": {"concepts": 40, "kb_objects": 80, "web_docs": 30, "sections": 2,
                 "latency_ms": 0},
    "taxonomy-align": {"terms": 80, "leaves": 6, "latency_ms": 0},
}


def tiny(name: str) -> dict:
    return dict(gen.WORKLOADS[name], **TINY[name])


@pytest.fixture
def workdir():
    path = run.WORK / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(TINY))
def test_generators_are_seeded(name, workdir):
    spec = tiny(name)
    assert gen.generate(7, spec, workdir / "a") == gen.generate(7, spec, workdir / "b")
    gen.generate(8, spec, workdir / "c")
    assert _files(workdir / "a") == _files(workdir / "b")
    assert _files(workdir / "a") != _files(workdir / "c")


def _recorded_prompts(name: str, out: Path) -> tuple[dict, list[str]]:
    """Run a tiny workload in-process and keep every prompt the backend saw."""
    import backend
    import child
    from kdr.llm_gateway import LlmGateway

    spec = tiny(name)
    gen.generate(3, spec, out / "inputs")
    replies = out / "inputs" / "replies.json"
    table = json.loads(replies.read_text()) if replies.exists() else {}
    prompts: list[str] = []

    class Recording(backend.BenchChatBackend):
        def complete(self, messages, config):
            prompts.append("\n".join(m.content for m in messages))
            return super().complete(messages, config)

    meter = backend.Meter()
    gateway = LlmGateway(Recording(table, 0.0, meter), backend.BenchEmbeddingBackend(meter))
    job = {"spec": spec, "topic": gen.TOPIC, "generated_at": gen.GENERATED_AT}
    (out / "run").mkdir()
    child.RUNNERS[spec["kind"]](job, gateway, out / "inputs", out / "run")
    return table, prompts


@pytest.mark.parametrize("name", ["organize-bulk", "research", "taxonomy-align"])
def test_replies_do_not_depend_on_call_order(name, workdir):
    import backend

    table, prompts = _recorded_prompts(name, workdir)
    assert len(prompts) > 3
    in_order = {p: backend.reply(backend.prompt_kind(p), p, table) for p in prompts}
    shuffled = list(prompts)
    random.Random(0).shuffle(shuffled)
    for prompt in shuffled:
        assert backend.reply(backend.prompt_kind(prompt), prompt, table) == in_order[prompt]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_passes_its_checks(name, trace, monkeypatch, capsys):
    monkeypatch.setitem(gen.WORKLOADS, name, tiny(name))
    result = run.run(name, seed=5, seconds=0, trace=trace)
    assert result["correct"], capsys.readouterr().err
    assert result["failed"] == 0 and result["attempted"] > 0
    wanted = tracing.LAYER_METRICS if trace else run.END_TO_END
    assert set(result["metrics"]) == set(wanted)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_kdr_sources(workdir):
    shutil.copytree(run.HERE, workdir / "kdrbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copyfile(run.ROOT / "BENCHMARK.json", workdir / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "kdrbench/run.py", "--workload", "organize-latency",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=workdir, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_every_metric():
    document = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in document["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in document["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in document["per_layer"]} == \
        {name: (unit, better) for name, (unit, better, _) in tracing.LAYER_METRICS.items()}
