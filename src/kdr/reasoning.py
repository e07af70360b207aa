"""Knowledge computation and text generation cycles.

The computation cycle turns an analysis query into executable code: find the
relevant concepts, generate analysis code against their class definitions,
query matching instances, assemble everything into one script with the
instances bound to `search_results`, run it in a sandbox child forked from a
warm interpreter, and let an evaluator decide pass or retry. The text cycle
searches a corpus, summarizes hits, drafts an answer, and checks sufficiency.
"""

from __future__ import annotations

import atexit
import json
import logging
import os
import re
import subprocess
import sys
import tempfile
import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import knowledge_store as ks
from . import ontology as onto
from . import templates
from .errors import (
    EmptyQuery,
    NoConceptFound,
    NoInstancesFound,
    NoTopicEntity,
    RejectedCode,
    SandboxUnavailable,
    UnbalancedTags,
)
from .extraction import strip_code_fence
from .knowledge_store import KnowledgeObject, KnowledgeStore
from .llm_gateway import LlmGateway
from .textindex import InvertedIndex, tokenize

log = logging.getLogger(__name__)

# -- plan decomposition ---------------------------------------------------------

BEGIN_DATA = "<begin_data_analysis>"
END_DATA = "<end_data_analysis>"
BEGIN_WEB = "<begin_web_search>"
END_WEB = "<end_web_search>"

_TAG_RE = re.compile(r"<(begin|end)_(data_analysis|web_search)>")
_HEADING_RE = re.compile(r"^#{1,6}[ \t]*(.*)$", re.MULTILINE)


@dataclass
class CycleRequest:
    kind: str  # "data_analysis" | "web_search"
    query: str


@dataclass
class CyclePlan:
    section_title: str
    requests: list[CycleRequest] = field(default_factory=list)


def parse_decomposition(plan_text: str) -> list[CyclePlan]:
    """Markdown headings become sections; tag pairs become requests in order.

    Tags must pair up without nesting; offenders are reported with their
    character offset.
    """
    requests: list[tuple[int, CycleRequest]] = []
    open_tag: tuple[str, int, int] | None = None  # (kind, begin pos, content start)
    for m in _TAG_RE.finditer(plan_text):
        edge, kind = m.group(1), m.group(2)
        if edge == "begin":
            if open_tag is not None:
                raise UnbalancedTags(
                    f"<begin_{kind}> opened while <begin_{open_tag[0]}> is still open",
                    m.start(),
                )
            open_tag = (kind, m.start(), m.end())
        else:
            if open_tag is None:
                raise UnbalancedTags(f"<end_{kind}> without a matching begin", m.start())
            if open_tag[0] != kind:
                raise UnbalancedTags(
                    f"<end_{kind}> closes <begin_{open_tag[0]}>", m.start()
                )
            query = plan_text[open_tag[2]:m.start()].strip()
            if not query:
                raise EmptyQuery(f"empty {kind} query", open_tag[1])
            requests.append((open_tag[1], CycleRequest(kind, query)))
            open_tag = None
    if open_tag is not None:
        raise UnbalancedTags(f"<begin_{open_tag[0]}> is never closed", open_tag[1])

    sections: list[tuple[int, str]] = [
        (m.start(), m.group(1).strip()) for m in _HEADING_RE.finditer(plan_text)
    ]
    plans: list[CyclePlan] = []
    if sections:
        prefix_requests = [r for pos, r in requests if pos < sections[0][0]]
        if prefix_requests:
            plans.append(CyclePlan("Overview", prefix_requests))
        for i, (start, title) in enumerate(sections):
            end = sections[i + 1][0] if i + 1 < len(sections) else len(plan_text)
            plans.append(CyclePlan(
                title or "Untitled",
                [r for pos, r in requests if start <= pos < end],
            ))
    else:
        plans.append(CyclePlan("Overview", [r for _, r in requests]))
    return plans


def render_decomposition(plans: list[CyclePlan]) -> str:
    """Inverse of parse_decomposition for well-formed plans."""
    chunks = []
    for plan in plans:
        lines = [f"# {plan.section_title}"]
        for req in plan.requests:
            begin = BEGIN_DATA if req.kind == "data_analysis" else BEGIN_WEB
            end = END_DATA if req.kind == "data_analysis" else END_WEB
            lines.append(f"{begin}{req.query}{end}")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks)


# -- ontology search ---------------------------------------------------------------


def ontology_search(
    query: str, graph: onto.OntologyGraph, limit: int = 5
) -> list[tuple[onto.Concept, str]]:
    """Full-text match over concept names, descriptions, and attribute names."""
    if not tokenize(query):
        raise NoConceptFound(f"query {query!r} has no searchable tokens")
    index = InvertedIndex()
    for q, concept in graph.concepts.items():
        blob = " ".join([concept.name, concept.description]
                        + [a.name for a in concept.attributes])
        index.add(q, blob)
    ranked = index.search(query, limit=limit)
    if not ranked:
        raise NoConceptFound(f"no concept matches {query!r}")
    return [
        (graph.concepts[q], onto.render_class_code(graph, q)) for q, _ in ranked
    ]


def class_closure(graph: onto.OntologyGraph, names: list[str]) -> list[str]:
    """Qualified names plus every ancestor and reference target, parents first."""
    wanted: set[str] = set()
    frontier = [graph.resolve(n) for n in names]
    while frontier:
        q = frontier.pop()
        if q in wanted or q in onto.ROOTS:
            continue
        wanted.add(q)
        for node in graph.root_path(q)[1:-1]:
            if node not in wanted:
                frontier.append(node)
        for attr in graph.concepts[q].attributes:
            base, _ = onto.parse_type_token(attr.type)
            if base not in onto.SCALAR_BASES:
                frontier.append(graph.resolve(base, q.rsplit(".", 1)[0]))
    return sorted(wanted, key=lambda q: (len(graph.root_path(q)), q))


# -- script assembly -----------------------------------------------------------------

PRELUDE = '''\
from __future__ import annotations

import inspect as _inspect
from typing import List

text = str
number = float
date = str


class _Base:
    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        declared = cls.__dict__.get("__init__")
        if declared is None:
            return
        names = [p for p in _inspect.signature(declared).parameters if p != "self"]

        def __init__(self, **slots):
            for _name in names:
                setattr(self, _name, None)
            for _key, _value in slots.items():
                setattr(self, _key, _value)

        cls.__init__ = __init__

    def __repr__(self):
        return f"{type(self).__name__}({vars(self)!r})"


class Entity(_Base):
    def __init__(self, name: text): ...


class Event(_Base):
    def __init__(self, trigger: text): ...
'''

_NETWORK_GUARD = '''\
import socket as _socket


def _network_disabled(*args, **kwargs):
    raise OSError("network access is disabled in the analysis sandbox")


_socket.socket = _network_disabled
_socket.create_connection = _network_disabled
_socket.socketpair = _network_disabled
'''


def assemble_script(
    class_codes: list[str],
    objects: list[KnowledgeObject],
    analysis_code: str,
    graph: onto.OntologyGraph,
    resolve_external=None,
) -> str:
    """Prelude, class definitions, instance declarations, analysis code."""
    if "search_results" not in analysis_code:
        raise RejectedCode("analysis code never references search_results")
    declarations = ks.render_declaration_code(objects, graph, resolve_external)
    parts = [PRELUDE.rstrip("\n")]
    parts.extend(code.rstrip("\n") for code in class_codes)
    parts.append(declarations)
    parts.append(analysis_code.rstrip("\n"))
    return "\n\n".join(parts) + "\n"


# -- sandboxed execution ----------------------------------------------------------------


@dataclass
class ExecutionResult:
    exit_status: str  # "ok" | "error" | "timeout"
    stdout: str
    stderr: str
    produced_files: list[tuple[str, str]] = field(default_factory=list)


_KIND_BY_SUFFIX = {
    ".png": "chart", ".jpg": "chart", ".jpeg": "chart", ".svg": "chart", ".gif": "chart",
    ".csv": "table", ".tsv": "table",
}


def _guess_kind(path: str) -> str:
    return _KIND_BY_SUFFIX.get(Path(path).suffix.lower(), "data")


def _truncate(data: bytes | None, cap: int) -> str:
    if not data:
        return ""
    if len(data) <= cap:
        return data.decode("utf-8", "replace")
    return data[:cap].decode("utf-8", "replace") + "\n[output truncated]"


def _mask_workdir(data: bytes, root: Path) -> bytes:
    """Write the workdir as "." so output, and the feedback prompts built from
    it, do not depend on where the run directory sits."""
    # longest first: one form can contain the other
    for prefix in sorted({str(root.resolve()), str(root)}, key=len, reverse=True):
        data = data.replace(prefix.encode(), b".")
    return data


def _with_guard(script: str) -> str:
    if script.startswith("from __future__"):
        head, _, rest = script.partition("\n")
        return f"{head}\n\n{_NETWORK_GUARD}\n{rest}"
    return f"{_NETWORK_GUARD}\n{script}"


# The sandbox server: one warm `python -I` per kdr process. For each request
# it forks a waiter, and the waiter forks the runner that executes the script
# as `python -I script.py` would. Fork only happens here, in a process that
# never starts a thread.
_SERVER_SOURCE = r'''
import atexit, builtins, gc, json, os, select, signal, socket, sys, types
import __future__, inspect, typing  # what PRELUDE and the network guard import, loaded once


def run(path):
    """The runner: execute path as __main__ and leave by SystemExit, so the
    interpreter shuts down as after a script (threads joined, atexit run)."""
    main = types.ModuleType("__main__")
    main.__file__ = path
    main.__builtins__ = builtins
    main.__cached__ = None
    sys.modules["__main__"] = main
    sys.argv = [path]
    atexit.register(main.__dict__.clear)  # runs last, so module-level __del__ still prints
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    # the script gets the headroom it has at top level; the call to exec counts too
    sys.setrecursionlimit(sys.getrecursionlimit() + depth + 1)
    try:
        with open(path, "rb") as handle:
            code = compile(handle.read(), path, "exec", dont_inherit=True)
        exec(code, main.__dict__)
    except SystemExit:
        raise
    except BaseException as exc:
        tb = exc.__traceback__.tb_next  # cut this frame; the C hook reads __traceback__
        sys.excepthook(type(exc), exc.with_traceback(tb), tb)
        raise SystemExit(1)
    raise SystemExit


def supervise(path, workdir, wall_seconds, out, err, status):
    """The waiter: fork the runner, kill it at the wall-clock limit, report."""
    signal.signal(signal.SIGCHLD, signal.SIG_DFL)
    pid = os.fork()
    if pid == 0:  # stdin stays the server's /dev/null
        os.dup2(out, 1)
        os.dup2(err, 2)
        os.closerange(3, os.sysconf("SC_OPEN_MAX"))
        os.chdir(workdir)
        run(path)
    try:
        os.close(out)
        os.close(err)
        exited = select.select([os.pidfd_open(pid)], [], [], wall_seconds)[0]
        if not exited:
            os.kill(pid, signal.SIGKILL)
        _, code = os.waitpid(pid, 0)
        os.write(status, json.dumps([not exited, os.waitstatus_to_exitcode(code)]).encode())
    finally:
        os._exit(0)


def serve(control):
    signal.signal(signal.SIGCHLD, signal.SIG_IGN)  # the kernel reaps the waiters
    while True:
        message, fds, _, _ = socket.recv_fds(control, 1 << 16, 3)
        if not message:  # the kdr process closed its end
            return
        gc.freeze()  # keep the collector off the shared pages in the children
        if os.fork() == 0:
            control.close()
            supervise(*json.loads(message), *fds)
        for fd in fds:
            os.close(fd)


serve(socket.socket(fileno=int(sys.argv[1])))
'''


def _drain(fds: list[int]) -> list[bytes]:
    """Read stdout, stderr and status to EOF. When the status pipe closes the
    runner is gone; output a grandchild it left behind may still write is not
    waited for."""
    import selectors

    chunks: dict[int, list[bytes]] = {fd: [] for fd in fds}
    timeout = None
    with selectors.DefaultSelector() as selector:
        for fd in fds:
            selector.register(fd, selectors.EVENT_READ)
        while selector.get_map():
            ready = selector.select(timeout)
            if not ready:
                break
            for key, _ in ready:
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    selector.unregister(key.fd)
                    if key.fd == fds[2]:
                        timeout = 0
    return [b"".join(chunks[fd]) for fd in fds]


class _SandboxServer:
    """The kdr side of the sandbox server: started on first use, restarted if
    it died, ended when its control socket closes."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._proc: subprocess.Popen | None = None
        self._control = None

    def _start(self) -> None:
        import socket

        self.close()
        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with theirs:
            try:
                self._proc = subprocess.Popen(
                    [sys.executable, "-I", "-c", _SERVER_SOURCE, str(theirs.fileno())],
                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL, pass_fds=[theirs.fileno()])
            except OSError as exc:
                ours.close()
                raise SandboxUnavailable(f"cannot launch interpreter: {exc}") from exc
        self._control = ours

    def close(self) -> None:
        if self._control is not None:
            self._control.close()
            self._control = None
        if self._proc is not None:
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
            self._proc = None

    def _run_once(self, request: bytes, restart: bool) -> tuple[list, bytes, bytes] | None:
        import socket

        reads, writes = zip(*(os.pipe() for _ in range(3)))
        try:
            try:
                with self._lock:
                    if restart or self._proc is None or self._proc.poll() is not None:
                        self._start()
                    socket.send_fds(self._control, [request], list(writes))
            except OSError:  # the server died after the check
                return None
            finally:
                for fd in writes:
                    os.close(fd)
            stdout, stderr, status = _drain(list(reads))
        finally:
            for fd in reads:
                os.close(fd)
        return (json.loads(status), stdout, stderr) if status else None

    def run(self, path: str, workdir: str, wall_seconds: float) -> tuple[list, bytes, bytes]:
        """([timed out, exit code], stdout, stderr) of one script."""
        request = json.dumps([path, workdir, wall_seconds]).encode()
        for restart in (False, True):
            outcome = self._run_once(request, restart)
            if outcome is not None:
                return outcome
        raise SandboxUnavailable("the sandbox server ended before reporting a result")


_SANDBOX = _SandboxServer()
atexit.register(_SANDBOX.close)


def execute_script(
    script: str,
    workdir: str,
    wall_seconds: float = 30.0,
    output_bytes: int = 64 * 1024,
) -> ExecutionResult:
    """Run the script in a child forked from a warm isolated interpreter.

    One `python -I` sandbox server per kdr process starts on the first call
    (and again if it died); it forks a fresh child per script, which runs it
    as `python -I script.py` would: as `__main__`, with the workdir as its
    working directory and stdin on /dev/null. The child is killed at the
    wall-clock limit. Children share the server's string-hash seed and the
    environment it started with; `random` reseeds at fork. The child gets a
    network-disabling shim, which is a courtesy guard against accidental
    calls, not a security boundary. The workdir's path reads as "." in the
    output. New files under the workdir are cataloged with a kind guess.
    """
    root = Path(workdir).absolute()  # the child runs inside it, so relative paths would break
    root.mkdir(parents=True, exist_ok=True)
    script_path = root / "script.py"
    script_path.write_text(_with_guard(script), encoding="utf-8")
    before = {p for p in root.rglob("*") if p.is_file()}

    (timed_out, exit_code), stdout, stderr = _SANDBOX.run(
        str(script_path), str(root), wall_seconds)
    if timed_out:
        status = "timeout"
        stderr += f"\nwall-clock limit of {wall_seconds}s reached".encode()
    else:
        status = "ok" if exit_code == 0 else "error"

    produced = []
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p not in before):
        rel = str(path.relative_to(root))
        produced.append((rel, _guess_kind(rel)))
    return ExecutionResult(
        exit_status=status,
        stdout=_truncate(_mask_workdir(stdout, root), output_bytes),
        stderr=_truncate(_mask_workdir(stderr, root), output_bytes),
        produced_files=produced,
    )


# -- cycle steps ---------------------------------------------------------------------------


def generate_analysis_code(
    query: str,
    class_codes: list[str],
    feedback: str | None,
    gateway: LlmGateway,
) -> str:
    """Ask for a script against the class definitions; enforce the contract."""
    if not class_codes:
        raise NoConceptFound("no class definitions to generate against")
    feedback_block = ""
    if feedback:
        feedback_block = f"\nFeedback from the previous attempt:\n{feedback}\n"
    prompt = templates.CODE_GENERATION_PROMPT.format(
        class_code="\n\n".join(class_codes),
        query=query,
        feedback=feedback_block,
    )
    response = gateway.ask(prompt, tag="codegen")
    code = strip_code_fence(response).strip("\n")
    if "search_results" not in code:
        raise RejectedCode("generated code never references search_results")
    return code


def instance_query(
    query: str,
    store: KnowledgeStore,
    graph: onto.OntologyGraph,
    gateway: LlmGateway,
    hops: int = 2,
) -> list[KnowledgeObject]:
    """Topic entities from the model, then name lookup, then the neighborhood."""
    response = gateway.ask(templates.TOPIC_ENTITY_PROMPT.format(query=query), tag="topic-ner")
    names = []
    for line in response.splitlines():
        name = line.strip().lstrip("-*0123456789. \t")
        if name:
            names.append(name)
    if not names:
        raise NoTopicEntity(f"model produced no topic entities for {query!r}")
    seed_ids: list[str] = []
    for name in names:
        hits = store.query_by_name(name)
        if not hits:
            hits = store.query_by_name(name, fuzzy=True)[:1]
        for obj in hits:
            if obj.id not in seed_ids:
                seed_ids.append(obj.id)
    if not seed_ids:
        raise NoInstancesFound(f"no stored instances match topic entities {names!r}")
    return store.subgraph(seed_ids, hops=hops)


def evaluate_result(
    query: str, result: ExecutionResult, gateway: LlmGateway
) -> tuple[str, str]:
    """PASS/FAIL verdict; broken executions fail without spending a model call."""
    if result.exit_status != "ok":
        feedback = result.stderr.strip() or f"execution ended with {result.exit_status}"
        return "fail", feedback
    files = "\n".join(f"{path} ({kind})" for path, kind in result.produced_files) or "none"
    prompt = templates.RESULT_EVALUATION_PROMPT.format(
        query=query, stdout=result.stdout, files=files
    )
    response = gateway.ask(prompt, tag="evaluate")
    m = re.match(r"\s*([A-Za-z]+)", response)
    token = m.group(1).upper() if m else ""
    remainder = response[m.end():].lstrip(" :.-") if m else response
    if token == "PASS":
        return "pass", remainder.strip()
    if token == "FAIL":
        return "fail", remainder.strip()
    return "fail", f"unparseable verdict; raw response: {response.strip()}"


# -- the computation cycle ---------------------------------------------------------------------


@dataclass
class CycleConfig:
    max_iterations: int = 3
    hops: int = 2
    wall_seconds: float = 30.0
    output_bytes: int = 64 * 1024
    search_limit: int = 5


@dataclass
class IterationRecord:
    concepts: list[str]
    code: str
    instance_count: int
    execution: ExecutionResult | None
    verdict: str
    feedback: str


@dataclass
class ComputationTrace:
    query: str
    iterations: list[IterationRecord] = field(default_factory=list)
    final_status: str = "failed"  # "passed" | "exhausted" | "failed"
    artifacts: list[str] = field(default_factory=list)
    reason: str = ""

    def to_json(self) -> dict:
        return asdict(self)


def run_computation_cycle(
    query: str,
    graph: onto.OntologyGraph,
    store: KnowledgeStore,
    gateway: LlmGateway,
    cfg: CycleConfig | None = None,
    workdir: str | None = None,
    trace_path: str | None = None,
    objects_override: list[KnowledgeObject] | None = None,
    concepts_override: list[str] | None = None,
) -> ComputationTrace:
    """Search, generate, query, execute, evaluate; retry until pass or budget.

    Evaluator feedback feeds only the next code generation. A caller may pin
    the instances with objects_override (skipping the topic-entity query) and
    the relevant concepts with concepts_override (skipping ontology search),
    which is how question-answering over a prepared subgraph drives the cycle.
    """
    cfg = cfg or CycleConfig()
    base = Path(workdir) if workdir else Path(tempfile.mkdtemp(prefix="kdr-cycle-"))
    trace = ComputationTrace(query=query)
    feedback: str | None = None

    def finish(status: str, reason: str = "") -> ComputationTrace:
        trace.final_status = status
        trace.reason = reason
        if trace_path:
            Path(trace_path).parent.mkdir(parents=True, exist_ok=True)
            Path(trace_path).write_text(
                json.dumps(trace.to_json(), indent=2, ensure_ascii=False), encoding="utf-8"
            )
        return trace

    # neither the graph nor the query changes between iterations
    if concepts_override is not None:
        hit_names = [graph.resolve(n) for n in concepts_override]
        hit_codes = [onto.render_class_code(graph, q) for q in hit_names]
    else:
        try:
            hits = ontology_search(query, graph, cfg.search_limit)
        except NoConceptFound as exc:
            return finish("failed", str(exc))
        hit_names = [c.qualified for c, _ in hits]
        hit_codes = [code for _, code in hits]

    for iteration in range(1, cfg.max_iterations + 1):
        try:
            code = generate_analysis_code(query, hit_codes, feedback, gateway)
        except RejectedCode as exc:
            trace.iterations.append(IterationRecord(
                hit_names, "", 0, None, "fail", str(exc)
            ))
            feedback = str(exc)
            continue

        if objects_override is not None:
            objects = list(objects_override)
        else:
            try:
                objects = instance_query(query, store, graph, gateway, cfg.hops)
            except (NoTopicEntity, NoInstancesFound) as exc:
                trace.iterations.append(IterationRecord(
                    hit_names, code, 0, None, "fail", str(exc)
                ))
                return finish("failed", str(exc))

        closure = class_closure(graph, hit_names + [o.concept for o in objects])
        class_codes = [onto.render_class_code(graph, q) for q in closure]

        def resolve(ref_id: str):
            return store.objects[ref_id].display_name if ref_id in store.objects else None

        script = assemble_script(class_codes, objects, code, graph, resolve)
        iter_dir = base / f"iter{iteration}"
        result = execute_script(script, str(iter_dir), cfg.wall_seconds, cfg.output_bytes)
        verdict, verdict_feedback = evaluate_result(query, result, gateway)

        trace.iterations.append(IterationRecord(
            hit_names, code, len(objects), result, verdict, verdict_feedback
        ))
        trace.artifacts.extend(str(iter_dir / rel) for rel, _ in result.produced_files)
        if verdict == "pass":
            return finish("passed")
        feedback = verdict_feedback

    return finish("exhausted", "iteration budget spent without a passing result")


# -- the text cycle ------------------------------------------------------------------------------


@dataclass
class TextCycleResult:
    text: str
    sources: list[tuple[str, str]] = field(default_factory=list)
    sufficient: bool = False
    rounds: int = 0
    note: str = ""


def run_text_cycle(
    query: str,
    search_backend,
    gateway: LlmGateway,
    max_rounds: int = 3,
    limit: int = 3,
) -> TextCycleResult:
    """Search, summarize, draft, and check sufficiency, up to max_rounds."""
    from .errors import EmptyCorpus  # local import keeps module deps one-way

    summaries: dict[str, tuple[str, str]] = {}
    result = TextCycleResult(text="")
    search_query = query
    for round_number in range(1, max_rounds + 1):
        result.rounds = round_number
        try:
            hits = search_backend.search(search_query, limit=limit)
        except EmptyCorpus as exc:
            result.note = str(exc)
            return result
        for hit in hits:
            if hit.url in summaries:
                continue
            summary = gateway.ask(
                templates.SUMMARIZE_PROMPT.format(query=query, url=hit.url, body=hit.body),
                tag="summarize",
            )
            summaries[hit.url] = (hit.title, summary)
            result.sources.append((hit.title, hit.url))

        numbered = "\n".join(
            f"[{i + 1}] {title}: {summary}"
            for i, (title, summary) in enumerate(summaries.values())
        ) or "none"
        result.text = gateway.ask(
            templates.DRAFT_PROMPT.format(query=query, summaries=numbered), tag="draft"
        )

        check = gateway.ask(
            templates.SUFFICIENCY_PROMPT.format(query=query, draft=result.text),
            tag="sufficiency",
        )
        m = re.match(r"\s*([A-Za-z]+)", check)
        if m and m.group(1).upper() == "PASS":
            result.sufficient = True
            return result
        missing = check[m.end():].strip(" :.-") if m else check
        search_query = f"{query} {missing}".strip()
    result.note = result.note or "round budget spent without a sufficient draft"
    return result


# -- merge and revise ----------------------------------------------------------------------------


def merge_and_revise(
    section_title: str,
    computed: list[str],
    drafted: str,
    gateway: LlmGateway,
) -> str:
    """Fold computed findings and drafted text into one body, computed-first."""
    if not computed and not drafted:
        raise ValueError("nothing to merge: no computed findings and no drafted text")
    if not computed:
        return drafted
    prompt = templates.MERGE_SECTION_PROMPT.format(
        title=section_title,
        computed="\n\n".join(computed),
        drafted=drafted or "none",
    )
    return gateway.ask(prompt, tag="merge")


def revise_report(section_bodies: list[str], gateway: LlmGateway) -> list[str]:
    """Global polish: each section is revised in view of the whole report."""
    full = "\n\n".join(section_bodies)
    revised = []
    for body in section_bodies:
        revised.append(gateway.ask(
            templates.REVISE_SECTION_PROMPT.format(report=full, section=body),
            tag="revise",
        ))
    return revised
