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
import math
import os
import re
import signal
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
    EmptyCorpus,
    EmptyQuery,
    NoConceptFound,
    NoInstancesFound,
    NoTopicEntity,
    RejectedCode,
    SandboxUnavailable,
    SchemaViolation,
    UnbalancedTags,
)
from .extraction import strip_code_fence
from .files import check_keys, write_file, write_json
from .knowledge_store import KnowledgeObject, KnowledgeStore
from .llm_gateway import LlmGateway
from .textindex import InvertedIndex, tokenize

log = logging.getLogger(__name__)

# -- run limits -------------------------------------------------------------------


@dataclass(frozen=True)
class Limits:
    """The config's `limits` section: the computation cycle's budgets, the
    text cycle's rounds and hits, and `workers`. Organize and taxonomy
    overlap `workers` jobs (extraction jobs or taxonomy leaves) of one call
    at a time each; research starts every request at once and holds at most
    `workers` chat calls and `workers` analysis cycles in flight.

    Each field's metadata holds the smallest integer it takes; a minimum of
    None takes any number above 0. Frozen, so one default instance can be
    every function's default.
    """

    max_iterations: int = field(default=3, metadata={"minimum": 1})
    hops: int = field(default=2, metadata={"minimum": 0})
    wall_seconds: float = field(default=30.0, metadata={"minimum": None})
    output_bytes: int = field(default=64 * 1024, metadata={"minimum": 1})
    search_limit: int = field(default=5, metadata={"minimum": 1})
    max_rounds: int = field(default=3, metadata={"minimum": 1})
    search_hits: int = field(default=3, metadata={"minimum": 1})
    workers: int = field(default=8, metadata={"minimum": 1})

    @classmethod
    def from_config(cls, config: dict) -> Limits:
        """The config's limits, each checked for type and range before any model call."""
        fields = cls.__dataclass_fields__
        limits = check_keys(config.get("limits", {}), "limits", allowed=fields)
        for key, value in limits.items():
            low = fields[key].metadata["minimum"]
            if low is None:
                ok, wanted = isinstance(value, (int, float)) and 0 < value < math.inf, "a number > 0"
            else:
                ok, wanted = isinstance(value, int) and value >= low, f"an integer >= {low}"
            if isinstance(value, bool) or not ok:
                raise SchemaViolation(f"limits.{key} must be {wanted}, got {value!r}")
        return cls(**limits)


def ordered_map(fn, items: list, workers: int) -> list:
    """[fn(item) for item in items], overlapped on a bounded thread pool.

    Results come back in item order whatever order the calls finish in. With
    workers <= 1 or at most one item it is a plain loop. If a call raises,
    calls not yet started are cancelled and the first error in item order
    propagates once the running ones finish. This is the one place kdr starts
    threads, so a `contextvars` value every thread must see, such as a span
    recorder's parent span, needs copying here alone.
    """
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor  # lazy: `import kdr.cli` stays lean

    pool = ThreadPoolExecutor(max_workers=min(workers, len(items)))
    try:
        return list(pool.map(fn, items))
    finally:
        pool.shutdown(cancel_futures=True)


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


def _concept_index(graph: onto.OntologyGraph) -> InvertedIndex:
    index = InvertedIndex()
    for q, concept in graph.concepts.items():
        index.add(q, " ".join([concept.name, concept.description]
                              + [a.name for a in concept.attributes]))
    return index


def ontology_search(
    query: str, graph: onto.OntologyGraph, limit: int = Limits.search_limit
) -> list[tuple[onto.Concept, str]]:
    """Full-text match over concept names, descriptions, and attribute names."""
    if not tokenize(query):
        raise NoConceptFound(f"query {query!r} has no searchable tokens")
    ranked = graph.view(_concept_index).search(query, limit=limit)
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
        frontier.extend(target for _, target in graph.targets(q))
    return sorted(wanted, key=lambda q: (len(graph.root_path(q)), q))


# -- script assembly -----------------------------------------------------------------

PRELUDE = '''\
from __future__ import annotations

from types import FunctionType as _FunctionType
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
        if (type(declared) is _FunctionType and not hasattr(declared, "__wrapped__")
                and not hasattr(declared, "__signature__")):
            # co_varnames holds positional, keyword-only, *args, **kwargs (flags 0x04, 0x08);
            # inspect orders them positional, *args, keyword-only, **kwargs
            code = declared.__code__
            n, k, v = code.co_argcount, code.co_kwonlyargcount, code.co_varnames
            star = n + k + bool(code.co_flags & 0x04)
            names = v[:n] + v[n + k:star] + v[n:n + k] + v[star:star + bool(code.co_flags & 0x08)]
        else:
            from inspect import signature
            names = signature(declared).parameters
        names = [p for p in names if p != "self"]

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
# it forks one runner, which executes the script as `python -I script.py`
# would, writing to the caller's memory files. The server polls its control
# socket and the runners' pidfds: it kills a runner at its wall-clock limit,
# reaps it and reports, and kills the runners left when the socket closes.
# The interpreter ends the runner as it ends a script up to its atexit
# handlers; the runner's last handler then frees what teardown would free
# while output still works and leaves by os._exit, so the interpreter is
# never torn down. Fork only happens here, in a process that never starts a
# thread.
_SERVER_SOURCE = r'''
import atexit, builtins, gc, json, operator, os, select, signal, socket, sys, time, types
import __future__, typing  # what PRELUDE and the network guard import, loaded once

MISSING = object()


def exit_code(status):
    """What the interpreter exits with for SystemExit(status)."""
    if status is None:
        return 0
    return status & 0xFF if isinstance(status, int) else 1


def release(loaded):
    """Free what teardown frees while stdout still works: what the script
    bound on the modules loaded before it, then the modules it imported,
    the latest first, with each module's `_`-names set to None before the
    rest. sys is left alone: teardown wipes it after stdout is gone."""
    for module, saved in loaded.values():
        namespace = vars(module)
        # values first: iterating the items would also write to every name's refcount,
        # and each write to a page shared with the server copies that page
        if len(namespace) == len(saved) and all(map(operator.is_, namespace.values(),
                                                    saved.values())):
            continue
        for name in [n for n, value in namespace.items() if saved.get(n, MISSING) is not value]:
            if name in saved:
                namespace[name] = saved[name]
            else:
                namespace.pop(name, None)
    imported = [module for name, module in sys.modules.items()
                if name not in loaded and name not in ("sys", "__main__")
                and isinstance(module, types.ModuleType)]
    for module in reversed(imported):
        namespace = vars(module)
        names = [name for name in namespace if isinstance(name, str)]
        for name in [n for n in names if n[:1] == "_" and n[1:2] != "_"] + names:
            if name != "__builtins__" and namespace.get(name) is not None:
                namespace[name] = None


def run(loaded, path, workdir, out, err):
    """The runner: execute path as __main__ and leave by SystemExit, so the
    interpreter ends it as after a script: the exit message printed, threads
    joined, atexit run (the script's __main__ cleared last). Its first atexit
    handler, the last to run, ends the process before teardown."""
    code = 1

    def end():
        try:
            release(loaded)
            gc.collect()
            for stream in (sys.stdout, sys.stderr, sys.__stdout__, sys.__stderr__):
                try:
                    stream.flush()
                except Exception:  # None or closed: the interpreter skips it too
                    pass
        finally:
            os._exit(code)

    atexit.register(end)
    os.dup2(out, 1)  # stdin stays the server's /dev/null
    os.dup2(err, 2)
    os.closerange(3, os.sysconf("SC_OPEN_MAX"))
    os.chdir(workdir)
    main = types.ModuleType("__main__")
    main.__file__ = path
    main.__builtins__ = builtins
    main.__cached__ = None
    sys.modules["__main__"] = main
    sys.argv = [path]
    atexit.register(main.__dict__.clear)  # runs next to last, so module-level __del__ still prints
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    # the script gets the headroom it has at top level; before 3.12 the call
    # to exec is a counted frame too, from 3.12 on only Python frames count
    sys.setrecursionlimit(sys.getrecursionlimit() + depth + (sys.version_info < (3, 12)))
    try:
        with open(path, "rb") as handle:
            script = compile(handle.read(), path, "exec", dont_inherit=True)
        exec(script, main.__dict__)
    except SystemExit as exc:
        code = exit_code(exc.code)
        raise
    except BaseException as exc:
        tb = exc.__traceback__.tb_next  # cut this frame; the C hook reads __traceback__
        sys.excepthook(type(exc), exc.with_traceback(tb), tb)
        raise SystemExit(1)
    code = 0
    raise SystemExit


def serve(control):
    # every module's names as the scripts find them, sys and the server aside
    loaded = {name: (module, dict(vars(module))) for name, module in sys.modules.items()
              if name not in ("sys", "__main__") and isinstance(module, types.ModuleType)}
    poller = select.poll()
    poller.register(control, select.POLLIN)
    runners = {}  # pidfd -> [pid, status fd, deadline, timed out]
    while True:
        now = time.monotonic()
        for runner in runners.values():
            if not runner[3] and runner[2] <= now:  # the wall-clock limit
                os.kill(runner[0], signal.SIGKILL)
                runner[3] = True
        deadlines = [runner[2] for runner in runners.values() if not runner[3]]
        timeout = (min(deadlines) - now) * 1000 if deadlines else None
        for fd, _ in poller.poll(timeout):
            if fd in runners:  # a runner ended: reap it, then report
                pid, status, _, timed_out = runners.pop(fd)
                poller.unregister(fd)
                os.close(fd)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                try:
                    os.write(status, json.dumps([timed_out, code]).encode())
                except OSError:  # the caller is gone
                    pass
                os.close(status)
                continue
            message, fds, _, _ = socket.recv_fds(control, 1 << 16, 3)
            if not message:  # the kdr process closed its end: end what it left running
                for pid, *_ in runners.values():
                    os.kill(pid, signal.SIGKILL)
                return
            path, workdir, wall_seconds = json.loads(message)
            out, err, status = fds
            gc.freeze()  # keep the collector off the shared pages in the runner
            pid = os.fork()
            if pid == 0:
                control.close()
                run(loaded, path, workdir, out, err)
            os.close(out)
            os.close(err)
            pidfd = os.pidfd_open(pid)
            poller.register(pidfd, select.POLLIN)
            runners[pidfd] = [pid, status, time.monotonic() + wall_seconds, False]


serve(socket.socket(fileno=int(sys.argv[1])))
'''


class _SandboxServer:
    """The kdr side of the sandbox server: started by `start` or on first use,
    restarted if it died. The server leads a process group that its runners
    join, so ending the group also ends what a dead server left running."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._proc: subprocess.Popen | None = None
        self._control = None

    def start(self) -> None:
        """Launch the server unless it is running; returns before it has booted."""
        with self._lock:
            self._start()

    def _start(self, failed: subprocess.Popen | None = None) -> None:
        """Launch the server unless one is running that is not `failed`; the
        caller holds the lock."""
        import socket

        # waitid leaves a dead server unreaped, so its pid still names its group for close
        if self._proc not in (None, failed) and self._proc.returncode is None and os.waitid(
                os.P_PID, self._proc.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
            return
        self.close()
        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with theirs:
            try:
                self._proc = subprocess.Popen(
                    [sys.executable, "-I", "-c", _SERVER_SOURCE, str(theirs.fileno())],
                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL, pass_fds=[theirs.fileno()], start_new_session=True)
            except OSError as exc:
                ours.close()
                raise SandboxUnavailable(f"cannot launch interpreter: {exc}") from exc
        self._control = ours

    def close(self) -> None:
        """End the server and every runner in its group."""
        if self._control is not None:
            self._control.close()
            self._control = None
        if self._proc is not None:
            if self._proc.returncode is None:  # not reaped, so its pid still names its group
                os.killpg(self._proc.pid, signal.SIGKILL)
            self._proc.wait()
            self._proc = None

    def run(self, path: str, workdir: str, wall_seconds: float) -> tuple[list, bytes, bytes]:
        """([timed out, exit code], stdout, stderr) of one script. If its server
        dies first, the script runs once more, on a new server unless another
        call has launched one already."""
        import socket

        request = json.dumps([path, workdir, wall_seconds]).encode()
        failed = None
        for _ in range(2):
            out, err = os.memfd_create("stdout"), os.memfd_create("stderr")
            read, write = os.pipe()
            try:
                with self._lock:
                    try:
                        self._start(failed)
                        failed = self._proc
                        socket.send_fds(self._control, [request], [out, err, write])
                    except OSError:  # the server died after the check
                        continue
                    finally:
                        os.close(write)
                status = os.read(read, 64)  # b"" if the server died before reporting
                if status:
                    # the runner is gone; output a process it left behind writes later is not read
                    return (json.loads(status), *(os.pread(fd, os.fstat(fd).st_size, 0)
                                                  for fd in (out, err)))
            finally:
                for fd in (out, err, read):
                    os.close(fd)
        raise SandboxUnavailable("the sandbox server ended before reporting a result")


def _file_stamps(root: Path) -> dict[Path, tuple[int, int]]:
    stats = {path: path.stat() for path in root.rglob("*") if path.is_file()}
    return {path: (stat.st_size, stat.st_mtime_ns) for path, stat in stats.items()}


_SANDBOX = _SandboxServer()
atexit.register(_SANDBOX.close)


def start_sandbox() -> None:
    """Launch the sandbox server unless it is running, without waiting for it:
    a caller that knows scripts will follow lets the server's interpreter
    boot while its model calls are out."""
    _SANDBOX.start()


def execute_script(
    script: str,
    workdir: str,
    wall_seconds: float = Limits.wall_seconds,
    output_bytes: int = Limits.output_bytes,
) -> ExecutionResult:
    """Run the script in a child forked from a warm isolated interpreter.

    One `python -I` sandbox server per kdr process starts on the first call,
    unless `start_sandbox` started it earlier (`run_research` does, after
    its plan call, when an analysis request is left to run), and again if it
    died. Each script is one process, forked by the server, which runs it as
    `python -I script.py` would: as `__main__`, with the workdir as its
    working directory, stdin on /dev/null and output to memory files. The
    child ends as the interpreter ends a script (exit message, threads
    joined, atexit run, what teardown would free freed while output still
    works), then exits without tearing the interpreter down. The server
    kills it at the wall-clock limit or when the kdr process ends; if the
    server dies first, kdr kills it before the script runs again. Linux
    `pidfd_open` and `memfd_create` are required. Children share the
    server's string-hash seed and the environment it started with; `random`
    reseeds at fork. The child gets a network-disabling shim, which is a
    courtesy guard against accidental calls, not a security boundary. The
    workdir's path reads as "." in the output. New or rewritten files under
    the workdir (by size and modification time) are cataloged with a kind
    guess.
    """
    root = Path(workdir).absolute()  # the child runs inside it, so relative paths would break
    script_path = root / "script.py"
    write_file(script_path, _with_guard(script))
    before = _file_stamps(root)

    (timed_out, exit_code), stdout, stderr = _SANDBOX.run(
        str(script_path), str(root), wall_seconds)
    if timed_out:
        status = "timeout"
        stderr += f"\nwall-clock limit of {wall_seconds}s reached".encode()
    else:
        status = "ok" if exit_code == 0 else "error"

    produced = []
    for path, stamp in sorted(_file_stamps(root).items()):
        if before.get(path) != stamp:
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
    response = gateway.chat(prompt, tag="codegen")
    code = strip_code_fence(response).strip("\n")
    if "search_results" not in code:
        raise RejectedCode("generated code never references search_results")
    return code


_LIST_MARKER = re.compile(r"^(?:[-*]|\d+[.)])\s*")


def instance_query(
    query: str,
    store: KnowledgeStore,
    graph: onto.OntologyGraph,
    gateway: LlmGateway,
    hops: int = Limits.hops,
) -> list[KnowledgeObject]:
    """Topic entities from the model, then name lookup, then the neighborhood."""
    response = gateway.chat(templates.TOPIC_ENTITY_PROMPT.format(query=query), tag="topic-ner")
    names = []
    for line in response.splitlines():
        name = _LIST_MARKER.sub("", line.strip())
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


def build_lookups(graph: onto.OntologyGraph, store: KnowledgeStore) -> None:
    """Build the lookups every computation cycle reads, each through its
    owner's locked builder: the concept index `ontology_search` ranks, and
    the store's name and inbound-reference indexes `instance_query` reads.
    Otherwise the first cycle builds each one while the others wait on its
    lock. Research runs this and its plan call through `ordered_map`: side
    by side at more than one worker, right after the plan call at one. The
    token index stays lazy: only a name with no exact match reads it.
    """
    graph.view(_concept_index)
    store._view(store._names)
    store._view(store._inbound)


def read_verdict(reply: str) -> tuple[bool | None, str]:
    """A reply that puts PASS or FAIL first, then a sentence: (True or False,
    the sentence), or (None, the whole reply) when the first word is neither."""
    m = re.match(r"\s*([A-Za-z]+)", reply)
    word = m.group(1).upper() if m else ""
    if word not in ("PASS", "FAIL"):
        return None, reply.strip()
    return word == "PASS", reply[m.end():].lstrip(" :.-").strip()


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
    passed, sentence = read_verdict(gateway.chat(prompt, tag="evaluate"))
    if passed is None:
        return "fail", f"unparseable verdict; raw response: {sentence}"
    return ("pass" if passed else "fail"), sentence


# -- the computation cycle ---------------------------------------------------------------------


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
    artifacts: list[str] = field(default_factory=list)  # the passing iteration's files
    reason: str = ""

    def to_json(self) -> dict:
        return asdict(self)


def run_computation_cycle(
    query: str,
    graph: onto.OntologyGraph,
    store: KnowledgeStore,
    gateway: LlmGateway,
    limits: Limits = Limits(),
    workdir: str | None = None,
    trace_path: str | None = None,
    objects_override: list[KnowledgeObject] | None = None,
    concepts_override: list[str] | None = None,
) -> ComputationTrace:
    """Search and query once, then generate, execute, evaluate; retry until
    pass or budget.

    Evaluator feedback feeds only the next code generation. A caller may pin
    the instances with objects_override (skipping the topic-entity query) and
    the relevant concepts with concepts_override (skipping ontology search),
    which is how question-answering over a prepared subgraph drives the cycle.
    """
    base = Path(workdir) if workdir else Path(tempfile.mkdtemp(prefix="kdr-cycle-"))
    trace = ComputationTrace(query=query)
    feedback: str | None = None

    def finish(status: str, reason: str = "") -> ComputationTrace:
        trace.final_status = status
        trace.reason = reason
        if trace_path:
            write_json(trace_path, trace.to_json())
        return trace

    def resolve(ref_id: str):
        return store.objects[ref_id].display_name if ref_id in store.objects else None

    # neither the graph, the store nor the query changes between iterations
    if concepts_override is not None:
        hit_names = [graph.resolve(n) for n in concepts_override]
        hit_codes = [onto.render_class_code(graph, q) for q in hit_names]
    else:
        try:
            hits = ontology_search(query, graph, limits.search_limit)
        except NoConceptFound as exc:
            return finish("failed", str(exc))
        hit_names = [c.qualified for c, _ in hits]
        hit_codes = [code for _, code in hits]
    if objects_override is not None:
        objects = list(objects_override)
    else:
        try:
            objects = instance_query(query, store, graph, gateway, limits.hops)
        except (NoTopicEntity, NoInstancesFound) as exc:
            return finish("failed", str(exc))
    closure = class_closure(graph, hit_names + [o.concept for o in objects])
    class_codes = [onto.render_class_code(graph, q) for q in closure]

    for iteration in range(1, limits.max_iterations + 1):
        try:
            code = generate_analysis_code(query, hit_codes, feedback, gateway)
        except RejectedCode as exc:
            trace.iterations.append(IterationRecord(
                hit_names, "", 0, None, "fail", str(exc)
            ))
            feedback = str(exc)
            continue

        script = assemble_script(class_codes, objects, code, graph, resolve)
        iter_dir = base / f"iter{iteration}"
        result = execute_script(script, str(iter_dir), limits.wall_seconds, limits.output_bytes)
        verdict, verdict_feedback = evaluate_result(query, result, gateway)

        trace.iterations.append(IterationRecord(
            hit_names, code, len(objects), result, verdict, verdict_feedback
        ))
        if verdict == "pass":
            trace.artifacts = [str(iter_dir / rel) for rel, _ in result.produced_files]
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
    max_rounds: int = Limits.max_rounds,
    limit: int = Limits.search_hits,
    workers: int = 1,
) -> TextCycleResult:
    """Search, summarize, draft, and check sufficiency, up to max_rounds.

    A round summarizes each hit whose URL no earlier hit has brought, up to
    `workers` calls overlapping, and folds the summaries in hit order.
    """
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
        fresh = {}  # url -> its first hit this round
        for hit in hits:
            if hit.url not in summaries:
                fresh.setdefault(hit.url, hit)
        replies = ordered_map(lambda hit: gateway.chat(
            templates.SUMMARIZE_PROMPT.format(query=query, url=hit.url, body=hit.body),
            tag="summarize"), list(fresh.values()), workers)
        for hit, summary in zip(fresh.values(), replies):
            summaries[hit.url] = (hit.title, summary)
            result.sources.append((hit.title, hit.url))

        numbered = "\n".join(
            f"[{i + 1}] {title}: {summary}"
            for i, (title, summary) in enumerate(summaries.values())
        ) or "none"
        result.text = gateway.chat(
            templates.DRAFT_PROMPT.format(query=query, summaries=numbered), tag="draft"
        )

        check = gateway.chat(
            templates.SUFFICIENCY_PROMPT.format(query=query, draft=result.text),
            tag="sufficiency",
        )
        passed, missing = read_verdict(check)
        if passed:
            result.sufficient = True
            return result
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
    return gateway.chat(prompt, tag="merge")


def revise_report(section_bodies: list[str], gateway: LlmGateway,
                  workers: int = 1) -> list[str]:
    """Global polish: each section is revised in view of the whole report,
    up to `workers` calls overlapping."""
    full = "\n\n".join(section_bodies)
    return ordered_map(lambda body: gateway.chat(
        templates.REVISE_SECTION_PROMPT.format(report=full, section=body), tag="revise"),
        section_bodies, workers)
