"""The analysis sandbox: scripts forked from one warm interpreter behave as
`python -I script.py` does, and the server behind them stays out of the way."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from kdr import reasoning as rs

SRC = str(Path(rs.__file__).resolve().parent.parent)


def run_plain(script: str, workdir: Path) -> tuple:
    """The reference: a fresh `python -I` per script, as the sandbox once ran."""
    root = workdir.absolute()
    root.mkdir(parents=True)
    path = root / "script.py"
    path.write_text(rs._with_guard(script), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-I", str(path)], cwd=root, capture_output=True,
                          stdin=subprocess.DEVNULL, timeout=30)
    produced = sorted((p.name, p.read_bytes()) for p in root.iterdir() if p != path)
    return (
        "ok" if proc.returncode == 0 else "error",
        rs._mask_workdir(proc.stdout, root).decode(),
        rs._mask_workdir(proc.stderr, root).decode(),
        produced,
    )


def run_sandboxed(script: str, workdir: Path) -> tuple:
    result = rs.execute_script(script, str(workdir))
    produced = sorted((name, (workdir / name).read_bytes()) for name, _ in result.produced_files)
    return result.exit_status, result.stdout, result.stderr, produced


PARITY = {
    "traceback": "def f():\n    raise ValueError('boom')\n\nf()\n",
    "explicit chain": (
        "try:\n    1 / 0\nexcept ZeroDivisionError as exc:\n"
        "    raise KeyError('k') from exc\n"),
    "implicit chain": "try:\n    {}['x']\nexcept KeyError:\n    int('z')\n",
    "syntax error": "print('never')\nx = (\n",
    "recursion": "def f():\n    f()\n\nf()\n",
    "exit with message": "import sys\nprint('before')\nsys.exit('msg')\n",
    "exit with code": "import sys\nsys.exit(3)\n",
    "atexit": "import atexit\natexit.register(print, 'bye')\nprint('hi')\n",
    "module-global __del__": (
        "class D:\n    def __del__(self):\n        print('deleted')\n\nd = D()\n"),
    "file never closed": "f = open('out.txt', 'w')\nf.write('data')\n",
    "non-daemon thread": (
        "import threading, time\n\n\ndef work():\n    time.sleep(0.2)\n"
        "    print('thread done')\n\n\nthreading.Thread(target=work).start()\n"
        "print('main done')\n"),
    "names": "import sys\nprint(__name__, __file__, sys.argv)\n",
    "open fds": "import os\nprint(sorted(os.listdir('/proc/self/fd')))\n",
}


@pytest.mark.parametrize("name", sorted(PARITY))
def test_sandbox_matches_a_fresh_interpreter(tmp_path, name):
    script = PARITY[name]
    expected = run_plain(script, tmp_path / "plain")
    assert run_sandboxed(script, tmp_path / "forked") == expected


def test_tracebacks_carry_no_server_frames(tmp_path):
    result = rs.execute_script("raise ValueError('boom')\n", str(tmp_path / "w"))
    assert result.stderr.startswith("Traceback (most recent call last):\n  File \"./script.py\"")
    assert "<string>" not in result.stderr


def test_children_fork_from_a_frozen_heap(tmp_path):
    # the server freezes its objects before forking, so the collector in a
    # child does not touch the pages it shares with the server
    result = rs.execute_script("import gc\nprint(gc.get_freeze_count() > 0)\n",
                               str(tmp_path / "w"))
    assert result.stdout == "True\n"


def test_stdin_reads_end_of_file_at_once(tmp_path):
    start = time.monotonic()
    result = rs.execute_script("input()\n", str(tmp_path / "w"))
    assert time.monotonic() - start < 10
    assert result.exit_status == "error"
    assert result.stderr.rstrip().endswith("EOFError: EOF when reading a line")


def test_concurrent_calls_each_get_their_own_output(tmp_path):
    results: dict[int, rs.ExecutionResult] = {}

    def call(i: int) -> None:
        script = f"for _ in range(2000):\n    print('worker {i}')\nopen('w{i}.txt', 'w')\n"
        results[i] = rs.execute_script(script, str(tmp_path / f"w{i}"))

    threads = [threading.Thread(target=call, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for i in range(8):
        assert results[i].exit_status == "ok"
        assert results[i].stdout == f"worker {i}\n" * 2000
        assert results[i].produced_files == [(f"w{i}.txt", "data")]


def test_a_killed_server_is_replaced(tmp_path):
    rs.execute_script("print(1)\n", str(tmp_path / "a"))
    server = rs._SANDBOX._proc
    server.kill()
    result = rs.execute_script("print(2)\n", str(tmp_path / "b"))
    assert result.exit_status == "ok" and result.stdout == "2\n"
    assert server.poll() is not None
    assert rs._SANDBOX._proc.pid != server.pid


def _gone_or_zombie(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


@pytest.mark.parametrize("ending", ["sys.exit(0)", "os._exit(0)"])
def test_no_process_outlives_its_caller(tmp_path, ending):
    # the caller prints the server's pid, then exits with or without atexit
    caller = (
        f"import os, sys\nsys.path.insert(0, {SRC!r})\n"
        "from kdr import reasoning as rs\n"
        f"result = rs.execute_script('print(7)', {str(tmp_path / 'w')!r})\n"
        "print(rs._SANDBOX._proc.pid, result.stdout.strip(), flush=True)\n"
        f"{ending}\n")
    proc = subprocess.Popen([sys.executable, "-c", caller], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        pytest.fail("the caller's output stayed open after it exited")
    pid, seven = stdout.split()
    assert seven == "7", stderr
    deadline = time.monotonic() + 5
    while not _gone_or_zombie(int(pid)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _gone_or_zombie(int(pid))
