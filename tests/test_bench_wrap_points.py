"""Every function the benchmark's tracer wraps still exists under its name.

kdrbench/tracing.py replaces kdr functions by name from outside the program;
renaming one would break only the traced bench run, so this test installs
the tracer with a stub that checks each name instead of wrapping it.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "kdrbench" / "tracing.py"


class NameChecker:
    def __init__(self):
        self.checked: list[str] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        assert hasattr(owner, attr), f"{owner!r} has no {attr!r}, which the bench wraps as {name}"
        self.checked.append(f"{getattr(owner, '__name__', owner)}.{attr}")


def test_every_name_the_bench_wraps_exists():
    spec = importlib.util.spec_from_file_location("kdrbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    checker = NameChecker()
    tracing.install(checker)
    assert {"LlmGateway.chat", "InvertedIndex.add", "InvertedIndex.search",
            "FixtureSearchBackend.__init__", "FixtureSearchBackend.search"} <= set(checker.checked)
