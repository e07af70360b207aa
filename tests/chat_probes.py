"""Chat backends that wrap another one to show how overlapped calls reach it."""

from __future__ import annotations

import threading
import time

from kdr.llm_gateway import ChatBackend


def prompt_of(messages) -> str:
    return "\n".join(m.content for m in messages)


class HoldFirst(ChatBackend):
    """Holds the first call of each group until a later call of the same group
    has returned, so overlapped calls reach the scripted mock out of issue order.
    A group is a tuple of prompt markers; `reordered` names the groups whose
    held call was overtaken (the hold gives up after `wait_s`)."""

    def __init__(self, inner, groups: dict, wait_s: float = 5.0):
        self.inner, self.groups, self.wait_s = inner, groups, wait_s
        self.reordered: set[str] = set()
        self._released: dict[str, threading.Event] = {}
        self._lock = threading.Lock()

    def complete(self, messages, config):
        prompt = prompt_of(messages)
        group = next((g for g, marks in self.groups.items()
                      if any(m in prompt for m in marks)), None)
        if group is None:
            return self.inner.complete(messages, config)
        with self._lock:
            first = group not in self._released
            released = self._released.setdefault(group, threading.Event())
        if first:
            if released.wait(self.wait_s):
                self.reordered.add(group)
            return self.inner.complete(messages, config)
        try:
            return self.inner.complete(messages, config)
        finally:
            released.set()


class InFlight(ChatBackend):
    """Sleeps in every call and records (prompt, start, end, calls in flight at
    its start), so overlapped calls show up in the spans."""

    def __init__(self, inner, delay_s: float = 0.03):
        self.inner, self.delay_s = inner, delay_s
        self.spans: list[tuple[str, float, float, int]] = []
        self._now = 0
        self._lock = threading.Lock()

    def complete(self, messages, config):
        with self._lock:
            self._now += 1
            start, in_flight = time.monotonic(), self._now
        try:
            time.sleep(self.delay_s)
            return self.inner.complete(messages, config)
        finally:
            with self._lock:
                self._now -= 1
                self.spans.append((prompt_of(messages), start, time.monotonic(), in_flight))
