"""Spans and counters recorded around the public functions of each layer.

The benchmark never edits the program: it swaps a module attribute for a
wrapper while a phase runs and puts the original back afterwards. A function
imported by name into other modules (``from .planner import solve``) is
swapped in every ``modelspace`` module that binds it, so calls through any
of those names are seen.
"""
from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    record: str | None


def union_length(intervals) -> float:
    """Total length covered by (start, end) intervals, overlaps counted once."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part of it covered by child spans.

    Children running in parallel threads may overlap each other; the time
    they cover together is counted once."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        clipped = [
            (max(a, s.start), min(b, s.end))
            for a, b in children.get(s.id, ())
            if min(b, s.end) > max(a, s.start)
        ]
        out[s.id] = (s.end - s.start) - union_length(clipped)
    return out


class Tracer:
    """Collects spans in memory. A span's parent is the innermost open span
    of its own thread; a span opened on a worker thread with nothing open
    takes the innermost open span of the thread that made the tracer, so
    records run by a thread pool hang under the call that started the pool."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """(id, name, record) of the innermost open span on this thread."""
        stack = self._stack()
        if stack:
            return stack[-1]
        if stack is not self._root_stack:
            try:
                return self._root_stack[-1]
            except IndexError:
                pass
        return None

    @contextmanager
    def span(self, name: str, record: str | None = None):
        parent = self.current()
        if record is None and parent is not None:
            record = parent[2]
        sid = next(self._ids)
        stack = self._stack()
        stack.append((sid, name, record))
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append(
                Span(sid, name, start, end, None if parent is None else parent[0], record)
            )

    def add(self, counter: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[counter] += value

    def maximum(self, counter: str, value: float) -> None:
        with self._lock:
            self.counters[counter] = max(self.counters[counter], value)


@contextmanager
def patched(module_name: str, attr: str, make_wrapper):
    """Replace `module_name.attr` by make_wrapper(original) in every loaded
    modelspace module that binds the same object; restore on exit. Yields
    False, and patches nothing, when the attribute does not exist."""
    module = importlib.import_module(module_name)
    original = getattr(module, attr, None)
    if original is None:
        yield False
        return
    wrapper = make_wrapper(original)
    sites = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "modelspace" or name.startswith("modelspace.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                sites.append((mod, key))
                setattr(mod, key, wrapper)
    try:
        yield True
    finally:
        for mod, key in sites:
            setattr(mod, key, original)


@contextmanager
def patched_method(cls, attr: str, make_wrapper):
    """Give `cls` its own `attr` wrapping the inherited one; remove it on exit."""
    had_own = attr in vars(cls)
    original = vars(cls)[attr] if had_own else getattr(cls, attr)
    setattr(cls, attr, make_wrapper(original))
    try:
        yield True
    finally:
        if had_own:
            setattr(cls, attr, original)
        else:
            delattr(cls, attr)
