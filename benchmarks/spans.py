"""In-memory span recorder for the traced benchmark run.

A span is one call into a traced function: name, start, end, index of the
span that was open when it started (-1 for none), the run id of the
`verify` call it belongs to, and an optional dict of attributes computed
from the call's arguments and result.  Spans are kept in a list and written
once, when the traced process ends.

Functions are traced from outside the package: `install` rebinds each
target in every `dl_lab` module namespace that holds it (or on its class,
for methods) and restores the originals on exit.  A target that no longer
exists is reported as missing; it is not an error.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable

NAME, START, END, PARENT, RUN, ATTRS = range(6)


class Recorder:
    """Collects spans from wrapped calls; single-threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.run_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn: Callable, annotate: Callable | None = None) -> Callable:
        """Return fn recording one span per call; annotate(args, kwargs, result) -> attrs."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if annotate is not None:
                try:
                    span[ATTRS] = annotate(args, kwargs, result)
                except Exception:  # a changed signature must not break the traced program
                    span[ATTRS] = {}
            return result

        return traced


@dataclass(frozen=True)
class Target:
    """One traced function: span name, 'module:qualname', optional annotator."""

    span: str
    path: str
    annotate: Callable | None = None


@contextlib.contextmanager
def install(recorder: Recorder, targets, package: str = "dl_lab"):
    """Rebind every target for the duration of the block; yields the missing paths."""
    missing: list[str] = []
    undo: list[tuple[object, str, object]] = []
    try:
        for target in targets:
            original, owner, attr = _resolve(target.path)
            if original is None:
                missing.append(target.path)
                continue
            wrapper = recorder.wrap(target.span, original, target.annotate)
            if isinstance(owner, type):
                holders = [(owner, attr)]
            else:
                holders = [(module, name) for module in _package_modules(package)
                           for name, value in list(vars(module).items()) if value is original]
            for holder, name in holders:
                undo.append((holder, name, original))
                setattr(holder, name, wrapper)
        yield missing
    finally:
        for holder, name, original in reversed(undo):
            setattr(holder, name, original)


def _resolve(path: str):
    """(object, owner, attribute) for 'module:qual.name', or (None, None, None)."""
    module_name, _, qualname = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None, None
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    attr = parts[-1]
    # a method counts only where its class defines it, so restoring is exact
    found = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(found):
        return None, None, None
    return found, owner, attr


def _package_modules(package: str) -> list:
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == package or name.startswith(package + "."))]


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


class SpanIndex:
    """Per-name queries over a finished list of spans."""

    def __init__(self, spans):
        self.spans = spans
        self.self_s = self_times(spans)
        self.by_name: dict[str, list[int]] = {}
        for index, span in enumerate(spans):
            self.by_name.setdefault(span[NAME], []).append(index)

    def _ancestors(self, index: int):
        parent = self.spans[index][PARENT]
        while parent >= 0:
            yield parent
            parent = self.spans[parent][PARENT]

    def has_ancestor(self, index: int, name: str) -> bool:
        return any(self.spans[p][NAME] == name for p in self._ancestors(index))

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def total_s(self, name: str) -> float:
        """Inclusive time, counting a span nested in a same-name span once."""
        return sum(self.spans[i][END] - self.spans[i][START]
                   for i in self.by_name.get(name, ()) if not self.has_ancestor(i, name))

    def self_total(self, name: str, where: Callable | None = None) -> float:
        return sum(self.self_s[i] for i in self.by_name.get(name, ())
                   if where is None or where(self.spans[i][ATTRS] or {}))

    def attr_sum(self, name: str, key: str, within: str | None = None) -> float:
        return sum((self.spans[i][ATTRS] or {}).get(key, 0)
                   for i in self.by_name.get(name, ())
                   if within is None or self.has_ancestor(i, within))

    def count_within(self, name: str, within: str) -> int:
        return sum(1 for i in self.by_name.get(name, ()) if self.has_ancestor(i, within))
