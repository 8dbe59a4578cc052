"""In-memory span tracer that wraps the package's public functions.

A span records a name, a start and end time (``perf_counter_ns``) and the
index of the span that was open when it started.  Spans stay in memory
until the run ends; :func:`summarize` then reduces them to per-name call
counts, total time and self time.  Self time is a span's duration minus
the part of its interval that its child spans cover.

Wrapping replaces a function on its defining module *and* on every
``deltalift`` module that bound the same object through a
``from .graph import forward``-style import, so calls made from inside
the package are traced too.  A wrapped name that no longer exists (a
later refactor renamed it) is skipped and listed in ``Tracer.absent``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "deltalift"


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the enclosing span, -1 at top level
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans from wrapped functions and explicit phase blocks."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._paused = False
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end_ns = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def phase(self, name: str):
        """Record one span around a block of code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextlib.contextmanager
    def paused(self):
        """Run a block without recording spans."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrapper(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if attrs is not None:
                self.spans[index].attrs = attrs(args, kwargs)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self, table) -> None:
        """Wrap every ``(target, span_name, attrs)`` entry of ``table``.

        ``target`` is ``"module:function"`` or ``"module:Class.method"``.
        ``attrs`` is None or a callable ``(args, kwargs) -> dict`` whose
        result is stored on the span after the call returns.
        """
        for target, name, attrs in table:
            module_name, _, qualname = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(target)
                continue
            wrapped = self._wrapper(name, original, attrs)
            if path:  # a method: patch the class attribute only
                self._patch(owner, attr, wrapped)
                continue
            for module in _package_modules():
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, binding, wrapped)

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def _package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


# ---------------------------------------------------------------------------
# Reduction


def self_times_ns(spans: list[Span]) -> list[int]:
    """Self time of every span: duration minus the union of its children."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    result = []
    for span, kids in zip(spans, children):
        covered = 0
        reach = span.start_ns
        for kid in sorted(kids, key=lambda k: spans[k].start_ns):
            start = max(spans[kid].start_ns, reach)
            end = min(spans[kid].end_ns, span.end_ns)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.end_ns - span.start_ns - covered)
    return result


def phase_of(spans: list[Span]) -> list[str]:
    """Name of the top-level span that encloses each span."""
    phases: list[str] = []
    for span in spans:  # parents always precede their children
        phases.append(span.name if span.parent < 0 else phases[span.parent])
    return phases


@dataclass
class NameStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    durations_ns: list = field(default_factory=list)
    attrs: dict = field(default_factory=dict)


def summarize(spans: list[Span], phases=None) -> dict[str, NameStats]:
    """Per-name statistics over spans whose phase is in ``phases``.

    ``phases`` None keeps every span.  Numeric span attributes are summed
    per name.
    """
    selfs = self_times_ns(spans)
    owners = phase_of(spans)
    stats: dict[str, NameStats] = {}
    for span, self_ns, phase in zip(spans, selfs, owners):
        if phases is not None and phase not in phases:
            continue
        entry = stats.setdefault(span.name, NameStats())
        duration = span.end_ns - span.start_ns
        entry.calls += 1
        entry.total_ns += duration
        entry.self_ns += self_ns
        entry.durations_ns.append(duration)
        for key, value in span.attrs.items():
            entry.attrs[key] = entry.attrs.get(key, 0) + value
    return stats
