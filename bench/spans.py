"""In-memory spans around calls into hullcount's public functions.

The spans are placed from the benchmark's side only: `Tracer.installed`
rebinds each traced function, in every loaded ``hullcount`` module that
holds it, to a wrapper that records a span, and restores the original
bindings on exit. Calls the package makes between its own modules go
through those module-level names, so a span for
``formulas.count_hermitian`` opened inside ``ratios.classify_hermitian``
nests under it.

A span records its name, start, end, parent span, a label taken from the
call's arguments (for grouping, e.g. by form or size) and a work count
taken from the result (e.g. the subspaces a spectrum enumerated). Its
self time is its duration minus the time of the spans it directly holds.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

Labeler = Callable[[tuple, dict], object]
Counter = Callable[[Any], int]


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 for a root span
    label: object = ""
    count: int = 0
    end: float = 0.0
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


@dataclass(frozen=True)
class Target:
    """One public function to trace, as ``"<module>.<function>"``."""

    name: str
    label: Labeler | None = None
    count: Counter | None = None


@dataclass
class Tracer:
    """Spans kept in memory, in the order they were opened."""

    targets: list[Target]
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _restore: list[tuple[object, str, object]] = field(default_factory=list)

    def _open(self, name: str, label: object = "") -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), parent, label)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_time += span.duration

    @contextmanager
    def span(self, name: str, label: object = "") -> Iterator[Span]:
        """A span opened by the benchmark itself around a block of calls."""
        s = self._open(name, label)
        try:
            yield s
        finally:
            self._close(s)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = tracer._open(target.name, target.label(args, kwargs) if target.label else "")
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(s)
            if target.count:
                s.count = target.count(result)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator[Tracer]:
        """Trace the targets for the duration of the block."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "hullcount" or name.startswith("hullcount."))
        ]
        for target in self.targets:
            mod_name, fn_name = target.name.rsplit(".", 1)
            fn = getattr(sys.modules[f"hullcount.{mod_name}"], fn_name)
            wrapper = self._wrap(target, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._restore.append((m, attr, fn))
                        setattr(m, attr, wrapper)
        try:
            yield self
        finally:
            while self._restore:
                m, attr, fn = self._restore.pop()
                setattr(m, attr, fn)

    def select(self, name: str, label: object = None, roots_only: bool = False) -> list[Span]:
        """Spans of one name (and label); roots_only keeps calls the benchmark
        made directly, dropping calls one traced function made to another."""
        return [
            s for s in self.spans
            if s.name == name
            and (label is None or s.label == label)
            and (not roots_only or s.parent < 0 or self.spans[s.parent].name.startswith("bench."))
        ]
