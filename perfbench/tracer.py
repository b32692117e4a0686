"""Spans, counters and call hooks at the public boundaries of ``nwlearn``.

The benchmark never edits the package. It replaces public callables with
wrappers from its own files and puts the originals back when it is done.
A span's self time is its duration minus the part covered by its child
spans, so a layer nested in another (``featnet.extract`` inside
``infer.build_cache`` inside a validation check) is charged only once.
"""

from __future__ import annotations

import functools
import logging
import sys
import time
from collections import Counter


class SpanStats:
    """Totals for every span of one name."""

    __slots__ = ("calls", "total", "self_time", "durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations: list[float] = []


class Tracer:
    """Records nested spans and counters in memory.

    ``clock`` is injectable so tests can drive time by hand.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.reset()

    def reset(self):
        self.stats: dict[str, SpanStats] = {}
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []  # child time of each open span

    def _begin(self):
        self._stack.append([0.0])
        return self.clock()

    def _end(self, name: str, start: float):
        duration = self.clock() - start
        child_time = self._stack.pop()[0]
        if self._stack:
            self._stack[-1][0] += duration
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        stats.calls += 1
        stats.total += duration
        stats.self_time += duration - child_time
        stats.durations.append(duration)

    def count(self, name: str, amount: float = 1):
        self.counts[name] += amount

    def span_of(self, name: str) -> SpanStats:
        return self.stats.get(name) or SpanStats()

    def traced(self, fn, name, after=None):
        """Wrap ``fn`` in a span. ``name`` is a string or a function of the
        call's arguments; ``after(result, args, kwargs)`` runs once the span
        has closed, to record counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            start = self._begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(label, start)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper


class Patches:
    """Attribute replacements that are undone, newest first, by ``close``."""

    def __init__(self, package: str = "nwlearn"):
        self.package = package
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, make):
        """Replace ``owner.attr`` by ``make(current)``. A module-level
        function is replaced in every module of the package that imported
        it by name, so callers that did ``from .infer import predict`` see
        the wrapper too."""
        current = vars(owner)[attr]
        wrapper = make(current)
        if isinstance(owner, type):
            self.set(owner, attr, wrapper)
            return
        for name, module in list(sys.modules.items()):
            if module is None or not (name == self.package or name.startswith(self.package + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is current:
                    self.set(module, key, wrapper)

    def close(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class WarningCounter(logging.Handler):
    """Counts WARNING-and-above records per logger and keeps them off the
    benchmark's output while installed."""

    def __init__(self, logger_name: str = "nwlearn"):
        super().__init__(logging.WARNING)
        self.counts: Counter = Counter()
        self._logger = logging.getLogger(logger_name)
        self._propagate = self._logger.propagate

    def emit(self, record):
        self.counts[record.name] += 1

    def __enter__(self):
        self._logger.addHandler(self)
        self._logger.propagate = False
        return self

    def __exit__(self, *exc):
        self._logger.removeHandler(self)
        self._logger.propagate = self._propagate
