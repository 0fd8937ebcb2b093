"""Outside-in tracer: timing wrappers installed around a program's functions.

The wrappers are installed by replacing an attribute where the program looks
it up (a module global or a class attribute), so the traced program needs no
change. Each call records a span (name, start, end, parent) in memory; spans
are written out once, at the end. A hook whose attribute is missing is noted
and skipped, never fatal, so the tracer keeps working while the program's
names change. The traced program is single-threaded: spans nest as calls do.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, parent: "Span | None"):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.notes: list[str] = []
        self._stack: list[Span] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def wrap(self, owner, attr: str, name: str,
             on_result: Callable | None = None) -> bool:
        """Replace ``owner.attr`` by a timing wrapper; False if it is missing.

        ``on_result(tracer, args, result)`` runs after each successful call;
        a call that raises counts toward ``<name>.errors``.
        """
        raw = vars(owner).get(attr) if isinstance(owner, type) else None
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else getattr(owner, attr, None)
        if not callable(original):
            self.notes.append(f"hook {name} ({getattr(owner, '__name__', owner)}.{attr}) "
                              "missing; its metrics are left out")
            return False
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = Span(name, time.perf_counter(), stack[-1] if stack else None)
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.count(f"{name}.errors")
                raise
            finally:
                stack.pop()
                span.end = time.perf_counter()
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        return True

    def write(self, path: str | Path) -> None:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": ids[id(s.parent)] if s.parent is not None else None,
                }) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its children's durations."""
    children_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            children_s[id(s.parent)] += s.end - s.start
    return [(s.end - s.start) - children_s[id(s)] for s in spans]


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: call count, total and self seconds, durations in ms."""
    table: dict[str, dict] = {}
    for s, self_s in zip(spans, self_times(spans)):
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                        "durations_ms": []})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += self_s
        row["durations_ms"].append((s.end - s.start) * 1e3)
    return table


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, 0 < q <= 100."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
