"""Spans around the benchmark's calls into each layer, plus counter deltas.

A span records its name, start, end and parent span. When a span is
given a ``counters`` callable, the callable's snapshot (a nested dict of
numbers, e.g. ``PerfCounters.to_dict()`` or ``DesignRegistry.stats()``)
is taken before and after, and the span keeps the delta of every
numeric leaf. Spans stay in memory and are written out once, at the end
of the run.

A counter the program no longer exposes is *absent*: the delta simply
lacks the key, and :meth:`Tracer.count` returns ``None`` instead of
failing, so a later refactor of the program's counters shows up as
missing metrics rather than a crashed benchmark.

With tracing off, :meth:`Tracer.span` is a no-op that snapshots nothing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, Iterator, List, Optional


def flatten(doc, prefix: str = "") -> Dict[str, float]:
    """Numeric leaves of a nested dict as ``{"a.b.c": value}``."""
    out: Dict[str, float] = {}
    if isinstance(doc, dict):
        for key, value in doc.items():
            out.update(flatten(value, f"{prefix}{key}."))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            out.update(flatten(value, f"{prefix}{i}."))
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        out[prefix[:-1]] = doc
    return out


class Tracer:
    """In-memory span recorder; a no-op when ``enabled`` is false."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._t0 = time.perf_counter()

    def span(self, name: str, counters: Optional[Callable[[], dict]] = None):
        """Context manager recording one span named ``name``."""
        if not self.enabled:
            return nullcontext()
        return self._span(name, counters)

    @contextmanager
    def _span(self, name: str, counters) -> Iterator[dict]:
        before = flatten(counters()) if counters is not None else None
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() - self._t0,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._t0
            self._stack.pop()
            if before is not None:
                after = flatten(counters())
                record["counters"] = {
                    key: value - before.get(key, 0)
                    for key, value in after.items()
                }

    # ------------------------------------------------------------------
    def durations(self, name: str) -> List[float]:
        """Durations in seconds of every span named ``name``."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def count(self, name: str, key: str, first: bool = False) -> Optional[float]:
        """Sum of counter ``key`` over spans named ``name`` (``None`` = absent).

        With ``first``, only the first such span counts: rounds repeat
        the same operations, so one round's count repeats exactly for a
        fixed seed whatever the run length.
        """
        spans = [s for s in self.spans if s["name"] == name and "counters" in s]
        if first:
            spans = spans[:1]
        values = [s["counters"][key] for s in spans if key in s["counters"]]
        if not values:
            return None
        return sum(values)

    def write(self, path, **extra) -> None:
        """Write every span (and ``extra`` fields) as one JSON document."""
        doc = dict(extra)
        doc["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
