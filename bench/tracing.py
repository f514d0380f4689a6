"""In-memory spans and counters for the traced benchmark run.

A span records a name, a start and an end on the system-wide monotonic
clock, the span that was open when it started, and the id of the item
it belongs to.  Nothing is written until the run ends.  A span's self
time is its duration minus the durations of its children; children run
one after another inside their parent, so their durations never overlap.

With tracing off, ``Tracer.span`` hands back one shared no-op context
and ``Tracer.add`` returns at once, so the untraced run executes the
same benchmark code with no recording.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

ITEM = "item"

_NULL = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        # each span: [name, start, end, parent index or -1, item id]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._item = -1

    def span(self, name: str):
        return self._record(name) if self.enabled else _NULL

    def item(self, item_id: int):
        """Span around one whole item; every span inside carries its id."""
        self._item = item_id
        return self._record(ITEM) if self.enabled else _NULL

    @contextlib.contextmanager
    def _record(self, name: str):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        entry = [name, time.monotonic(), None, parent, self._item]
        self.spans.append(entry)
        self._open.append(index)
        try:
            yield
        finally:
            entry[2] = time.monotonic()
            self._open.pop()

    def add(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counts[name] += amount

    def adopt(self, spans: list[list]) -> None:
        """Attach spans recorded by a child process under the open span.

        Their indices are local to the child; parents are remapped and
        top-level spans hang from the span open here.
        """
        base = len(self.spans)
        parent = self._open[-1] if self._open else -1
        for name, start, end, child_parent, _ in spans:
            mapped = parent if child_parent < 0 else base + child_parent
            self.spans.append([name, start, end, mapped, self._item])


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: summed self time, summed duration and call count."""
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _, _), own in zip(spans, self_times(spans)):
        row = out.setdefault(name, {"self": 0.0, "total": 0.0, "calls": 0})
        row["self"] += own
        row["total"] += end - start
        row["calls"] += 1
    return out
