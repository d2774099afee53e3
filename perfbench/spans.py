"""In-memory spans and counters recorded around the benchmark's calls into ltqcube.

A span is one call into a layer: its name, start, end, the index of the span
open around it (its parent) and the id of the operation it belongs to. Spans
stay in memory for the whole repetition and are handed to the harness when it
ends; nothing is written while the body runs.
"""

from __future__ import annotations

import resource
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext


def maxrss_mib(who: int = resource.RUSAGE_SELF) -> float:
    """High-water resident memory in MiB (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024


class Tracer:
    """Spans and counters of one repetition.

    A disabled tracer records nothing: `span` returns a shared no-op context
    manager and `count`/`peak` return at once, so an untraced repetition runs
    the same code as a traced one minus the bookkeeping.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counters: Counter[str] = Counter()
        self.peaks: dict[str, float] = {}
        self.op: int | None = None
        self._open: list[int] = []
        self._noop = nullcontext()

    def span(self, name: str, *, rss: bool = False):
        """Time the enclosed call as `name`; with `rss`, also record the
        process's resident-memory high-water mark right after it."""
        if not self.enabled:
            return self._noop
        return self._span(name, rss)

    @contextmanager
    def _span(self, name: str, rss: bool):
        record = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._open[-1] if self._open else None,
            "op": self.op,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
            if rss:
                self.peak(f"{name}.rss_mib", maxrss_mib())

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counters[name] += n

    def peak(self, name: str, value: float) -> None:
        if self.enabled:
            self.peaks[name] = max(self.peaks.get(name, 0.0), value)

    def summary(self) -> dict[str, float]:
        """Per span name: `<name>.s` (summed duration), `<name>.self_s`
        (duration not covered by child spans) and `<name>.calls`; then every
        counter and peak under its own name."""
        covered = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                covered[record["parent"]] += record["end"] - record["start"]
        out: defaultdict[str, float] = defaultdict(float)
        for record, child_time in zip(self.spans, covered):
            duration = record["end"] - record["start"]
            out[f"{record['name']}.s"] += duration
            out[f"{record['name']}.self_s"] += duration - child_time
            out[f"{record['name']}.calls"] += 1
        out.update(self.counters)
        out.update(self.peaks)
        return dict(out)
