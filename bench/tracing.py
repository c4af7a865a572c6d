"""Spans around the benchmark's calls into calclab's modules.

A span records its name, start, end, parent span and case id; spans are
kept in memory and written out when the run ends.  The benchmark opens one
span per case and, inside it, one span per call into a module's public
function, named ``<module>.<function>``.  Untraced runs use ``NullTracer``,
whose spans cost one attribute lookup and a shared no-op context.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict

MODULES = ("cli", "combinat", "series", "linalg", "quad", "prob", "diffcalc", "dynamics", "hydrogen")


class NullTracer:
    case = -1
    _null = contextlib.nullcontext()

    def span(self, name: str, tag: str = ""):
        return self._null


class Tracer:
    def __init__(self):
        # [name, tag, start, end, parent index, case id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.case = -1

    @contextlib.contextmanager
    def span(self, name: str, tag: str = ""):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, tag, time.perf_counter(), None, parent, self.case]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover."""
        spans = self.spans
        out = [(s[3] - s[2]) if s[3] is not None else 0.0 for s in spans]
        for s in spans:
            if s[4] >= 0 and s[3] is not None:
                out[s[4]] -= s[3] - s[2]
        return out

    def module_table(self, wall: float, failed_by_module: dict[str, int]) -> dict[str, float]:
        """Per-module calls, busy (self) seconds, share of the timed wall, failures."""
        calls = defaultdict(int)
        busy = defaultdict(float)
        for s, own in zip(self.spans, self.self_times()):
            module = s[0].split(".", 1)[0]
            if module in MODULES and s[3] is not None:
                calls[module] += 1
                busy[module] += own
        out = {}
        for m in MODULES:
            out[f"{m}.calls"] = calls[m]
            out[f"{m}.busy_s"] = busy[m]
            out[f"{m}.share"] = busy[m] / wall
            out[f"{m}.failed"] = failed_by_module.get(m, 0)
        out["bench.unattributed_share"] = max(0.0, 1.0 - sum(busy.values()) / wall)
        return out

    def durations(self, name: str, tag: str | None = None) -> list[float]:
        return [
            s[3] - s[2]
            for s in self.spans
            if s[0] == name and s[3] is not None and (tag is None or s[1] == tag)
        ]

    def median_ms(self, name: str, tag: str | None = None) -> float:
        d = self.durations(name, tag)
        return 1000.0 * statistics.median(d) if d else 0.0

    def dump(self, path) -> None:
        keys = ("name", "tag", "start", "end", "parent", "case")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def span_cost_s(samples: int = 5000) -> float:
    """Measured cost of opening and closing one empty span."""
    tr = Tracer()
    start = time.perf_counter()
    for _ in range(samples):
        with tr.span("calibrate"):
            pass
    return (time.perf_counter() - start) / samples
