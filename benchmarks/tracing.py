"""Summaries of the in-memory spans recorded around the benchmark's calls.

run.run_round records a span as [name, start_ns, end_ns, op, failed]:
op is the id of the operation that made the call.  The benchmark times
only the calls it makes itself, one at a time, so spans never nest and
the whole of a span's time belongs to its module.  Spans stay in memory
and are summarized here when the run ends.
"""

from __future__ import annotations

import statistics
from collections import defaultdict


def module_of(name: str) -> str:
    return name.split(".", 1)[0]


def durations(spans) -> dict[str, list[int]]:
    """Span durations in ns, per span name."""
    out: dict[str, list[int]] = defaultdict(list)
    for name, start, end, _, _ in spans:
        out[name].append(end - start)
    return out


def modules(spans, passes: int) -> dict:
    """Per module: time and calls per pass over the same operations, and
    the failed calls of all passes."""
    out: dict[str, dict] = defaultdict(lambda: {"busy_s": 0.0, "calls": 0, "failed": 0})
    for name, start, end, _, failed in spans:
        m = out[module_of(name)]
        m["busy_s"] += (end - start) / 1e9 / passes
        m["calls"] += 1
        m["failed"] += failed
    for m in out.values():
        m["calls"] = round(m["calls"] / passes)
    return out


def median_us(values_ns) -> float:
    return statistics.median(values_ns) / 1e3
