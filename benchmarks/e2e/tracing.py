"""The benchmark's own spans: recorded around calls into ``repro``, from outside.

A span is (name, start, end, parent, request id).  Spans stay in memory
and are written once, at the end of a traced run.  A layer's *self time*
is its span's duration minus the part of that interval its child spans
cover -- what the layer spent itself rather than in a layer below it.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from measure import median


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, request_id: Optional[int] = None) -> Iterator[Dict[str, object]]:
        """Time the enclosed call; nests under the span open around it."""
        parent = self._stack[-1] if self._stack else None
        if request_id is None and parent is not None:
            request_id = self.spans[parent]["request_id"]
        record: Dict[str, object] = {
            "id": len(self.spans),
            "name": name,
            "parent": parent,
            "request_id": request_id,
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    # -- derived numbers -------------------------------------------------------

    def durations_ms(self) -> Dict[str, List[float]]:
        out: Dict[str, List[float]] = defaultdict(list)
        for s in self.spans:
            out[s["name"]].append((s["end"] - s["start"]) * 1000.0)
        return out

    def self_times_ms(self) -> Dict[str, List[float]]:
        """Per span name, each span's duration minus its children's cover."""
        children: Dict[int, List[Dict[str, object]]] = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]].append(s)
        out: Dict[str, List[float]] = defaultdict(list)
        for s in self.spans:
            covered = _covered(
                s["start"], s["end"], [(c["start"], c["end"]) for c in children[s["id"]]]
            )
            out[s["name"]].append((s["end"] - s["start"] - covered) * 1000.0)
        return out

    def median_ms(self, name: str) -> float:
        samples = self.durations_ms().get(name)
        return median(samples) if samples else 0.0

    def median_per_request_ms(self, name: str) -> float:
        """For a stage a request enters several times: the median, over
        requests, of the time the request spent in it."""
        per_request: Dict[object, float] = defaultdict(float)
        for s in self.spans:
            if s["name"] == name:
                per_request[s["request_id"]] += (s["end"] - s["start"]) * 1000.0
        return median(list(per_request.values())) if per_request else 0.0

    def write(self, path: str, extra: Optional[Dict[str, object]] = None) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {
            "clock": "time.perf_counter seconds",
            "self_time_ms_median": {
                name: round(median(v), 4) for name, v in sorted(self.self_times_ms().items())
            },
            "spans": self.spans,
        }
        payload.update(extra or {})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")


def _covered(start: float, end: float, intervals: List[tuple]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total, cursor = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total
