"""In-memory spans around calls into fractile's modules, and their layer totals.

A traced child process wraps selected functions by the name its caller
imported them under (``fractile.refuter.run`` is a different binding from
``fractile.cli.run``), so each span sits exactly at one layer boundary.
Spans stay in memory and are written once, when the child ends.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Callable, Optional


class Tracer:
    """Collects spans: name, start, end, parent span index and run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.last: dict[str, object] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **fields):
        record = {
            "name": name,
            "run": self.run_id,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            **fields,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(
        self,
        module,
        attr: str,
        name: str,
        counts: Optional[Callable[[object], dict]] = None,
    ) -> None:
        """Replace ``module.attr`` by a version that records a span named
        ``name`` and, from the result, the counts ``counts`` returns."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
            if counts is not None:
                record.update(counts(result))
            self.last[name] = result
            return result

        setattr(module, attr, traced)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
