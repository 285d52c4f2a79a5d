"""In-memory spans recorded around calls into the package's modules."""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans as [name, start, end, parent index], kept in memory until written."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else None]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def totals(self):
        """Summed duration per span name."""
        out = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def self_times(self):
        """Summed self time per layer: a span's duration minus its children's."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        out = defaultdict(float)
        for (name, *_), t in zip(self.spans, own):
            out[name.split(".", 1)[0]] += t
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans], fh
            )
