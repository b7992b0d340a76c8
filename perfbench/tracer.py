"""In-memory span tracer that wraps moltop functions from outside the library.

The benchmark never edits ``src/``: in a traced run it replaces selected
module attributes (the names a moltop module looks up at call time) with
wrappers that open a span around the original call and, after the span has
closed, update counters from the call's arguments and result.  Counting
therefore adds to the tracing overhead, never to a span.  Every wrapper calls
the original function with the original arguments and returns its result
unchanged, so traced outputs equal untraced ones bit for bit.

A span is ``[name, start, end, parent]`` with ``perf_counter`` times and the
index of the enclosing span (-1 at top level).  Spans stay in memory until
``write`` dumps them with per-name totals and self times at the end of a run.
"""

import functools
import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, after=None):
        """Replace ``owner.attr`` by a spanned call.

        ``after(result, *args, **kwargs)`` runs outside the span.  A name
        ``owner`` lacks is skipped, so a layer the library no longer routes
        through that name reads 0 instead of breaking the traced run.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self):
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict:
        """name -> (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the traced code is serial.
        """
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = Counter()
        inclusive = defaultdict(float)
        own = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            inclusive[name] += end - start
            own[name] += end - start - child_time[index]
        return {name: (calls[name], inclusive[name], own[name]) for name in calls}

    def write(self, path, extra: dict):
        origin = self.spans[0][1] if self.spans else 0.0
        doc = dict(extra)
        doc["totals"] = {name: {"calls": c, "seconds": s, "self_seconds": o}
                         for name, (c, s, o) in sorted(self.totals().items())}
        doc["counts"] = dict(sorted(self.counts.items()))
        doc["spans"] = [{"name": name, "start": start - origin, "end": end - origin,
                         "parent": parent}
                        for name, start, end, parent in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
