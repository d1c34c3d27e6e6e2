"""In-memory spans recorded by the benchmark around calls into each layer.

A real span wraps a public call as the program makes it. A layer that only
runs nested inside another call (``ideal_code`` inside
``process_stream_point``, ``hamming_rows`` inside a query, the full-ranking
queries inside ``mean_average_precision``) is timed by a shadow span: the
benchmark calls it again on the same inputs, outside the real call, and
records it under the real call as its logical parent. Shadow work is extra
work, so every real span's duration is net of any shadow work that ran
inside its interval, and so is a traced pass's wall time.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

SHADOW_PREP = "trace.prep"


class Tracer:
    """Spans ``[name, parent, start, duration, shadow]`` plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)
        self.shadow_seconds = 0.0
        self._stack: list[int] = []
        self._shadow_at: list[float] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, 0.0, 0.0, False])
        self._stack.append(sid)
        self._shadow_at.append(self.shadow_seconds)
        self.spans[sid][2] = perf_counter()
        return sid

    def end(self, sid: int):
        now = perf_counter()
        span = self.spans[sid]
        self._stack.pop()
        inside = self.shadow_seconds - self._shadow_at.pop()
        span[3] = now - span[2] - inside

    def call(self, name: str, fn, *args, **kwargs):
        sid = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(sid)

    def shadow(self, name: str, parent: int, fn, *args):
        """Run fn(*args) as a shadow of work nested in span `parent`."""
        start = perf_counter()
        out = fn(*args)
        duration = perf_counter() - start
        sid = len(self.spans)
        self.spans.append([name, parent, start, duration, True])
        self.shadow_seconds += duration
        return out, sid

    def prep(self, fn, *args):
        """Work done only so that a shadow can run; excluded like shadows."""
        return self.shadow(SHADOW_PREP, -1, fn, *args)[0]

    def add(self, counter: str, n: float = 1):
        self.counts[counter] += n

    def peak(self, counter: str, value: float):
        self.counts[counter] = max(self.counts[counter], value)

    def seconds(self, name: str) -> float:
        """Summed duration of every span (real or shadow) with this name."""
        return sum(s[3] for s in self.spans if s[0] == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def self_seconds(self, name: str) -> float:
        """Summed duration of spans with this name minus their children's."""
        child = defaultdict(float)
        for s in self.spans:
            if s[1] >= 0:
                child[s[1]] += s[3]
        return sum(s[3] - child[i] for i, s in enumerate(self.spans) if s[0] == name)

    def write(self, f, pass_no: int):
        """Append this tracer's spans to an open text file, one JSON per line."""
        for i, (name, parent, start, duration, shadow) in enumerate(self.spans):
            f.write(
                json.dumps(
                    {
                        "pass": pass_no,
                        "id": i,
                        "parent": parent,
                        "name": name,
                        "start": start,
                        "dur": duration,
                        "shadow": shadow,
                    }
                )
                + "\n"
            )
