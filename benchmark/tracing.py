"""Spans recorded around the benchmark's calls into scparse.

A span is (name, start, end, parent, case, rep): the layer call it
times, its interval on the tracer's timer (in a run, the host clock's
now(), which leaves out the time spent sampling the host's speed), the
index of the span open around it
(-1 at top level), the case or grammar it belongs to and the repeat
(pass) it was taken in.  Spans stay in memory until the run ends.

The untraced run uses NO_TRACE, whose spans cost one call and an empty
`with`; end-to-end figures come from that run only.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

from measure import case_time


class Tracer:
    def __init__(self, timer=time.perf_counter):
        self.timer = timer
        self.spans: list[tuple[str, float, float, int, str, int]] = []
        self._open: list[int] = []
        self.case = ""
        self.rep = 0
        self.marks: dict[tuple[str, int], tuple] = {}

    def scale(self, mark: tuple):
        """Host clock mark (see measure.HostClock) of the spans of the
        current case and rep."""
        self.marks[(self.case, self.rep)] = mark

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, 0.0, 0.0, parent, self.case, self.rep))
        self._open.append(index)
        start = self.timer()
        try:
            yield
        finally:
            end = self.timer()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.case, self.rep)

    def wrap(self, name: str, fn):
        """fn with every call recorded as a span named `name`."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def layer_times(self, factor) -> dict[str, dict[str, float]]:
        """Per span name: busy and self time in ms, each summed over cases
        of the case's median over its repeats, every repeat scaled to the
        reference host speed by factor(mark) of its host clock mark.  Self
        time is a span's duration minus the time of the spans opened
        directly inside it."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        busy: dict[tuple[str, str, int], float] = {}
        own: dict[tuple[str, str, int], float] = {}
        for i, (name, start, end, _, case, rep) in enumerate(self.spans):
            key = (name, case, rep)
            busy[key] = busy.get(key, 0.0) + (end - start)
            own[key] = own.get(key, 0.0) + (end - start - child_time[i])
        out: dict[str, dict[str, float]] = {}
        for label, table in (("busy_ms", busy), ("self_ms", own)):
            repeats: dict[tuple[str, str], list[tuple[float, float]]] = {}
            for (name, case, rep), seconds in table.items():
                mark = self.marks.get((case, rep))
                repeats.setdefault((name, case), []).append(
                    (seconds, 1.0 if mark is None else factor(mark)))
            for (name, _), timings in repeats.items():
                row = out.setdefault(name, {"busy_ms": 0.0, "self_ms": 0.0})
                row[label] += case_time(timings) * 1e3
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


class _NoTrace:
    case = ""
    rep = 0
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def scale(self, mark: tuple):
        pass


NO_TRACE = _NoTrace()


@contextmanager
def patched(tracer: Tracer, module, spans: dict[str, str]):
    """Replace module functions by traced wrappers for the duration; the
    module's own callers look the names up at call time and so are
    traced too.  `spans` maps function name to span name."""
    saved = {fn: getattr(module, fn) for fn in spans}
    try:
        for fn, name in spans.items():
            setattr(module, fn, tracer.wrap(name, saved[fn]))
        yield
    finally:
        for fn, original in saved.items():
            setattr(module, fn, original)
