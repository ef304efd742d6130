"""Outside-in tracer: spans around calls into the program's public functions.

The tracer replaces a function that is an attribute of a module (or of a
class, for classmethods) with a wrapper that records one span per call.
Because the program calls its own layers through module globals, wrapping
the attribute also catches the calls one layer makes into another; nothing
inside ``src/`` is edited.  Spans live in memory as
``[name, start, end, parent_index, run_id, counts]`` and are written out by
:meth:`Tracer.dump` when the run ends.  A function that no longer exists is
recorded as absent instead of failing the run.
"""

from __future__ import annotations

import inspect
import json
import statistics
import time
import types
from pathlib import Path
from typing import Callable

# A count extractor gets the bound call arguments and the return value and
# returns a dict of counts to store on the span.
CountFn = Callable[[inspect.BoundArguments, object], dict]

NAME, START, END, PARENT, RUN, COUNTS = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.count_errors: list[str] = []
        self._stack: list[int] = []
        self.run_id: int | None = None

    def wrap(self, owner: object, attr: str, name: str,
             count: CountFn | None = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        raw = getattr(owner, "__dict__", {}).get(attr)
        if raw is None or not callable(getattr(owner, attr, None)):
            self.absent.append(name)
            return
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        signature = inspect.signature(fn)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.run_id is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None,
                    tracer.run_id, None]
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                try:
                    span[COUNTS] = count(signature.bind(*args, **kwargs), result)
                except (TypeError, AttributeError, KeyError) as exc:
                    tracer.count_errors.append(f"{name}: {exc!r}")
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def open_run(self, run_id: int, name: str) -> int:
        """Start the root span of one operation; returns its index."""
        self.run_id = run_id
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, None, run_id, None])
        self._stack.append(index)
        return index

    def close_run(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()
        self.run_id = None

    def self_times(self) -> list[float]:
        """Each span's duration minus the time covered by its direct children."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self.self_times()
        rows = [{"name": s[NAME], "start": s[START], "end": s[END],
                 "parent": s[PARENT], "run": s[RUN], "self_s": own[i],
                 "counts": s[COUNTS]}
                for i, s in enumerate(self.spans)]
        path.write_text(json.dumps({"absent": self.absent,
                                    "count_errors": self.count_errors,
                                    "spans": rows}))


def span_cost(repeats: int = 5, calls: int = 2000) -> float:
    """Median extra seconds one recorded span adds to a call.

    Times a trivial function bare and through a live wrapper that also
    extracts counts; the difference per call is what each span costs the
    traced run, at most.
    """
    probe = types.SimpleNamespace(noop=lambda x: x)
    bare = probe.noop
    tracer = Tracer()
    tracer.wrap(probe, "noop", "probe", lambda bound, result: {"calls": 1})
    wrapped = probe.noop
    tracer.open_run(0, "probe.run")
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for i in range(calls):
            bare(i)
        t1 = time.perf_counter()
        for i in range(calls):
            wrapped(i)
        t2 = time.perf_counter()
        samples.append(((t2 - t1) - (t1 - t0)) / calls)
    tracer.close_run(0)
    return statistics.median(samples)
