"""In-memory spans recorded around the program's public functions.

The program is never edited: :meth:`Tracer.patch_method` and
:meth:`Tracer.patch_function` replace a class attribute or a module
function with a wrapper that records one span per call.  A span is
``(span id, parent id, name, start ns, end ns, thread id, request id)``;
the parent is the innermost open span on the same thread.  Timestamps
come from ``time.monotonic_ns`` (one system-wide clock on Linux), so
spans from the server process line up with the client's timings.
Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Sequence

SID, PARENT, NAME, START, END, TID, RID = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: ``(name, t ns, payload)`` samples of program counters.
        self.events: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # ------------------------------------------------------------- recording
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str | Callable[..., str],
        fn: Callable,
        after: Callable[[tuple, dict, Any], None] | None = None,
    ) -> Callable:
        """``fn`` recording a span per call; ``name`` may depend on the args."""
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic_ns()
                stack.pop()
                label = name(args, kwargs) if callable(name) else name
                spans.append((sid, parent, label, start, end, threading.get_ident(), None))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def event(self, name: str, payload: Any) -> None:
        self.events.append((name, time.monotonic_ns(), payload))

    # ------------------------------------------------------------- patching
    def patch_method(self, cls: type, attr: str, name, after=None) -> None:
        """Wrap a method, classmethod, staticmethod or property getter."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, after)))
        elif isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(self.wrap(name, raw.__func__, after)))
        elif isinstance(raw, property):
            setattr(cls, attr, property(self.wrap(name, raw.fget, after), raw.fset))
        else:
            setattr(cls, attr, self.wrap(name, raw, after))

    def patch_function(self, module: Any, attr: str, name, after=None) -> None:
        """Wrap a module function everywhere the package imported it by name."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, after)
        prefix = module.__name__.split(".")[0] + "."
        for loaded in list(sys.modules.values()):
            if loaded is None or not getattr(loaded, "__name__", "").startswith(prefix):
                continue
            if getattr(loaded, attr, None) is original:
                setattr(loaded, attr, wrapped)

    # ------------------------------------------------------------- output
    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "events": self.events}, handle)


def load(path: str) -> tuple[list[tuple], list[tuple]]:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return [tuple(span) for span in data["spans"]], [tuple(e) for e in data["events"]]


def self_times(spans: Sequence[tuple]) -> dict[int, int]:
    """Span id -> duration minus the time its child spans cover (ns).

    Children run on their parent's thread, nested inside it, so their
    intervals never overlap and their durations simply add up.
    """
    covered: dict[int, int] = defaultdict(int)
    for span in spans:
        if span[PARENT]:
            covered[span[PARENT]] += span[END] - span[START]
    return {
        span[SID]: max(0, span[END] - span[START] - covered.get(span[SID], 0))
        for span in spans
    }


def within(spans: Iterable[tuple], start_s: float, end_s: float) -> list[tuple]:
    """Spans that start inside ``[start_s, end_s]`` (monotonic seconds)."""
    lo, hi = start_s * 1e9, end_s * 1e9
    return [span for span in spans if lo <= span[START] <= hi]
