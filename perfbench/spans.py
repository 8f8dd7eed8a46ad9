"""In-memory spans recorded around module-level names of the program.

The benchmark traces the program from outside: it replaces a name such as
``smoothip.pipeline.build_relaxation`` with a wrapper that records a span
(name, start, end, parent, op id) and calls the original.  The program's
own source is untouched, so only calls that go through a wrapped module
attribute are seen; work inside a layer (for example the simplex's set-up,
phase 1, phase 2 and refresh) stays inside that layer's span.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Records nested spans; ``wrap`` installs a traced module attribute."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)

    def close(self) -> None:
        self.spans[self._stack.pop()][END] = time.perf_counter()

    @contextmanager
    def span(self, name: str, op=None):
        if op is not None:
            self.op = op
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def wrap(self, module, attr: str, name: str, observe=None) -> None:
        """Trace calls made through ``module.attr``; ``observe(args,
        result)`` runs after the span closes."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close()
            if observe is not None:
                observe(args, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def unwrap_all(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict:
        """name -> [calls, self seconds]; self time is a span's duration
        minus the durations of its direct children."""
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                children[span[PARENT]] += span[END] - span[START]
        out: dict = {}
        for i, span in enumerate(self.spans):
            entry = out.setdefault(span[NAME], [0, 0.0])
            entry[0] += 1
            entry[1] += span[END] - span[START] - children[i]
        return out


class NullTracer:
    """Stands in for a Tracer when tracing is off."""

    @contextmanager
    def span(self, name: str, op=None):
        yield
