"""Spans around functions of a running program, recorded from outside it.

The tracer replaces module attributes with timing wrappers; the wrapped code
does not change.  Spans stay in memory until ``Tracer.spans`` is read.

A span's parent is the innermost open span of the same thread.  A span opened
in a thread with no open span (a worker of a thread pool) gets the root span
as parent, because the root span's work caused it.  Self time is a span's
duration minus the part of it that its children cover, taken as a union of
intervals, since children in worker threads can overlap.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed call.  ``size`` and ``key`` are optional call attributes."""

    name: str
    thread: int
    start: float
    end: float = 0.0
    parent: int = -1
    size: int = 0
    key: object = None
    # time the tracer itself spent inside this span (input keys of children)
    overhead: float = 0.0
    children: list = field(default_factory=list)


class Tracer:
    """Records spans from any number of threads."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = -1
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, size=0, key=None, start=None, root=False):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        span = Span(name, threading.get_ident(), self.clock() if start is None else start)
        span.parent, span.size, span.key = parent, size, key
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
            if parent >= 0:
                self.spans[parent].children.append(index)
            if root and not stack:
                self._root = index
        stack.append(index)
        return index

    def _close(self, index):
        self.spans[index].end = self.clock()
        self._stack().pop()
        if index == self._root:
            self._root = -1

    @contextlib.contextmanager
    def span(self, name):
        """A span that no wrapped function opens.

        Opened in a thread with no open span, it becomes the root span.
        """
        index = self._open(name, root=True)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name, fn, key=None, size=None):
        """Return ``fn`` timed as span ``name``.

        ``key(*args, **kwargs)`` names the call's input, so that repeated
        inputs can be counted; the time it takes is charged to the enclosing
        span as tracer overhead.  ``size(*args, **kwargs)`` is recorded as
        the call's size.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = self.clock()
            k = key(*args, **kwargs) if key is not None else None
            n = size(*args, **kwargs) if size is not None else 0
            t1 = self.clock()
            stack = self._stack()
            if stack and (key is not None or size is not None):
                self.spans[stack[-1]].overhead += t1 - t0
            index = self._open(name, n, k, start=t1)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def patch_function(self, module, attr, name, key=None, size=None):
        """Wrap ``module.attr`` in every module of the same top-level package
        whose namespace bound it, as ``from .module import attr`` does."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, key=key, size=size)
        prefix = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            for bound, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, bound, wrapper)
                    self._undo.append((mod, bound, original))

    def patch_init(self, cls, name):
        """Time construction of ``cls`` by wrapping ``__init__``, so that the
        class object and ``isinstance`` checks stay as they were."""
        original = cls.__dict__["__init__"]
        setattr(cls, "__init__", self.wrap(name, original))
        self._undo.append((cls, "__init__", original))

    def unpatch(self):
        """Restore every attribute this tracer replaced."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Self time of each span, in the order of ``spans``."""
    out = []
    for span in spans:
        duration = span.end - span.start
        covered = _covered(
            [(spans[c].start, spans[c].end) for c in span.children], span.start, span.end
        )
        out.append(max(duration - covered - span.overhead, 0.0))
    return out
