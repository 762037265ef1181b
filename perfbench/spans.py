"""Spans around calls into the program's layers, by name.

The tracer replaces a named attribute (a module function, a class method, or
`scipy.sparse.linalg.splu` as the solver module sees it) with a wrapper that
records a span: name, start, end and the span that was open when it began.
A name that no longer exists is skipped and listed in `absent`, so a renamed
or deleted internal only makes its layer read as absent.  Spans stay in
memory; `remove()` puts every original back.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.absent = []
        self._open = []
        self._undo = []

    def begin(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self._open[-1] if self._open else -1])
        self._open.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._open.pop()][2] = time.perf_counter()

    def wrap(self, owner, attr, span, result=None, label=None):
        """Time every call of `owner.attr` as `span`; `result` may wrap the
        returned value (used to time the solves of a factorization).  A
        missing owner or attribute is recorded in `absent` under `label`."""
        label = label or f"{getattr(owner, '__name__', owner)}.{attr}"
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
        else:
            original = getattr(owner, attr, None)
        if not callable(original):
            self.absent.append(label)
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.begin(span)
            try:
                out = original(*args, **kwargs)
            finally:
                tracer.end()
            return result(out) if result is not None else out

        self.patch(owner, attr, wrapper)

    def patch(self, owner, attr, replacement):
        """Set `owner.attr` to `replacement` until `remove()`."""
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def remove(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- summaries ---------------------------------------------------------

    def _inside(self, idx, names):
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def total(self, names, outside=()):
        """(calls, seconds) of the outermost spans named in `names`, leaving
        out those opened inside a span named in `outside`."""
        names = {names} if isinstance(names, str) else set(names)
        calls, secs = 0, 0.0
        skip = set(outside) | names
        for i, (n, start, end, _) in enumerate(self.spans):
            if n in names and end is not None and not self._inside(i, skip):
                calls += 1
                secs += end - start
        return calls, secs


class TimedSolves:
    """Stands in for a sparse LU factorization and times its `solve`."""

    def __init__(self, lu, tracer, span):
        self._lu, self._tracer, self._span = lu, tracer, span

    def solve(self, *args, **kwargs):
        self._tracer.begin(self._span)
        try:
            return self._lu.solve(*args, **kwargs)
        finally:
            self._tracer.end()

    def __getattr__(self, name):
        return getattr(self._lu, name)
