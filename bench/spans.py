"""In-memory span tracer that wraps library entry points from outside.

The tracer replaces named functions and methods of the already-imported
``rse_lab`` modules with thin wrappers.  Each call records one span (name,
start, end, parent span) in compact ``array`` columns, and an
optional hook reads counters off the call's return value.  Times are
process CPU time, like the benchmark's other timings.  Nothing under
``src/`` is modified; ``uninstall`` restores every original attribute.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(time.process_time())
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.process_time()
        self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if on_result is not None:
                on_result(out)
            return out

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a region the benchmark itself delimits."""
        i = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(i)

    # -- patching ------------------------------------------------------------
    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------
    def arrays(self):
        # copies, so the columns can still grow afterwards
        return tuple(np.frombuffer(col, dtype=dt).copy() for col, dt in (
            (self.name, np.int32), (self.parent, np.int32),
            (self.start, np.float64), (self.end, np.float64)))

    def mark(self) -> int:
        """Index of the next span, to split the record into phases."""
        return len(self.start)

    def totals(self, first: int = 0) -> dict[str, dict[str, float]]:
        """Per span name, over spans from index `first` on: call count, total
        time and self time (total minus the time covered by direct child
        spans; calls are single-threaded, so children never overlap)."""
        name, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        phase = np.arange(len(dur)) >= first
        out = {}
        for nid, label in enumerate(self.names):
            sel = (name == nid) & phase
            out[label] = {"calls": int(sel.sum()), "total_s": float(dur[sel].sum()),
                          "self_s": float(own[sel].sum())}
        return out

    def save(self, path) -> None:
        name, parent, start, end = self.arrays()
        t0 = float(start.min()) if len(start) else 0.0
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start - t0, end=end - t0)
